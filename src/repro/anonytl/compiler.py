"""Compile AnonyTL tasks into deployable Pogo experiments.

The paper positions AnonyTL and Pogo as alternative programming models
for the *same* class of system (Section 3.4: DSLs are "easy to execute
and sandbox ... accessible to researchers and programmers with little
domain experience", general languages give "total flexibility").  This
compiler makes the comparison concrete: a task written in Listing 1's
six lines becomes a generated Pogo device script plus a trivial
collector script.

The generated code preserves **AnonySense's semantics**, including the
limitation the paper's Section 5.1 discussion hinges on: the DSL has no
way to express turning a sensor *off* outside the report condition, so
the compiled script keeps every subscribed sensor sampling at the report
rate and merely suppresses reports when ``(In location ...)`` is false.
The handwritten Pogo RogueFinder (Listing 2) releases/renews its
subscription instead — which is worth real energy, and the
``benchmarks/test_comparison_anonytl.py`` benchmark measures exactly
that gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.deployment import Experiment
from .tasks import AnonyTLTask, ReportSpec

#: Channel compiled tasks publish their reports on.
REPORT_CHANNEL = "anonytl-reports"


def compile_task(task: AnonyTLTask) -> Experiment:
    """Compile a parsed task into a Pogo :class:`Experiment`."""
    device_script = generate_device_script(task)
    collector_script = generate_collector_script(task)
    return Experiment(
        experiment_id=task.experiment_id,
        description=f"AnonyTL task {task.task_id}",
        device_scripts={"task": device_script},
        collector_scripts={"collect": collector_script},
    )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _polygon_literal(report: ReportSpec) -> str:
    assert report.condition is not None
    points = ", ".join(f"({x!r}, {y!r})" for x, y in report.condition.vertices)
    return f"[{points}]"


def _report_function(index: int, report: ReportSpec) -> str:
    """One evaluator per (Report ...) statement."""
    fields_payload = []
    if "location" in report.fields:
        fields_payload.append(
            "        report['location'] = {'lat': loc['lat'], 'lon': loc['lon']}"
        )
    if "ssids" in report.fields:
        fields_payload.append(
            "        scan = state.get('wifi-scan')\n"
            "        report['SSIDs'] = [ap['ssid'] for ap in scan['aps']] if scan else []"
        )
    payload = "\n".join(fields_payload)
    # Only statements that actually consume the location gate on it: an
    # (In location ...) condition, or a location report field.
    if report.condition is not None:
        condition = (
            f"    if loc is None or not point_in_polygon(loc['lon'], loc['lat'], POLYGON_{index}):\n"
            "        return"
        )
    elif "location" in report.fields:
        condition = "    if loc is None:\n        return"
    else:
        condition = "    pass"
    return f'''
def evaluate_{index}():
    setTimeout(evaluate_{index}, {report.interval_ms!r})
    loc = state.get('locations')
{condition}
    report = {{'task': TASK_ID, 'statement': {index}}}
    if True:
{payload if payload else "        pass"}
    publish('{REPORT_CHANNEL}', report)
'''


def generate_device_script(task: AnonyTLTask) -> str:
    """The device-side script for a task.

    AnonySense semantics: every sensor a report statement references is
    sampled at that statement's rate for the task's whole lifetime; the
    condition only gates *reporting*.
    """
    lines: List[str] = [
        f"setDescription('AnonyTL task {task.task_id}')",
        "",
        f"TASK_ID = {task.task_id}",
        "state = {}",
        "",
        # Ray casting, same as Listing 2's locationInPolygon.
        "def point_in_polygon(x, y, poly):",
        "    inside = False",
        "    count = len(poly)",
        "    for i in range(count):",
        "        ax, ay = poly[i]",
        "        bx, by = poly[(i + 1) % count]",
        "        if (ay > y) != (by > y):",
        "            if x < (bx - ax) * (y - ay) / (by - ay) + ax:",
        "                inside = not inside",
        "    return inside",
        "",
    ]

    # One subscription per referenced channel, at the fastest rate any
    # statement demands (the broker would coordinate anyway; compiled
    # code asks for what it needs).
    channel_rates: Dict[str, float] = {}
    needs_location = False
    for report in task.reports:
        for channel in report.channels:
            rate = channel_rates.get(channel)
            channel_rates[channel] = min(rate, report.interval_ms) if rate else report.interval_ms
        if report.condition is not None:
            needs_location = True
    if needs_location and "locations" not in channel_rates:
        fastest = min(r.interval_ms for r in task.reports)
        channel_rates["locations"] = fastest

    for channel, interval in sorted(channel_rates.items()):
        handler = channel.replace("-", "_")
        lines.append(f"def on_{handler}(msg):")
        lines.append(f"    state['{channel}'] = msg")
        lines.append(
            f"subscribe('{channel}', on_{handler}, {{'interval': {interval!r}}})"
        )
        lines.append("")

    for index, report in enumerate(task.reports):
        if report.condition is not None:
            lines.append(f"POLYGON_{index} = {_polygon_literal(report)}")
        lines.append(_report_function(index, report))

    lines.append("")
    lines.append("def start():")
    for index, report in enumerate(task.reports):
        lines.append(f"    setTimeout(evaluate_{index}, {report.interval_ms!r})")
    lines.append("")
    return "\n".join(lines)


def generate_collector_script(task: AnonyTLTask) -> str:
    """The collector side: store every report (AnonySense's report sink)."""
    return f'''setDescription('AnonyTL task {task.task_id} report sink')

reports = []


def handle(msg):
    reports.append(msg)
    logTo('task-{task.task_id}', json(msg))


subscribe('{REPORT_CHANNEL}', handle)
'''


# ---------------------------------------------------------------------------
# Deployment with Accept matching and expiry
# ---------------------------------------------------------------------------


def deploy_task(
    collector_node,
    admin,
    task: AnonyTLTask,
    researcher_jid: Optional[str] = None,
    now_unix_s: float = 0.0,
):
    """Deploy a task the AnonySense way.

    * devices are selected by the task's ``(Accept ...)`` predicate
      against the pool's device attributes (all devices when absent);
    * the researcher is assigned those devices (roster pairs);
    * if the task ``(Expires ...)``, a teardown is scheduled at expiry
      (relative to ``now_unix_s``, the testbed's notion of wall time at
      simulation start).

    Returns ``(context, accepted_jids)``.
    """
    researcher_jid = researcher_jid or collector_node.jid
    if task.accept is not None:
        accepted = admin.devices_matching(task.accept)
    else:
        accepted = sorted(admin.devices)
    new = [
        jid
        for jid in accepted
        if researcher_jid not in admin.devices[jid].assigned_to
    ]
    if new:
        admin.assign(researcher_jid, new)

    experiment = compile_task(task)
    context = collector_node.deploy(experiment, accepted)

    if task.expires is not None:
        delay_ms = max(0.0, (task.expires - now_unix_s) * 1000.0)
        collector_node.kernel.schedule(delay_ms, _expire, collector_node, task)
    return context, accepted


def _expire(collector_node, task: AnonyTLTask) -> None:
    context = collector_node.contexts.get(task.experiment_id)
    if context is not None:
        context.teardown()
        del collector_node.contexts[task.experiment_id]
