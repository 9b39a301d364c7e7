"""Run a scenario spec and emit the canonical byte-deterministic report.

The runner is a thin shell over the fleet coordinator: a compiled
scenario is just a root :class:`~repro.core.shard.ShardSpec` plus the
``"scenario"`` workload, so solo runs are the one-shard degenerate case
of the sharded path — which is exactly what makes sharded-vs-solo byte
parity a meaningful gate rather than a coincidence.

The canonical report (``schema: scenario/1``) contains only
placement-independent data: the merged fleet report, the summed world
statistics, the collector's order-insensitive campaign statistics, the
pure-function surge attendance rows, and the invariant verdict.  Two
seeded runs — any shard count, processes or not — must serialize it to
identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..core.shard import report_json
from ..fleet.coordinator import FleetResult, run_fleet
from ..fleet.partition import device_jid
from ..sim.kernel import HOUR
from . import workload  # noqa: F401  (the "scenario" setup: loaded before a worker forks)
from .spec import ScenarioSpec, attends, contends

SCHEMA = "scenario/1"


@dataclass
class ScenarioResult:
    """One scenario run: the spec, its canonical report, and the fleet."""

    spec: ScenarioSpec
    report: Dict[str, Any]
    report_json: str
    fleet: FleetResult


def _merge_extras(extras) -> Dict[str, Any]:
    world = {"places": 0, "segments": 0, "splices": 0, "city_places": 0}
    campaigns: Dict[str, Any] = {}
    violations: List[Dict[str, Any]] = []
    for extra in extras:
        if not extra:
            continue
        for key, value in extra["world"].items():
            if key == "city_places":
                # The city is shared state, not partitioned: same value
                # on every shard.
                world["city_places"] = max(world["city_places"], value)
            else:
                world[key] = world.get(key, 0) + value
        if extra["campaigns"]:
            # Collectors live on one shard; exactly one extra has these.
            campaigns = extra["campaigns"]
        violations.extend(extra["violations"])
    violations.sort(
        key=lambda v: (
            v.get("time_ms", 0.0), v.get("invariant", ""), v.get("subject", "")
        )
    )
    return {"world": world, "campaigns": campaigns, "violations": violations}


def scenario_report(spec: ScenarioSpec, result: FleetResult) -> Dict[str, Any]:
    """Assemble the canonical report for one finished run."""
    merged = _merge_extras(result.shard_extras)
    all_jids = [device_jid(i) for i in range(spec.devices)]
    surges = [
        {
            "name": surge.name,
            "venue": surge.venue,
            "attendees": sum(
                1 for jid in all_jids if attends(spec.seed, surge, jid)
            ),
            "contended": sum(
                1 for jid in all_jids if contends(spec.seed, surge, jid)
            ),
        }
        for surge in spec.surges
    ]
    return {
        "schema": SCHEMA,
        "scenario": spec.name,
        "seed": spec.seed,
        "devices": spec.devices,
        "hours": spec.hours,
        "carriers": list(spec.carriers),
        "campaigns": merged["campaigns"],
        "world": merged["world"],
        "surges": surges,
        "invariants": {
            "violation_count": len(merged["violations"]),
            "violations": merged["violations"],
        },
        "fleet": result.report,
    }


def run_scenario_spec(
    spec: ScenarioSpec,
    shards: int = 1,
    *,
    processes: bool = True,
    telemetry: bool = False,
) -> ScenarioResult:
    """Execute ``spec`` (solo or sharded) and build the canonical report.

    ``processes`` and ``telemetry`` are passed to
    :func:`~repro.fleet.coordinator.run_fleet`; neither changes a byte
    of the report.
    """
    spec.validate()
    result = run_fleet(
        spec.compile(),
        shards,
        duration_ms=spec.hours * HOUR,
        workload="scenario",
        workload_ctx={"scenario": spec},
        processes=processes,
        telemetry=telemetry,
    )
    report = scenario_report(spec, result)
    return ScenarioResult(
        spec=spec,
        report=report,
        report_json=report_json(report),
        fleet=result,
    )


def render_report(report: Dict[str, Any]) -> str:
    """Human-oriented summary of one scenario report."""
    lines = [
        f"scenario {report['scenario']} (seed {report['seed']}): "
        f"{report['devices']} devices, {report['hours']} h, "
        f"carriers {', '.join(report['carriers'])}",
        f"  world: {report['world']['city_places']} city places, "
        f"{report['world']['places']} materialized, "
        f"{report['world']['splices']} surge splices",
    ]
    for surge in report["surges"]:
        lines.append(
            f"  surge {surge['name']} @ {surge['venue']}: "
            f"{surge['attendees']} attendees, {surge['contended']} contended"
        )
    for kind in sorted(report["campaigns"]):
        stats = report["campaigns"][kind]
        detail = ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        lines.append(f"  campaign {kind}: {detail}")
    fleet = report["fleet"]
    lines.append(
        f"  fleet: {fleet['events_executed']} events, "
        f"{fleet['server']['stanzas_routed']} stanzas routed"
    )
    count = report["invariants"]["violation_count"]
    lines.append(
        "  invariants: all held" if count == 0
        else f"  invariants: {count} VIOLATION(S)"
    )
    return "\n".join(lines)
