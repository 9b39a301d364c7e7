"""Chaos scenarios: canned fault campaigns with a built-in verdict.

Each scenario builds a small battery-monitoring fleet (the Table 3
workload), lets the chaos engine loose on it for a fault window, then
heals the network and drives the recovery machinery to quiescence before
asking the :class:`~repro.chaos.invariants.InvariantMonitor` for its
verdict.  The output is a deterministic report: same scenario + seed →
byte-identical JSON, so a red run travels as two small numbers.

``inject_bug`` deliberately breaks the middleware (skip retransmissions,
or silently forget an unacked envelope) to prove the monitor catches
real defects and names the offending envelope's trace id — a canary for
the canary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..apps import battery_monitor
from ..core.middleware import PogoSimulation, SimulatedDevice
from ..net.acks import ReliableLink
from ..sim.kernel import MINUTE
from .engine import ChaosEngine
from .invariants import InvariantMonitor

#: Counters included in the report's ``chaos`` section.
_CHAOS_COUNTERS = (
    "chaos.dropped",
    "chaos.duplicated",
    "chaos.reordered",
    "chaos.delayed",
    "chaos.partition_dropped",
    "chaos.passed",
    "chaos.server_restarts",
    "chaos.violations",
)

#: Known bug injections (see :func:`_inject_bug`).
BUGS = ("skip-retransmit", "forget-unacked")


class _NoResendLink(ReliableLink):
    """Injected bug: a link whose ``resend_unacked`` never retransmits.

    Same slot layout as :class:`ReliableLink`, so a live link is
    retargeted by ``__class__`` assignment (the null-lane idiom), and a
    module-level class, so a shard snapshot taken mid-campaign with the
    bug armed still pickles.
    """

    __slots__ = ()

    def resend_unacked(self, max_age_ms=None) -> int:
        return 0


class _InstallNoResend:
    """on_link_created listener retargeting the link to :class:`_NoResendLink`."""

    def __call__(self, link) -> None:
        link.__class__ = _NoResendLink


class _ForgetUnacked:
    """Injected bug: drop the victim's lowest unacked envelope."""

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self) -> None:
        victim = self.node
        for peer in sorted(victim.links):
            link = victim.links[peer]
            if link._unacked:
                seq = min(link._unacked)
                del link._unacked[seq]
                link._sent_at.pop(seq, None)
                return


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    default_minutes: float
    apply: Callable[[ChaosEngine, PogoSimulation, float], None]


def _flaky_3g(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    engine.impair(drop=0.12, delay_ms=(40.0, 400.0))


def _reorder_storm(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    engine.impair(reorder=0.30, dup=0.10, delay_ms=(10.0, 80.0), hold_ms=(500.0, 4_000.0))


def _partition(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    start = sim.kernel.now
    jids = sorted(sim.devices)
    island = jids[: max(1, len(jids) // 2)]
    engine.partition(island, start + 0.10 * minutes * MINUTE, 0.35 * minutes * MINUTE)
    engine.partition(island, start + 0.60 * minutes * MINUTE, 0.25 * minutes * MINUTE)
    engine.impair(delay_ms=(20.0, 120.0))


def _server_restarts(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    start = sim.kernel.now
    engine.server_restart(start + 0.25 * minutes * MINUTE)
    engine.server_restart(start + 0.70 * minutes * MINUTE)
    engine.impair(delay_ms=(20.0, 150.0))


def _churn(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    for jid in sorted(sim.devices):
        engine.device_churn(
            sim.devices[jid],
            minutes * 0.8,
            reboot_rate_per_hour=3.0,
            outage_rate_per_hour=6.0,
            mean_outage_s=60.0,
        )
    engine.impair(delay_ms=(10.0, 100.0))


def _mixed(engine: ChaosEngine, sim: PogoSimulation, minutes: float) -> None:
    start = sim.kernel.now
    engine.impair(drop=0.06, reorder=0.10, dup=0.04, delay_ms=(20.0, 200.0))
    jids = sorted(sim.devices)
    engine.partition(jids[:1], start + 0.3 * minutes * MINUTE, 2 * MINUTE)
    engine.server_restart(start + 0.55 * minutes * MINUTE)
    if jids:
        engine.device_churn(
            sim.devices[jids[-1]],
            minutes * 0.8,
            reboot_rate_per_hour=2.0,
            outage_rate_per_hour=4.0,
            mean_outage_s=60.0,
        )


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("flaky-3g", "12% stanza loss + 40-400ms extra latency on every link", 12.0, _flaky_3g),
        Scenario("reorder-storm", "30% reordering, 10% duplication, jittery latency", 12.0, _reorder_storm),
        Scenario("partition", "half the fleet islanded twice, mild latency throughout", 12.0, _partition),
        Scenario("server-restarts", "two XMPP server bounces mid-run (sessions die, offline storage survives)", 12.0, _server_restarts),
        Scenario("churn", "per-device reboots and mobile-data gaps from seeded streams", 15.0, _churn),
        Scenario("mixed", "loss + reorder + partition + restart + churn together", 15.0, _mixed),
    )
}


def _inject_bug(
    kind: str,
    sim: PogoSimulation,
    engine: ChaosEngine,
    devices: List[SimulatedDevice],
    chaos_ms: float,
) -> None:
    """Break the middleware on purpose so the monitor has something to catch.

    Both bugs are only *visible* when the victim actually loses traffic,
    so the injection also pins a heavy drop rule on the victim's
    outgoing links (prepended, so it wins over the scenario's wildcard
    rules).  The bug, not the drops, is what violates the invariants —
    every scenario survives far worse loss when the middleware is intact.
    """
    victim = devices[0].node
    engine.impair(src=victim.jid, drop=0.5)
    if kind == "skip-retransmit":
        # The classic silent-loss bug: the device never retransmits, so
        # any dropped envelope stays unacked forever.  Caught by the
        # quiescence invariant, with the stuck envelopes' trace ids.
        victim.on_link_created.append(_InstallNoResend())
    elif kind == "forget-unacked":
        # Sender-side amnesia: periodically drop the lowest unacked
        # envelope without abandoning it (no base advance), so a lost
        # copy is unrecoverable and unaccounted.  Caught by the
        # envelope-conservation / quiescence invariants.
        forget = _ForgetUnacked(victim)
        step = chaos_ms / 16.0
        for i in range(6, 16):
            sim.kernel.schedule_at(i * step, forget)
    else:
        raise ValueError(f"unknown bug injection: {kind!r} (choose from {BUGS})")


def run_scenario(
    name: str,
    seed: int = 7,
    minutes: Optional[float] = None,
    devices: int = 3,
    inject_bug: Optional[str] = None,
    settle_minutes: float = 9.0,
    snapshot_midpoint: bool = False,
    artifacts: Optional[Dict[str, Any]] = None,
    spec=None,
) -> Dict[str, Any]:
    """Run one chaos scenario end to end; returns the deterministic report.

    With ``snapshot_midpoint=True`` the shard is pickled and restored
    halfway through the fault window and the campaign continues on the
    restored copy.  The report (and span trace) must come out
    byte-identical either way — the snapshot-determinism regression test
    pins exactly that.

    ``spec`` composes the fault campaign with the scenario engine: pass
    a :class:`~repro.scenarios.spec.ScenarioSpec` and the chaos fleet is
    replaced by that scenario's compiled shard — generative worlds,
    surges, multi-campaign deployment and all — with the fault window
    overlaid on top.  The report gains a ``workload`` key naming the
    scenario (legacy reports are byte-for-byte unchanged).
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown scenario {name!r} (choose from {sorted(SCENARIOS)})")
    chaos_minutes = scenario.default_minutes if minutes is None else float(minutes)
    chaos_ms = chaos_minutes * MINUTE

    if spec is not None:
        from ..core.shard import Shard
        from ..scenarios.workload import attach_scenario, start_scenario

        sim = Shard(spec.compile())
        devices = spec.devices
        fleet = [sim.devices[jid] for jid in sorted(sim.devices)]
        engine = ChaosEngine(sim)
        if inject_bug:
            _inject_bug(inject_bug, sim, engine, fleet, chaos_ms)
        # The chaos path owns the monitor (periodic checks on); the
        # scenario workload must not attach its own.
        monitor = InvariantMonitor(sim)
        sim.extras["chaos_engine"] = engine
        sim.extras["invariant_monitor"] = monitor
        attach_scenario(sim, spec, monitor=False)
        start_scenario(sim, spec)
    else:
        sim = PogoSimulation(seed=seed)
        collector = sim.add_collector("chaos")
        fleet = [sim.add_device(with_email_app=True) for _ in range(devices)]
        engine = ChaosEngine(sim)
        if inject_bug:
            _inject_bug(inject_bug, sim, engine, fleet, chaos_ms)
        # Attach the monitor before any link exists so every ReliableLink
        # gets its witness from birth.
        monitor = InvariantMonitor(sim)
        # Shard extras travel with a snapshot; a restored campaign re-finds
        # its engine and monitor here instead of holding stale references.
        sim.extras["chaos_engine"] = engine
        sim.extras["invariant_monitor"] = monitor

        sim.start()
        sim.assign(collector, fleet)
        collector.node.deploy(
            battery_monitor.build_experiment(), [d.jid for d in fleet]
        )

    scenario.apply(engine, sim, chaos_minutes)
    # Both targets are computed up front so the interrupted and the
    # uninterrupted paths run to bit-identical deadlines.
    midpoint = sim.kernel.now + chaos_ms / 2.0
    horizon = sim.kernel.now + chaos_ms
    sim.kernel.run_until(midpoint)
    if snapshot_midpoint:
        sim = PogoSimulation.restore(sim.snapshot())
        engine = sim.extras["chaos_engine"]
        monitor = sim.extras["invariant_monitor"]
    sim.kernel.run_until(horizon)

    # Heal, then drive resends/acks until the pipeline can quiesce.
    engine.settle()
    for _ in range(max(1, int(settle_minutes) - 1)):
        sim.run(minutes=1)
        engine.drive_resends()
    sim.run(minutes=1)

    violations = monitor.finish(expect_quiesced=True)
    if artifacts is not None:
        # Out-of-band handles for tests (the final sim, possibly the
        # restored copy) — never part of the byte-compared report.
        artifacts["sim"] = sim
    report = _build_report(
        scenario, sim, monitor, seed=seed, minutes=chaos_minutes,
        devices=devices, inject_bug=inject_bug,
    )
    if spec is not None:
        # Name the composed workload — spec path only, so the legacy
        # report stays byte-for-byte pinned by the golden masters.
        report["workload"] = spec.name
    return report


def _build_report(
    scenario: Scenario,
    sim: PogoSimulation,
    monitor: InvariantMonitor,
    seed: int,
    minutes: float,
    devices: int,
    inject_bug: Optional[str],
) -> Dict[str, Any]:
    metrics = sim.kernel.metrics
    collector = next(iter(sim.collectors.values()))
    context = collector.node.contexts.get(battery_monitor.EXPERIMENT_ID)
    readings = 0
    if context is not None and "collect" in context.scripts:
        readings = len(context.scripts["collect"].namespace.get("readings", ()))
    links = [
        sim.devices[jid].node.links[peer]
        for jid in sorted(sim.devices)
        for peer in sorted(sim.devices[jid].node.links)
    ] + [collector.node.links[peer] for peer in sorted(collector.node.links)]
    report = {
        "bug": inject_bug or "none",
        "chaos": {name: metrics.counter(name).value for name in _CHAOS_COUNTERS},
        "devices": devices,
        "links": monitor.link_summaries(),
        "minutes": minutes,
        "pipeline": {
            "abandoned": sum(l.abandoned for l in links),
            "delivered": sum(l.delivered for l in links),
            "duplicates_suppressed": sum(l.duplicates for l in links),
            "expired": sum(sim.devices[j].node.buffer.expired for j in sim.devices),
            "readings": readings,
            "server_restarts": sim.server.restarts,
            "stanzas_lost": sim.server.stanzas_lost,
            "stanzas_stored_offline": sim.server.stanzas_stored_offline,
        },
        "scenario": scenario.name,
        "seed": seed,
        "violation_count": len(monitor.violations),
        "violations": monitor.violations_dicts(),
    }
    return report


def report_json(report: Dict[str, Any]) -> str:
    """Canonical byte-identical serialization of a scenario report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        f"scenario: {report['scenario']}  seed={report['seed']}  "
        f"minutes={report['minutes']:g}  devices={report['devices']}"
        + (f"  bug={report['bug']}" if report["bug"] != "none" else ""),
        "chaos:    "
        + "  ".join(
            f"{name.split('.', 1)[1]}={count}"
            for name, count in sorted(report["chaos"].items())
            if count
        ),
        "pipeline: "
        + "  ".join(f"{k}={v}" for k, v in sorted(report["pipeline"].items())),
    ]
    violations = report["violations"]
    if not violations:
        lines.append("verdict:  OK — all invariants held")
    else:
        lines.append(f"verdict:  {len(violations)} VIOLATION(S)")
        for v in violations:
            traces = ""
            if v["trace_ids"]:
                shown = ", ".join(f"{t:#x}" for t in v["trace_ids"][:4])
                extra = len(v["trace_ids"]) - 4
                traces = f" [traces: {shown}{f' +{extra}' if extra > 0 else ''}]"
            lines.append(
                f"  [{v['invariant']}] t={v['time_ms']:.0f}ms "
                f"{v['subject']}: {v['detail']}{traces}"
            )
    return "\n".join(lines)
