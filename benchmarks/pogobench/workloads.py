"""The six workloads, as the child interpreter runs them.

Every function here drives the simulator through public functions only
and imports ``repro`` lazily, inside an ``import:`` span, so the child
can time the import as part of set-up.  The module itself imports
nothing from ``repro``: the driver reads the tables below without paying
for (or depending on) the package.

Top-level span names carry a phase prefix (see
:data:`benchmarks.pogobench.tracing.PHASES`); spans recorded after the
moment the report is in hand (``wall_end``) are outside the run and are
never counted into ``wall_s`` or a phase.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from functools import partial
from time import perf_counter, process_time
from typing import Any, Callable, Dict, Iterator, List, Optional

from .tracing import GcProbe, LayerProfile, Tracer

#: name → why it exists (one line; BENCHMARK.json carries the same text).
WORKLOADS: Dict[str, str] = {
    "table3_fleet": (
        "Paper Table 3 fleet with instrumentation off: kernel, device, core "
        "and net do all the work over a large static object graph; fleet, "
        "scenarios and world do none."
    ),
    "table3_instrumented": (
        "Same generator with spans and metrics on plus artifact collection: "
        "the write side of the instrumentation planes that table3_fleet "
        "leaves on the null lane."
    ),
    "stadium_solo": (
        "Few devices, long horizon, one shard: scenarios, world, sensors, "
        "apps and scripting dominate; the control for stadium_x2, flat "
        "under any fleet-layer change."
    ),
    "stadium_x2": (
        "The same scenario on two spawned workers: barriers, handoffs, wire "
        "codec, pipes and merge are the run; its report bytes must equal "
        "stadium_solo's."
    ),
    "chaos_mixed": (
        "Drop, dup, reorder, partition and server restart on a mid-size "
        "fleet: acks retransmission, offline storage and the online "
        "invariant monitor, bypassed by the clean table3 runs."
    ),
    "table4_user3": (
        "Paper Table 4 worst-case participant: one device, script host, "
        "sliding-window DBSCAN and buffer purge; no fleet and no fleet-size "
        "effect (deployment seed pinned to 2012)."
    ),
}

#: Input sizes.  ``full`` is the size each workload was designed at;
#: ``bench`` is what fits several fresh-process repetitions of every
#: workload into the benchmark's time cap; ``smoke`` is ~10x below full.
#: The two stadium rows must stay equal: x2's report is compared to solo's.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "table3_fleet": {"devices": 2000, "hours": 0.5},
        "table3_instrumented": {"devices": 1000, "hours": 0.5},
        "stadium_solo": {"scale": 0.5},
        "stadium_x2": {"scale": 0.5},
        "chaos_mixed": {"devices": 400, "minutes": 60.0},
        "table4_user3": {"days": 24, "outage_days": (8.5, 13.0)},
    },
    "bench": {
        "table3_fleet": {"devices": 2000, "hours": 0.1},
        "table3_instrumented": {"devices": 500, "hours": 0.2},
        # 10 citizens, not the preset's 6: with so few devices the worlds
        # differ enough from seed to seed to spread wall_s by 0.09.
        "stadium_solo": {"scale": 0.2, "devices": 10},
        "stadium_x2": {"scale": 0.2, "devices": 10},
        "chaos_mixed": {"devices": 300, "minutes": 20.0},
        "table4_user3": {"days": 6, "outage_days": (1.5, 4.0)},
    },
    "smoke": {
        "table3_fleet": {"devices": 200, "hours": 0.1},
        "table3_instrumented": {"devices": 100, "hours": 0.1},
        "stadium_solo": {"scale": 0.1},
        "stadium_x2": {"scale": 0.1},
        "chaos_mixed": {"devices": 40, "minutes": 15.0},
        "table4_user3": {"days": 4, "outage_days": (1.0, 2.5)},
    },
}

#: Events the bare-kernel micro-timing schedules and runs, per size.
KERNEL_MICRO_EVENTS = {"full": 1_000_000, "bench": 1_000_000, "smoke": 100_000}

#: Table 3 as printed in the paper: carrier → (without Pogo J, with Pogo J).
#: Copied, not imported, from ``benchmarks/test_table3_power.py::PAPER`` so
#: that file stays free to change without moving the ruler.
PAPER_TABLE3 = {
    "KPN": (277.59, 288.76),
    "T-Mobile": (182.05, 194.30),
    "Vodafone": (205.47, 218.98),
}
#: Table 4, user 3: match %, partial %.
PAPER_TABLE4_USER3 = (80.0, 83.0)

#: The deployment study's seed is the paper-pinned one; ``--seed`` does
#: not vary it.
TABLE4_SEED = 2012

MODEL_COUNTS = (
    "sim.events", "net.stanzas_routed", "net.stanzas_stored_offline",
    "core.batches_sent", "core.payloads_sent", "core.flushes",
    "device.energy_uj", "chaos.delivered", "chaos.duplicates_suppressed",
    "apps.scans", "apps.locations",
)


class RunContext:
    """What one child repetition carries through a workload function."""

    def __init__(
        self, tracer: Tracer, seed: int, size: str, params: Dict[str, Any],
        mode: str, src_root,
    ) -> None:
        self.tracer = tracer
        self.seed = seed
        self.size = size
        self.params = params
        self.mode = mode  # "run" | "spans" | "profile"
        self.gc = GcProbe()
        self.profile = LayerProfile(src_root)
        #: Duration of the instrumented region (what the layers partition).
        self.simulate_s = 0.0

    @contextmanager
    def simulate(self, name: str) -> Iterator[None]:
        """The region the GC probe (``spans``) or cProfile (``profile``)
        observes, recorded as a ``simulate:`` span."""
        with ExitStack() as stack:
            if self.mode == "spans":
                stack.enter_context(self.gc.watching())
            elif self.mode == "profile":
                stack.enter_context(self.profile.profiling())
            with self.tracer.span(f"simulate:{name}") as span:
                yield
        self.simulate_s += span["end"] - span["start"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fleet_counts(report: Dict[str, Any]) -> Dict[str, int]:
    """Exact model counts from a (merged) ``fleet_report()`` dict."""
    devices = report["devices"].values()
    return {
        "sim.events": report["events_executed"],
        "net.stanzas_routed": report["server"]["stanzas_routed"],
        "net.stanzas_stored_offline": report["server"]["stanzas_stored_offline"],
        "core.batches_sent": sum(d["batches_sent"] for d in devices),
        "core.payloads_sent": sum(d["payloads_sent"] for d in devices),
        "core.flushes": sum(d["flushes"] for d in devices),
        # Rounded per device before summing, like obs.telemetry does, so
        # the total does not depend on addition order or partitioning.
        "device.energy_uj": sum(int(round(d["energy_j"] * 1e6)) for d in devices),
    }


# ---------------------------------------------------------------------------
# table3_fleet / table3_instrumented
# ---------------------------------------------------------------------------

def _table3(ctx: RunContext, instrumented: bool) -> Dict[str, Any]:
    tr = ctx.tracer
    with tr.span("import:repro.fleet"):
        from repro.core.shard import Shard
        from repro.fleet.partition import fleet_spec
        from repro.fleet.worker import collect_artifacts, setup_battery_monitor
    with tr.span("spec:fleet_spec"):
        spec = fleet_spec(
            ctx.params["devices"], seed=ctx.seed,
            spans=instrumented, metrics=instrumented,
        )
    with tr.span("build:Shard"):
        shard = Shard(spec)
    with tr.span("workload_setup:setup_battery_monitor"):
        setup_battery_monitor(shard)
    setup_end = tr.now()
    with ctx.simulate("Shard.run"):
        shard.run(hours=ctx.params["hours"])
    with tr.span("collect:report"):
        if instrumented:
            artifacts = collect_artifacts(shard)
            report = artifacts["report"]
            # The metrics snapshot holds wall-clock histograms, so only
            # the two seeded artifacts go into the digest.
            text = shard.fleet_report_json() + artifacts["trace_jsonl"]
        else:
            report = shard.fleet_report()
            text = shard.fleet_report_json()
    wall_end = tr.now()
    out = {
        "report": text, "work": report["events_executed"],
        "counts": fleet_counts(report), "violations": None,
        "setup_end": setup_end, "wall_end": wall_end, "extras": {},
    }
    if ctx.mode == "spans" and not instrumented:
        out["extras"].update(_snapshot_timings(tr, shard))
        out["extras"].update(_kernel_timings(tr, ctx.size))
    return out


def _snapshot_timings(tr: Tracer, shard) -> Dict[str, float]:
    """State size: what a per-barrier checkpoint would pay."""
    with tr.span("extra:Shard.snapshot") as snap:
        blob = shard.snapshot()
    with tr.span("extra:Shard.restore") as rest:
        type(shard).restore(blob)
    return {
        "shard.snapshot_s": snap["end"] - snap["start"],
        "shard.restore_s": rest["end"] - rest["start"],
        "shard.snapshot_bytes": len(blob),
    }


def _noop() -> None:
    pass


def _kernel_timings(tr: Tracer, size: str) -> Dict[str, float]:
    """The kernel's floor: a bare ``Kernel`` dispatching no-op events."""
    from repro.sim.kernel import Kernel

    n = KERNEL_MICRO_EVENTS[size]
    kernel = Kernel()
    with tr.span("extra:Kernel.schedule+run") as one_shot:
        for i in range(n):
            kernel.schedule(float(i % 1000), _noop)
        executed = kernel.run()
    if executed != n:
        raise RuntimeError(f"kernel ran {executed} of {n} scheduled events")
    kernel = Kernel()
    kernel.schedule_repeating(1.0, _noop)
    with tr.span("extra:Kernel.schedule_repeating") as repeating:
        kernel.run(max_events=n)
    return {
        "kernel.dispatch_ns": (one_shot["end"] - one_shot["start"]) / n * 1e9,
        "kernel.repeating_ns": (repeating["end"] - repeating["start"]) / n * 1e9,
    }


# ---------------------------------------------------------------------------
# stadium_solo / stadium_x2
# ---------------------------------------------------------------------------

def _stadium_spec(ctx: RunContext):
    from repro.scenarios import build_preset

    with ctx.tracer.span("spec:build_preset"):
        spec = build_preset("stadium-evening", scale=ctx.params["scale"])
        return replace(
            spec, seed=ctx.seed, devices=ctx.params.get("devices", spec.devices)
        )


def _fleet_rows(fleet) -> Dict[str, float]:
    return {
        "fleet.barriers": fleet.barriers,
        "fleet.handoffs": fleet.handoffs,
        "fleet.handoff_bytes": fleet.handoff_bytes,
        "fleet.critical_path_s": fleet.critical_path_s,
    }


def _stadium_outcome(report_json: str, report: Dict[str, Any], fleet) -> Dict[str, Any]:
    return {
        "report": report_json,
        "work": report["fleet"]["events_executed"],
        "counts": fleet_counts(report["fleet"]),
        "violations": report["invariants"]["violation_count"],
        "fleet": _fleet_rows(fleet),
        "extras": {},
    }


def _stadium(ctx: RunContext, shards: int) -> Dict[str, Any]:
    if ctx.mode != "run":
        return _stadium_traced(ctx, shards)
    tr = ctx.tracer
    with tr.span("import:repro.scenarios"):
        from repro.fleet import run_fleet
        from repro.scenarios import run_scenario_spec
    spec = _stadium_spec(ctx)
    setup_end = tr.now()
    with ctx.simulate("run_scenario_spec"):
        result = run_scenario_spec(spec, shards=shards)
    out = _stadium_outcome(result.report_json, result.report, result.fleet)
    out.update(setup_end=setup_end, wall_end=tr.now())
    if shards > 1:
        # Worker spawn, import and build are invisible from outside
        # run_fleet, so set-up is estimated by the same call over a
        # zero-length horizon.  It runs after the report is in hand (and
        # after the parent has sampled rusage) and is added to setup_s.
        out["usage"] = usage()
        with tr.span("extra:run_fleet(zero horizon)") as twin:
            run_fleet(
                spec=spec.compile(), shards=shards, duration_ms=1.0,
                workload="scenario", workload_ctx={"scenario": spec},
            )
        out["twin"] = (twin["start"], twin["end"])
    return out


class _Wire:
    """Codec cost on the real handoff batches of a stepped drive."""

    def __init__(self, encode: Callable, decode: Callable) -> None:
        self.encode, self.decode = encode, decode
        self.encode_s = self.decode_s = 0.0
        self.handoffs = self.bytes = 0

    def cross(self, handoffs: List[Any]) -> List[Any]:
        t0 = perf_counter()
        frame = self.encode(handoffs)
        t1 = perf_counter()
        decoded = self.decode(frame)
        t2 = perf_counter()
        self.encode_s += t1 - t0
        self.decode_s += t2 - t1
        self.handoffs += len(handoffs)
        self.bytes += len(frame)
        return decoded

    def metrics(self) -> Dict[str, float]:
        n = max(1, self.handoffs)
        return {
            "wire.encode_us_per_handoff": self.encode_s / n * 1e6,
            "wire.decode_us_per_handoff": self.decode_s / n * 1e6,
            "wire.bytes_per_handoff": self.bytes / n,
        }


def _handoff_key(handoff) -> tuple:
    return (handoff.submit_ms, handoff.from_jid, handoff.seq)


def _step_shards(shards, plan, total_ms: float, wire: Optional[_Wire]) -> Dict[str, Any]:
    """Advance planned shards barrier by barrier, in this process.

    The same conservative window rule as ``fleet.coordinator.run_fleet``
    (only egress-capable shards and handoffs granted to them bound the
    window), written against the shard's public seam so every call is
    the driver's own.  With ``wire`` each batch crosses the codec in both
    directions, as it does between spawned workers.  That the merged
    report equals the coordinator's, byte for byte, is checked by the
    driver — the proof that this loop steps what ``run_fleet`` steps.
    """
    cross = wire.cross if wire is not None else (lambda handoffs: handoffs)
    epoch = min(shard.server.latency_ms for shard in shards)
    busy = [0.0] * len(shards)

    def route(handoffs):
        outbox = [[] for _ in shards]
        for handoff in sorted(handoffs, key=_handoff_key):
            outbox[plan.owner_of(handoff.to_jid)].append(handoff)
        return outbox

    at_setup = [h for shard in shards for h in cross(shard.pending_cross_shard())]
    outbox = route(at_setup)
    handoffs_total = len(at_setup)
    barriers = 0
    now = 0.0
    while now < total_ms or any(outbox):
        wakeups = []
        for index, shard in enumerate(shards):
            if not shard.egress_capable:
                continue
            next_event = shard.kernel.next_event_time()
            if next_event is not None:
                wakeups.append(next_event)
            wakeups.extend(h.submit_ms + epoch for h in outbox[index])
        if now >= total_ms or not wakeups:
            barrier = total_ms
        else:
            barrier = min(total_ms, max(now, min(wakeups)) + epoch)
        collected = []
        for index, shard in enumerate(shards):
            t0 = process_time()
            granted = cross(outbox[index])
            if granted:
                shard.ingress(granted)
            collected.extend(cross(shard.run_until_epoch(barrier)))
            busy[index] += process_time() - t0
        outbox = route(collected)
        handoffs_total += len(collected)
        barriers += 1
        now = barrier
    return {"barriers": barriers, "handoffs": handoffs_total, "busy": busy}


def _stadium_traced(ctx: RunContext, shards: int) -> Dict[str, Any]:
    """The staged drive: ``run_scenario_spec`` taken apart into the
    public calls it is made of, one span each."""
    tr = ctx.tracer
    with tr.span("import:repro.scenarios"):
        from repro.core.shard import Shard
        from repro.fleet.coordinator import FleetResult
        from repro.fleet.merge import (
            merge_fleet_reports, merge_metrics, merge_trace_jsonl, report_to_json,
        )
        from repro.fleet.partition import plan_fleet
        from repro.fleet.wire import decode_batch, encode_batch
        from repro.fleet.worker import collect_artifacts
        from repro.scenarios import run_scenario_spec
        from repro.scenarios.runner import report_json, scenario_report
        from repro.scenarios.workload import setup_scenario
        from repro.sim.kernel import HOUR
    spec = _stadium_spec(ctx)

    if ctx.mode == "profile" and shards > 1:
        # cProfile cannot see into spawned workers; the in-process twin
        # runs the same coordinator, merge and shard code in one
        # interpreter, so fleet self time shows beside the shard layers.
        setup_end = tr.now()
        with ctx.simulate("run_scenario_spec(processes=False)"):
            result = run_scenario_spec(spec, shards=shards, processes=False)
        out = _stadium_outcome(result.report_json, result.report, result.fleet)
        out.update(setup_end=setup_end, wall_end=tr.now())
        return out

    with tr.span("spec:ScenarioSpec.compile"):
        root = spec.compile()
    with tr.span("spec:plan_fleet"):
        plan = plan_fleet(root, shards)
    fleet_ctx = {
        "deploy_jids": plan.device_jids,
        "collector_jids": plan.collector_jids,
        "scenario": spec,
    }
    with tr.span("build:Shard"):
        built = [Shard(shard_spec) for shard_spec in plan.shards]
        for shard in built:
            shard.open_boundary()
    with tr.span("workload_setup:setup_scenario"):
        for shard in built:
            setup_scenario(shard, fleet_ctx)
    setup_end = tr.now()
    wire = _Wire(encode_batch, decode_batch) if shards > 1 else None
    with ctx.simulate("run_until_epoch"):
        stepped = _step_shards(built, plan, spec.hours * HOUR, wire)
    with tr.span("collect:collect_artifacts"):
        artifacts = [
            collect_artifacts(shard, busy)
            for shard, busy in zip(built, stepped["busy"])
        ]
    with tr.span("merge:merge_fleet_reports"):
        merged = merge_fleet_reports(
            [a["report"] for a in artifacts], fleet_id=plan.root.shard_id
        )
        fleet = FleetResult(
            report=merged,
            report_json=report_to_json(merged),
            metrics=merge_metrics([a["metrics"] for a in artifacts]),
            trace_jsonl=merge_trace_jsonl(
                [(a["shard_id"], a["trace_jsonl"]) for a in artifacts]
            ),
            shard_reports=tuple(a["report"] for a in artifacts),
            devices=len(plan.device_jids),
            shards=plan.n_shards,
            epoch_ms=min(shard.server.latency_ms for shard in built),
            barriers=stepped["barriers"],
            handoffs=stepped["handoffs"],
            wall_s=tr.now() - setup_end,
            critical_path_s=max(stepped["busy"]),
            handoff_bytes=wire.bytes if wire is not None else 0,
            shard_extras=tuple(a.get("extra") for a in artifacts),
        )
    with tr.span("merge:scenario_report"):
        report = scenario_report(spec, fleet)
        text = report_json(report)
    out = _stadium_outcome(text, report, fleet)
    out.update(setup_end=setup_end, wall_end=tr.now())
    if ctx.mode != "spans":
        return out
    if wire is None:
        out["extras"].update(_snapshot_timings(tr, built[0]))
        return out
    out["extras"].update(wire.metrics())
    # Per-shard CPU and pipe stall come from the workers themselves: the
    # spawned run with the telemetry sampler armed.
    with tr.span("extra:run_scenario_spec(telemetry=True)") as armed:
        result = run_scenario_spec(spec, shards=shards, telemetry=True)
    if (result.report_json, result.fleet.barriers, result.fleet.handoffs) != (
        text, stepped["barriers"], stepped["handoffs"]
    ):
        raise RuntimeError(
            "the staged drive and the spawned, telemetry-armed run disagree "
            "on report bytes, barriers or handoffs"
        )
    walls = [sample["wall"] for sample in result.fleet.timeline.last_samples()]
    cpu = [wall["cpu_s"] for wall in walls]
    out["extras"].update({
        "fleet.worker_cpu_s": sum(cpu),
        "fleet.stall_s": sum(wall["stall_s"] for wall in walls),
        "fleet.shard_imbalance": max(cpu) / (sum(cpu) / len(cpu)) if sum(cpu) else 0.0,
    })
    # The fleet.* rows describe the spawned run, not the in-process drive.
    out["fleet"] = _fleet_rows(result.fleet)
    out["traced_wall_s"] = setup_end + (armed["end"] - armed["start"])
    return out


# ---------------------------------------------------------------------------
# chaos_mixed
# ---------------------------------------------------------------------------

def chaos_mixed(ctx: RunContext) -> Dict[str, Any]:
    tr = ctx.tracer
    with tr.span("import:repro.chaos"):
        from repro import chaos
    setup_end = tr.now()
    handles: Dict[str, Any] = {}
    with ctx.simulate("chaos.run_scenario"):
        report = chaos.run_scenario(
            "mixed", seed=ctx.seed, devices=ctx.params["devices"],
            minutes=ctx.params["minutes"], artifacts=handles,
        )
    with tr.span("collect:report_json"):
        text = chaos.report_json(report)
    wall_end = tr.now()
    counts = fleet_counts(handles["sim"].fleet_report())
    counts["chaos.delivered"] = report["pipeline"]["delivered"]
    counts["chaos.duplicates_suppressed"] = report["pipeline"]["duplicates_suppressed"]
    return {
        "report": text, "work": counts["sim.events"], "counts": counts,
        "violations": report["violation_count"],
        "setup_end": setup_end, "wall_end": wall_end, "extras": {},
    }


# ---------------------------------------------------------------------------
# table4_user3
# ---------------------------------------------------------------------------

def _user3(params: Dict[str, Any]):
    from repro.apps.deployment_study import DEFAULT_SESSIONS

    session = next(s for s in DEFAULT_SESSIONS if s.name == "user3")
    return replace(
        session,
        days=params["days"],
        cell_outage_days=tuple(params["outage_days"]),
        update_days=tuple(d for d in session.update_days if d < params["days"]),
    )


def table4_user3(ctx: RunContext) -> Dict[str, Any]:
    tr = ctx.tracer
    with tr.span("import:repro.apps.deployment_study"):
        from repro.apps.deployment_study import run_deployment
    with tr.span("spec:SessionSpec"):
        session = _user3(ctx.params)
    setup_end = tr.now()
    with ctx.simulate("run_deployment"):
        (result,) = run_deployment((session,), seed=TABLE4_SEED)
    with tr.span("collect:report"):
        row = {
            "name": result.name, "scans": result.scans,
            "raw_bytes": result.raw_bytes, "locations": result.locations,
            "location_bytes": result.location_bytes,
            "match_percent": result.match_percent,
            "partial_percent": result.partial_percent,
            "truth_clusters": result.truth_clusters,
            "expired_messages": result.expired_messages,
        }
        text = json.dumps(row, sort_keys=True, indent=2) + "\n"
    return {
        "report": text,
        # One device: the unit of work a user sees is the Wi-Fi scan; the
        # kernel's event count is not reachable through run_deployment.
        "work": result.scans,
        "counts": {"apps.scans": result.scans, "apps.locations": result.locations},
        "violations": None,
        "match": (result.match_percent, result.partial_percent),
        "setup_end": setup_end, "wall_end": tr.now(), "extras": {},
    }


RUNNERS: Dict[str, Callable[[RunContext], Dict[str, Any]]] = {
    "table3_fleet": partial(_table3, instrumented=False),
    "table3_instrumented": partial(_table3, instrumented=True),
    "stadium_solo": partial(_stadium, shards=1),
    "stadium_x2": partial(_stadium, shards=2),
    "chaos_mixed": chaos_mixed,
    "table4_user3": table4_user3,
}


# ---------------------------------------------------------------------------
# Paper references (outside every timed region)
# ---------------------------------------------------------------------------

def table4_error_points(match: float, partial: float) -> float:
    """Mean distance, in points, from Table 4's user-3 match/partial."""
    paper_match, paper_partial = PAPER_TABLE4_USER3
    return (abs(match - paper_match) + abs(partial - paper_partial)) / 2.0


def paper_error(workload: str) -> Optional[float]:
    """``paper_err_pct`` for ``workload``; ``None`` where the paper gives
    no reference.  Deterministic: no ``--seed``, no host timing."""
    if workload.startswith("table3"):
        from repro.apps import battery_monitor
        from repro.core.middleware import PogoSimulation
        from repro.device.radio import CARRIERS
        from repro.sim.kernel import MINUTE

        errors = []
        for name, paper in PAPER_TABLE3.items():
            for with_pogo, reference in zip((False, True), paper):
                # benchmarks/test_table3_power.py::run_hour: 10 min
                # warm-up, then one metered hour, seed 3.
                sim = PogoSimulation(seed=3, carrier=CARRIERS[name])
                collector = sim.add_collector("alice")
                device = sim.add_device(with_email_app=True)
                sim.start()
                sim.assign(collector, [device])
                if with_pogo:
                    collector.node.deploy(
                        battery_monitor.build_experiment(), [device.jid]
                    )
                sim.run(duration_ms=10 * MINUTE)
                device.phone.rail.reset_energy()
                sim.run(hours=1)
                errors.append(
                    abs(device.phone.rail.energy_joules - reference) / reference
                )
        return 100.0 * sum(errors) / len(errors)
    if workload == "table4_user3":
        from repro.apps.deployment_study import run_deployment

        (result,) = run_deployment(
            (_user3(SIZES["full"]["table4_user3"]),), seed=TABLE4_SEED
        )
        return table4_error_points(result.match_percent, result.partial_percent)
    return None


def usage() -> Dict[str, float]:
    """CPU seconds and peak RSS of this process and its reaped workers."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }
