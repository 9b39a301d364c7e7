"""The fleet coordinator: conservative epoch-barrier synchronization.

One simulation, K shards, each advanced in lockstep windows:

* **Barrier math.**  The epoch length L must satisfy ``0 < L ≤ min
  cross-shard stanza latency`` (the switchboard's base latency —
  :attr:`~repro.core.shard.ShardSpec.latency_ms`, 80 ms by default —
  every cross-shard stanza spends at least that long on the wire).  A
  handoff submitted at time *s* inside the window ``(B−L, B]`` is
  exchanged at barrier *B* and is due at ``s + latency > B`` — always
  strictly in the receiver's future, so delivering it before the next
  window starts reproduces the solo schedule exactly.
* **Adaptive lookahead.**  Workers report their next-event time and
  their egress capability (:attr:`~repro.core.shard.Shard.egress_capable`
  — whether their topology holds any remote roster edge) at every
  barrier.  Only things that can *originate* cross-shard traffic bound
  the window: the next events of egress-capable shards, and the due
  times of handoffs granted to egress-capable receivers (a delivery can
  make a capable receiver egress in reaction).  The barrier lands one
  epoch past the earliest such wakeup; shards that cannot egress run
  arbitrarily wide windows, and when nothing anywhere can originate
  traffic the fleet jumps straight to the horizon.  Soundness rests on
  the capability contract (edges are wired before the window that uses
  them); the switchboard's late-due check and the coordinator's
  incapable-egress check turn any violation into a loud failure rather
  than a silently distorted schedule.
* **Determinism.**  Handoffs collected at a barrier are delivered in
  sorted ``(submit_ms, from_jid, seq)`` order — a total order (a JID
  lives on exactly one shard; ``seq`` is that shard's egress counter) —
  so the receiver schedules them identically no matter which worker
  answered first.
* **Processes.**  Shard 0 runs in this process, shards 1…K−1 in worker
  processes started before it by :data:`START_METHOD`: forked on Linux,
  a copy of this coordinator with the package already imported;
  spawned elsewhere, CPython's default there.  A forked worker first
  closes the coordinator's pipe ends it inherited, or it would never
  read EOF once the coordinator died.
* **Data plane.**  Every worker is a
  :class:`~repro.fleet.worker.ShardDriver`; in-process the coordinator
  calls it directly, in a process it sits behind one duplex pipe.  Handoff
  batches cross that pipe as :mod:`repro.fleet.wire` frames — one
  struct-packed, zlib-compressed buffer per barrier instead of one
  pickle per stanza — telemetry samples ride the barrier reply, and the
  final artifacts cross as one zlib-compressed pickle.  Each worker's
  span rows follow in a frame of their own, which stays closed: the
  trace is written when :attr:`FleetResult.trace_jsonl` is first read.
* **Failures.**  A worker that dies, raises, or stops responding turns
  into :class:`WorkerCrashed`/:class:`FleetError` naming the shard and
  the cause; every other worker is torn down.  No hangs, no orphans.
"""

from __future__ import annotations

import multiprocessing
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.shard import Handoff, ShardSpec
from ..obs.timeline import FleetTimeline, fleet_health
from ..sim.hostgc import building, reclaim
from ..sim.kernel import HOUR
from .merge import merge_fleet_reports, merge_metrics, merge_span_rows, report_to_json
from .partition import fleet_spec, plan_fleet
from .wire import decode_batch, encode_batch
from .worker import WORKLOADS, ShardDriver, WorkerCrashed, fleet_worker_main, unseal


class FleetError(RuntimeError):
    """A coordinator-level failure (bad epoch, misrouted handoff, …)."""


#: How a worker process starts; depends on the platform alone.
START_METHOD = "fork" if sys.platform == "linux" else "spawn"


class _PulledTrace:
    """``FleetResult.trace_jsonl``: set as text, or as the ``(shard_id,
    part)`` pairs the workers handed over (a part: span rows, or a
    worker process's sealed frame of them); read as text.  The first
    read opens, writes and merges the parts with collection paused — all
    it allocates is live until it returns — and the text replaces them.
    """

    def __get__(self, result, owner=None):
        if result is None:
            return self
        held = vars(result)["trace_jsonl"]
        if not isinstance(held, str):
            with building():
                held = vars(result)["trace_jsonl"] = merge_span_rows(
                    (shard_id, unseal(part) if isinstance(part, bytes) else part)
                    for shard_id, part in held
                )
        return held

    def __set__(self, result, value) -> None:
        vars(result)["trace_jsonl"] = value


@dataclass
class FleetResult:
    """The merged outcome of one partitioned run."""

    report: Dict[str, Any]
    report_json: str
    metrics: Dict[str, Any]
    #: Written by its first read (:class:`_PulledTrace`) — not ``repr``'s.
    trace_jsonl: str = field(repr=False)
    shard_reports: Tuple[Dict[str, Any], ...]
    devices: int
    shards: int
    epoch_ms: float
    barriers: int
    handoffs: int
    wall_s: float
    #: CPU time of the busiest worker (ingress + run_until_epoch, no
    #: barrier waits) — the fleet's wall time once every worker has its
    #: own core.  On a single-core host ``wall_s`` serializes the
    #: workers; this is the parallel capacity the layout actually has.
    critical_path_s: float = 0.0
    #: Total wire-frame bytes that crossed the worker pipes (handoff
    #: batches in both directions, compressed).  Zero for in-process
    #: fleets — nothing crosses a pipe there.
    handoff_bytes: int = 0
    #: Per-barrier telemetry time-series (``None`` unless the run was
    #: started with ``telemetry=True`` or an observer).
    timeline: Optional[FleetTimeline] = None
    #: Coordinator health verdict derived from the timeline — slow or
    #: stalled shards, barrier imbalance (``None`` without telemetry).
    health: Optional[Dict[str, Any]] = None
    #: Per-shard workload extras (``artifacts["extra"]``), in shard
    #: order.  The scenario runner merges its per-shard summaries from
    #: here; ``None`` entries mean the shard had nothing to add.
    shard_extras: Tuple[Any, ...] = ()

    @property
    def events(self) -> int:
        return self.report["events_executed"]


# Not in the class body: ``@dataclass`` would take it for a default.
FleetResult.trace_jsonl = _PulledTrace()


def _handoff_sort_key(handoff: Handoff):
    return (handoff.submit_ms, handoff.from_jid, handoff.seq)


# ---------------------------------------------------------------------------
# Worker handles: same protocol in-process and across a pipe
# ---------------------------------------------------------------------------

class _LocalWorker:
    """The driver called directly, in this process; bit-identical to the
    process form.  It too works between a post and its wait, so the
    worker processes posted with it run while it does."""

    wire_bytes = 0  # nothing crosses a pipe in-process
    stall_s = 0.0  # what it waited on worker processes for, if any

    def __init__(self, spec: ShardSpec, workload: str, fleet_ctx) -> None:
        self.shard_id = spec.shard_id
        self.driver = ShardDriver(spec, workload, fleet_ctx)
        self._granted = None

    def ready(self) -> Tuple[float, Optional[float], List[Handoff], bool]:
        return self.driver.ready()

    def post_advance(self, barrier_ms: float, handoffs: List[Handoff]) -> None:
        self._granted = barrier_ms, handoffs

    def wait_barrier(self) -> Tuple[List[Handoff], Optional[float], bool, Any]:
        granted, self._granted = self._granted, None
        return self.driver.advance(*granted, self.stall_s)

    def post_finish(self) -> None:
        pass

    def wait_result(self) -> Tuple[Dict[str, Any], Any]:
        driver, self.driver = self.driver, None  # the shard is garbage after
        return driver.finish()  # the rows themselves

    def close(self) -> None:
        pass


class _ProcessWorker:
    """The driver in a worker process, behind one duplex pipe (see
    :func:`~repro.fleet.worker.fleet_worker_main` for the protocol)."""

    def __init__(
        self, spec: ShardSpec, workload: str, fleet_ctx, context,
        timeout_s: float,
    ) -> None:
        self.shard_id = spec.shard_id
        self.timeout_s = timeout_s
        self.wire_bytes = 0
        # Every forked worker, this one included, closes its copy of the
        # end (imported here: only a process fleet needs the module).
        from multiprocessing.util import register_after_fork
        self.conn, child = context.Pipe()
        register_after_fork(self.conn, type(self.conn).close)
        self.process = context.Process(
            target=fleet_worker_main,
            args=(child, spec, workload, fleet_ctx),
            name=f"fleet-{spec.shard_id}",
            daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child.close()

    def _recv(self, raw: bool = False):
        """The worker's next message (``raw``: its next byte blob),
        or :class:`WorkerCrashed` if it raised, died or hung."""
        try:
            if not self.conn.poll(self.timeout_s):
                cause = f"no reply within {self.timeout_s:.0f}s — presumed hung"
                raise WorkerCrashed(
                    f"worker {self.shard_id} produced nothing for "
                    f"{self.timeout_s:.0f}s — presumed hung",
                    shard_id=self.shard_id,
                    cause=cause,
                )
            if raw:
                return self.conn.recv_bytes()
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.process.join(timeout=5.0)
            raise WorkerCrashed(
                f"worker {self.shard_id} died with exit code "
                f"{self.process.exitcode}",
                shard_id=self.shard_id,
                cause=f"process died with exit code {self.process.exitcode}",
            ) from exc
        if message[0] == "error":
            raise message[1]  # the WorkerCrashed the driver raised
        return message

    def ready(self) -> Tuple[float, Optional[float], List[Handoff], bool]:
        _, latency_ms, next_event, frame, capable = self._recv()
        self.wire_bytes += len(frame)
        return latency_ms, next_event, decode_batch(frame), capable

    def post_advance(self, barrier_ms: float, handoffs: List[Handoff]) -> None:
        frame = encode_batch(handoffs)
        self.wire_bytes += len(frame)
        self.conn.send(("advance", barrier_ms, frame))

    def wait_barrier(self) -> Tuple[List[Handoff], Optional[float], bool, Any]:
        _, frame, next_event, capable, sample = self._recv()
        self.wire_bytes += len(frame)
        return decode_batch(frame), next_event, capable, sample

    def post_finish(self) -> None:
        self.conn.send(("finish",))

    def wait_result(self) -> Tuple[Dict[str, Any], Any]:
        message = self._recv()
        if message[0] != "result":
            raise FleetError(
                f"worker {self.shard_id} sent {message[0]!r} where a "
                f"result was expected"
            )
        artifacts = unseal(self._recv(raw=True))
        return artifacts, self._recv(raw=True)  # the trace frame, closed

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

def run_fleet(
    devices: Optional[int] = None,
    shards: int = 1,
    *,
    spec: Optional[ShardSpec] = None,
    seed: int = 0,
    hours: Optional[float] = None,
    duration_ms: Optional[float] = None,
    epoch_ms: Optional[float] = None,
    latency_ms: Optional[float] = None,
    workload: str = "battery-monitor",
    spans: bool = True,
    metrics: bool = True,
    processes: bool = True,
    barrier_timeout_s: float = 600.0,
    telemetry: bool = False,
    observer: Optional[Callable[[Dict[str, Any]], None]] = None,
    workload_ctx: Optional[Dict[str, Any]] = None,
) -> FleetResult:
    """Run one fleet partitioned across ``shards`` workers and merge.

    Pass either ``devices`` (a homogeneous battery-monitor fleet is
    built via :func:`fleet_spec`) or a full root ``spec``.  Shard 0
    runs in this process, and with ``processes=False`` every shard does,
    behind the same barrier protocol — byte-identical results; the
    property tests use it.  ``epoch_ms`` defaults to the maximum safe
    value (the minimum cross-shard stanza latency reported by the
    workers); anything larger is rejected.  ``barrier_timeout_s`` bounds
    each wait on a worker process, not shard 0: a hung shard in this
    process hangs the run (an open stall case, see ROADMAP.md).

    ``latency_ms`` overrides the switchboard's base stanza latency —
    simulated physics, not a tuning knob: it changes the schedule
    itself, and it bounds the barrier window (see
    :class:`~repro.core.shard.ShardSpec`).  It must be positive and is
    applied to the root spec before partitioning, so solo and K-shard
    runs of the same latency always agree byte for byte.

    ``telemetry=True`` arms the per-shard barrier sampler and attaches
    the collected :class:`~repro.obs.timeline.FleetTimeline` (plus the
    derived health verdict) to the result.  ``observer`` — a callable
    receiving each timeline frame as it is appended (e.g.
    :class:`~repro.obs.live.LiveView`) — implies telemetry.  Sampling
    is pull-only and never perturbs the simulation: reports and traces
    are byte-identical with telemetry on or off.
    """
    if observer is not None:
        telemetry = True
    if latency_ms is not None and not (
        isinstance(latency_ms, (int, float)) and latency_ms > 0
    ):
        raise FleetError(
            f"latency_ms must be a positive number of milliseconds, "
            f"got {latency_ms!r}"
        )
    if spec is None:
        if devices is None:
            raise FleetError("pass a device count or a root ShardSpec")
        spec = fleet_spec(
            devices, seed=seed, spans=spans, metrics=metrics,
            latency_ms=latency_ms if latency_ms is not None else 80.0,
        )
    elif latency_ms is not None and spec.latency_ms != latency_ms:
        spec = replace(spec, latency_ms=latency_ms)
    # A telemetry-armed root spec and the flag are equivalent: either
    # arms every shard's sampler (partitioning copies the field).
    telemetry = telemetry or spec.telemetry
    if telemetry and not spec.telemetry:
        spec = replace(spec, telemetry=True)
    if workload not in WORKLOADS:
        raise FleetError(
            f"unknown workload {workload!r}; have {sorted(WORKLOADS)}"
        )
    plan = plan_fleet(spec, shards)
    if hours is None and duration_ms is None:
        hours = 1.0
    total_ms = float(duration_ms if duration_ms is not None else hours * HOUR)
    if total_ms <= 0:
        raise FleetError(f"duration must be positive, got {total_ms} ms")

    fleet_ctx = {
        "deploy_jids": plan.device_jids,
        "collector_jids": plan.collector_jids,
    }
    if workload_ctx:
        # Extra workload inputs (e.g. the ScenarioSpec) ride along; they
        # must be picklable — under spawn the ctx crosses as data.
        fleet_ctx.update(workload_ctx)
    wall_start = perf_counter()
    workers: List[Any] = []
    try:
        # Worker processes first, so they build while this one does.
        # Append as we go: if starting worker k fails, the ``finally``
        # below must still see (and close) the workers already started.
        separate = processes and plan.n_shards > 1
        if separate:
            context = multiprocessing.get_context(START_METHOD)
            for shard_spec in plan.shards[1:]:
                workers.append(_ProcessWorker(
                    shard_spec, workload, fleet_ctx, context, barrier_timeout_s
                ))
        hosted = plan.shards[:1] if separate else plan.shards
        workers[:0] = [_LocalWorker(s, workload, fleet_ctx) for s in hosted]
        readies = [worker.ready() for worker in workers]
        min_latency = min(latency for latency, _, _, _ in readies)
        epoch = float(epoch_ms) if epoch_ms is not None else min_latency
        if not 0 < epoch <= min_latency:
            raise FleetError(
                f"epoch must be in (0, {min_latency}] ms — the minimum "
                f"cross-shard stanza latency bounds the barrier window — "
                f"got {epoch} ms"
            )

        next_events = [next_event for _, next_event, _, _ in readies]
        capable = [flag for _, _, _, flag in readies]
        # Anything egressed during workload setup (time zero) is routed
        # with the first window grant, so receivers schedule it exactly
        # where the solo run would have.
        setup_handoffs: List[Handoff] = []
        for _, _, initial, _ in readies:
            setup_handoffs.extend(initial)
        setup_handoffs.sort(key=_handoff_sort_key)
        outbox: List[List[Handoff]] = [[] for _ in workers]
        for handoff in setup_handoffs:
            outbox[plan.owner_of(handoff.to_jid)].append(handoff)
        handoffs_total = len(setup_handoffs)
        now = 0.0
        barriers = 0
        timeline = (
            FleetTimeline(
                fleet_id=plan.root.shard_id,
                devices=len(plan.device_jids),
                shards=plan.n_shards,
            )
            if telemetry
            else None
        )

        def exchange(barrier: float) -> None:
            """Grant the window ending at ``barrier`` to every worker,
            then collect, totally order, and route the handoffs."""
            nonlocal outbox, next_events, capable, handoffs_total, barriers
            window_start = perf_counter()
            for index, worker in enumerate(workers):
                worker.post_advance(barrier, outbox[index])
            results = [workers[0].wait_barrier()]
            blocked = perf_counter()
            results += [worker.wait_barrier() for worker in workers[1:]]
            if separate:  # shard 0 is done: this is its wait on the rest
                workers[0].stall_s += perf_counter() - blocked
            collected: List[Handoff] = []
            for index, (out, _, _, _) in enumerate(results):
                if out and not capable[index]:
                    # The window was placed assuming this shard could
                    # not originate traffic; silently accepting the
                    # handoffs could mis-time their delivery.
                    raise FleetError(
                        f"shard {workers[index].shard_id} egressed "
                        f"{len(out)} handoffs in a window placed on the "
                        f"assumption it could not (no remote roster "
                        f"edges at placement time) — the egress-"
                        f"capability contract requires edges to be "
                        f"wired before the window that uses them"
                    )
                collected.extend(out)
            collected.sort(key=_handoff_sort_key)
            outbox = [[] for _ in workers]
            for handoff in collected:
                outbox[plan.owner_of(handoff.to_jid)].append(handoff)
            handoffs_total += len(collected)
            next_events = [next_event for _, next_event, _, _ in results]
            capable = [flag for _, _, flag, _ in results]
            barriers += 1
            if timeline is not None:
                frame = timeline.append(
                    epoch=barriers,
                    barrier_ms=barrier,
                    samples=[sample for _, _, _, sample in results],
                    handoffs=len(collected),
                    backlog=sum(len(granted) for granted in outbox),
                    window_wall_s=perf_counter() - window_start,
                )
                if observer is not None:
                    observer(frame)

        try:
            while now < total_ms:
                # Adaptive horizon: only egress-capable shards can bound
                # the window.  Their next local event may egress, and a
                # handoff granted to a capable receiver may trigger an
                # egress at its due time; everything else — including
                # every event on incapable shards — runs free inside an
                # arbitrarily wide window.
                wakeups = [
                    next_event
                    for next_event, flag in zip(next_events, capable)
                    if flag and next_event is not None
                ]
                for index, granted in enumerate(outbox):
                    if capable[index]:
                        wakeups.extend(
                            handoff.submit_ms + min_latency
                            for handoff in granted
                        )
                if not wakeups:
                    barrier = total_ms  # nothing can cross again: jump
                else:
                    barrier = min(total_ms, max(now, min(wakeups)) + epoch)
                exchange(barrier)
                now = barrier

            # Horizon drain: handoffs collected at the final barrier can
            # be due at or before the horizon (``run_until`` executes
            # events at exactly T), and executing them can egress more.
            # Keep draining zero-length windows until nothing new
            # crosses; afterwards the receivers' heaps hold the same
            # still-due entries the solo run would hold at T.
            while any(outbox):
                exchange(total_ms)
        except WorkerCrashed as exc:
            # Stamp how far the fleet got so the CLI can say "crashed at
            # epoch N (t=... ms sim)" without re-deriving it.
            exc.barriers = barriers
            exc.barrier_ms = now
            raise

        for worker in workers:
            worker.post_finish()
        results = [workers[0].wait_result()]  # and shard 0 is dropped
        if separate:  # free it while the workers seal, not in the next build
            reclaim()
        results += [worker.wait_result() for worker in workers[1:]]
        artifacts, parts = zip(*results)
    finally:
        for worker in workers:
            worker.close()

    report = merge_fleet_reports(
        [artifact["report"] for artifact in artifacts], fleet_id=plan.root.shard_id
    )
    report_json = report_to_json(report)
    metrics = merge_metrics([artifact["metrics"] for artifact in artifacts])
    health = fleet_health(timeline) if timeline is not None else None
    # Stopped here: the trace is merged by whoever reads it, on their time.
    wall_s = perf_counter() - wall_start
    return FleetResult(
        report=report,
        report_json=report_json,
        metrics=metrics,
        trace_jsonl=[(w.shard_id, part) for w, part in zip(workers, parts)],
        shard_reports=tuple(artifact["report"] for artifact in artifacts),
        devices=len(plan.device_jids),
        shards=plan.n_shards,
        epoch_ms=epoch,
        barriers=barriers,
        handoffs=handoffs_total,
        wall_s=wall_s,
        critical_path_s=max(
            artifact.get("busy_s", 0.0) for artifact in artifacts
        ),
        handoff_bytes=sum(worker.wire_bytes for worker in workers),
        timeline=timeline,
        health=health,
        shard_extras=tuple(artifact.get("extra") for artifact in artifacts),
    )
