"""The shard driver and its process transport: one Shard, one pipe.

* :class:`ShardDriver` — the one code path that steps a shard through a
  fleet run: build it from its spec, open the cross-shard boundary and
  install the workload; :meth:`~ShardDriver.ready`;
  :meth:`~ShardDriver.advance` (ingress the handoffs granted at the
  barrier, run to the next one via
  :meth:`~repro.core.shard.Shard.run_until_epoch`, account the CPU,
  take the telemetry sample); :meth:`~ShardDriver.finish` (report,
  metrics, and the span ring as rows — values, not text).  A
  shard-side exception becomes :class:`WorkerCrashed` in exactly one
  place, :func:`crash_guard`.
* :func:`fleet_worker_main` — the same driver behind
  :mod:`repro.fleet.wire` frames and a pipe, for a worker process.  The
  coordinator's in-process worker calls the driver directly; which of
  the two runs is a transport choice, not a second implementation.

Everything here is module-level and picklable by reference: off Linux a
worker is spawned (:data:`repro.fleet.coordinator.START_METHOD`), a
fresh interpreter that re-imports this module.
"""

from __future__ import annotations

import pickle
import sys
import zlib
from contextlib import contextmanager
from time import perf_counter, process_time
from traceback import format_exc
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.shard import Handoff, Shard, ShardSpec
from ..sim.hostgc import building
from ..sim.spans import SpanRow, span_rows
from .partition import device_jid

try:
    import resource
except ImportError:  # not POSIX
    resource = None


class WorkerCrashed(RuntimeError):
    """A worker process died, raised an exception, or stopped responding.

    Beyond the message, carries structured fields the CLI uses to print
    a one-line diagnosis instead of a raw traceback dump:

    * ``shard_id`` — which worker died (``None`` if unknown).
    * ``cause`` — one-line cause (``ExceptionType: message``, or an
      exit-code / timeout description).
    * ``barriers`` / ``barrier_ms`` — how many epoch barriers the fleet
      had completed, and the sim time of the last one, when the crash
      surfaced (filled in by the coordinator).
    """

    def __init__(
        self,
        message: str,
        shard_id: Optional[str] = None,
        cause: Optional[str] = None,
        barriers: Optional[int] = None,
        barrier_ms: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.cause = cause
        self.barriers = barriers
        self.barrier_ms = barrier_ms


def _rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB, or ``None`` where unavailable.

    ``resource`` is POSIX-only, and macOS reports ``ru_maxrss`` in bytes
    rather than kilobytes — normalise so the telemetry wall section means
    the same thing everywhere it exists.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@building()
def setup_battery_monitor(
    shard: Shard, fleet_ctx: Optional[Dict[str, Any]] = None
) -> None:
    """Start ``shard`` and deploy the Table 3 battery-monitor workload.

    Solo (``fleet_ctx=None``): deploy to the shard's own devices.

    Partitioned: ``fleet_ctx`` carries the *global* roster —
    ``deploy_jids`` (every device in the fleet) and ``collector_jids``.
    The collector's shard deploys to all of them, and remote
    assignments become one-sided roster edges
    (:meth:`XmppServer.add_remote_roster`) on both shards so presence
    crosses the boundary exactly as the solo run delivers it locally.
    """
    from ..apps import battery_monitor

    shard.start()
    local_jids = sorted(shard.devices)
    names = sorted(shard.collectors)
    if fleet_ctx is None:
        if not names:
            return
        collector = shard.collectors[names[0]]
        shard.assign(collector, [shard.devices[jid] for jid in local_jids])
        collector.node.deploy(battery_monitor.build_experiment(), local_jids)
        return
    if not fleet_ctx["collector_jids"]:
        return
    collector_jid = fleet_ctx["collector_jids"][0]
    targets = sorted(fleet_ctx["deploy_jids"])
    if names:
        collector = shard.collectors[names[0]]
        shard.assign(collector, [shard.devices[jid] for jid in local_jids])
        for jid in targets:
            if jid not in shard.devices:
                shard.server.add_remote_roster(collector_jid, jid)
        collector.node.deploy(battery_monitor.build_experiment(), targets)
    else:
        for jid in local_jids:
            shard.server.add_remote_roster(jid, collector_jid)


def setup_crash_canary(
    shard: Shard, fleet_ctx: Optional[Dict[str, Any]] = None
) -> None:
    """Deliberately crash during workload setup (test workload): on every
    shard, or on the one holding device ``fleet_ctx["crash_device"]``.

    Lets the crash-reporting tests exercise the full worker-process
    error path — the workload must live at module level so a spawned
    child interpreter can import it by name.
    """
    site = (fleet_ctx or {}).get("crash_device")
    if site is None or device_jid(site) in shard.devices:
        raise RuntimeError("crash canary tripped")


#: Workload name → setup callable, looked up by the worker loop.  Names,
#: not callables, cross the pipe — the registry keeps spawn picklability
#: trivial and gives misconfiguration a clean error.  (The scenario
#: workload imports only core/apps/world modules, never this package, so
#: the module-level import is cycle-free.)
from ..scenarios.workload import setup_scenario, setup_scenario_crash

WORKLOADS = {
    "battery-monitor": setup_battery_monitor,
    "crash-canary": setup_crash_canary,
    "scenario": setup_scenario,
    "scenario-crash-mid-epoch": setup_scenario_crash,
}


def _artifacts(shard: Shard, busy_s: float) -> Dict[str, Any]:
    """What a shard reports besides its trace: canonical report and
    metrics snapshot.

    ``busy_s`` is the CPU time this worker spent advancing its shard
    (ingress + ``run_until_epoch``), excluding barrier waits.  The
    maximum across workers is the coordinator's critical path — the
    fleet's wall time once every worker has its own core.
    """
    from ..scenarios.workload import scenario_summary

    return {
        "shard_id": shard.shard_id,
        "report": shard.fleet_report(),
        "metrics": shard.kernel.metrics.snapshot(),
        "busy_s": busy_s,
        # Workload-specific extras; None for non-scenario shards.
        "extra": scenario_summary(shard),
    }


def collect_artifacts(shard: Shard, busy_s: float = 0.0) -> Dict[str, Any]:
    """The outputs of a shard nobody coordinates: report, metrics, and
    under ``"trace_jsonl"`` the per-shard span export — the text
    :func:`~repro.analysis.export.spans_to_jsonl` writes to a file, in
    ring order, no ``shard`` member.  That text is what
    :func:`~repro.fleet.merge.merge_trace_jsonl` merges; a fleet's own
    workers hand over rows (:meth:`ShardDriver.finish`) and write none.
    """
    from ..analysis.export import spans_to_jsonl

    artifacts = _artifacts(shard, busy_s)
    artifacts["trace_jsonl"] = spans_to_jsonl(shard.kernel.spans)
    return artifacts


# ---------------------------------------------------------------------------
# The shard driver
# ---------------------------------------------------------------------------

@contextmanager
def crash_guard(shard_id: str) -> Iterator[None]:
    """Turn any exception raised inside the block into
    :class:`WorkerCrashed` — the one place a shard-side failure gets its
    structured surface, in-process and in a worker process alike.

    The message carries the traceback as text (a traceback object cannot
    cross the pipe); ``cause`` is the one line the CLI prints.  The
    coordinator stamps ``barriers``/``barrier_ms``.
    """
    try:
        yield
    except WorkerCrashed:
        raise
    except Exception as exc:
        raise WorkerCrashed(
            f"worker {shard_id} raised:\n{format_exc()}",
            shard_id=shard_id,
            cause=f"{type(exc).__name__}: {exc}".splitlines()[0],
        ) from exc


class ShardDriver:
    """Steps one shard through a fleet run: build, ``ready()``,
    ``advance()`` once per barrier, ``finish()``.

    ``busy_s`` is the CPU time spent advancing the shard — CPU, not
    wall: on an oversubscribed host a window's wall time includes the
    other workers' time slices, which would inflate the critical path.
    A transport that does codec work on the shard's behalf adds it here.
    """

    def __init__(
        self, spec: ShardSpec, workload: str,
        fleet_ctx: Optional[Dict[str, Any]],
    ) -> None:
        self.shard_id = spec.shard_id
        self.busy_s = 0.0
        self.epoch = 0
        with crash_guard(self.shard_id):
            self.shard = Shard(spec)
            self.shard.open_boundary()
            WORKLOADS[workload](self.shard, fleet_ctx)

    def ready(self) -> Tuple[float, Optional[float], List[Handoff], bool]:
        """``(latency_ms, next_event_time, handoffs, egress_capable)``.

        The handoffs are whatever the workload setup egressed at time
        zero (e.g. the deploy fan-out): the coordinator delivers them
        with the *first* window grant, so receivers schedule them
        exactly where the solo run would.  ``egress_capable`` is the
        topology-lookahead bit
        (:attr:`~repro.core.shard.Shard.egress_capable`): the adaptive
        barrier only lets capable shards' next events bound the window.
        """
        shard = self.shard
        return (
            shard.server.latency_ms, shard.kernel.next_event_time(),
            shard.pending_cross_shard(), shard.egress_capable,
        )

    def advance(
        self, barrier_ms: float, handoffs: List[Handoff], stall_s: float = 0.0
    ) -> Tuple[List[Handoff], Optional[float], bool, Optional[Dict[str, Any]]]:
        """Ingress the granted ``handoffs`` and run to ``barrier_ms``.

        Returns ``(egressed, next_event_time, egress_capable, sample)``;
        ``sample`` is the telemetry snapshot of the window just
        finished, ``None`` when telemetry is disabled.  Its wall section
        holds ``cpu_s`` (cumulative :attr:`busy_s`), ``stall_s``
        (cumulative time the caller spent blocked waiting for its
        grants — zero when no shard runs in a worker process) and
        ``rss_kb`` (the process's peak RSS).
        """
        shard = self.shard
        t0 = process_time()
        with crash_guard(self.shard_id):
            if handoffs:
                shard.ingress(handoffs)
            out = shard.run_until_epoch(barrier_ms)
        self.busy_s += process_time() - t0
        self.epoch += 1
        sample = None
        if shard.telemetry.enabled:
            sample = shard.telemetry.sample(
                self.epoch,
                barrier_ms,
                handoffs_in=len(handoffs),
                handoffs_out=len(out),
                wall={
                    "cpu_s": round(self.busy_s, 6),
                    "stall_s": round(stall_s, 6),
                    "rss_kb": _rss_kb(),
                },
            )
        return out, shard.kernel.next_event_time(), shard.egress_capable, sample

    def finish(self) -> Tuple[Dict[str, Any], List[SpanRow]]:
        """The shard's part of the fleet's merged outputs: report and
        metrics, and the span ring as rows in ring order — not ordered,
        not stamped, not written: the trace becomes text where it is
        read (:func:`~repro.fleet.merge.merge_span_rows`).
        """
        with crash_guard(self.shard_id):
            return _artifacts(self.shard, self.busy_s), span_rows(self.shard.kernel.spans)


# ---------------------------------------------------------------------------
# The process transport
# ---------------------------------------------------------------------------

def seal(value: Any) -> bytes:
    """One of a worker's two final frames: its artifacts, or its span rows
    (rows, not spans: slotted objects pickle several times slower)."""
    return zlib.compress(pickle.dumps(value, pickle.HIGHEST_PROTOCOL), 1)


def unseal(frame: bytes) -> Any:
    """What :func:`seal` sealed — in this run's own worker, nowhere else."""
    return pickle.loads(zlib.decompress(frame))


def fleet_worker_main(
    conn,
    spec: ShardSpec,
    workload: str,
    fleet_ctx: Optional[Dict[str, Any]],
) -> None:
    """Serve one :class:`ShardDriver` over ``conn`` until told to finish.

    Protocol (coordinator → worker / worker → coordinator).  Handoff
    batches cross as :mod:`repro.fleet.wire` frames — one struct-packed,
    zlib-compressed buffer per barrier; everything else is a small
    pickled tuple, except the final artifacts:

    * ← ``("ready", latency_ms, next_event_time, frame, egress_capable)``
      once the shard is built (see :meth:`ShardDriver.ready`).
    * → ``("advance", barrier_ms, frame)``
      ← ``("barrier", frame, next_event_time, egress_capable, sample)``
      (see :meth:`ShardDriver.advance`).
    * → ``("finish",)``  ← ``("result",)`` followed by two
      ``send_bytes`` of :func:`seal` frames (zlib-level-1 pickles): the
      artifacts (small), then the span rows, which the coordinator does
      not open unless the trace is read.
    * Any failure ← ``("error", WorkerCrashed)`` and the loop exits.

    Codec CPU counts towards the driver's ``busy_s``; ``stall_s`` is the
    wall time spent blocked in ``conn.recv`` waiting for the next grant
    (this worker's view of barrier imbalance).
    """
    from .wire import decode_batch, encode_batch

    try:
        with crash_guard(spec.shard_id):
            driver = ShardDriver(spec, workload, fleet_ctx)
            latency_ms, next_event, initial, capable = driver.ready()
            conn.send(
                ("ready", latency_ms, next_event, encode_batch(initial), capable)
            )
            stall_s = 0.0
            while True:
                w0 = perf_counter()
                message = conn.recv()
                stall_s += perf_counter() - w0
                op = message[0]
                if op == "advance":
                    t0 = process_time()
                    handoffs = decode_batch(message[2])
                    driver.busy_s += process_time() - t0
                    out, next_event, capable, sample = driver.advance(
                        message[1], handoffs, stall_s
                    )
                    t0 = process_time()
                    frame = encode_batch(out)
                    driver.busy_s += process_time() - t0
                    conn.send(("barrier", frame, next_event, capable, sample))
                elif op == "finish":
                    artifacts, rows = driver.finish()
                    frames = seal(artifacts), seal(rows)  # before "result": may raise
                    conn.send(("result",))
                    for frame in frames:
                        conn.send_bytes(frame)
                    return
                else:
                    raise ValueError(f"unknown coordinator op: {op!r}")
    except WorkerCrashed as crash:
        try:
            conn.send(("error", crash))
        except (OSError, ValueError):
            pass  # coordinator already gone; exit code tells the story
    finally:
        conn.close()
