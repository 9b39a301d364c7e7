"""Multiprocess fleet execution: one simulation, K shard workers.

This package partitions one fleet across workers — each stepping its own
:class:`~repro.core.shard.Shard` — and keeps the merged result
byte-identical to the single-shard run for the same seed:

* :mod:`repro.fleet.partition` — split a root :class:`ShardSpec` into K
  per-shard specs with deterministic device→shard assignment and the
  global JID numbering pinned (per-device random streams are keyed by
  JID, so every shard draws exactly the single-shard randomness).
* :mod:`repro.fleet.worker` — :class:`~repro.fleet.worker.ShardDriver`,
  the one code path that builds a shard and advances it barrier by
  barrier, plus the loop that serves a driver over a pipe.
* :mod:`repro.fleet.coordinator` — conservative time-windowed
  synchronization: epoch length bounded by the minimum cross-shard
  stanza latency, deterministic sorted handoff exchange at each barrier,
  quiescence detection, clean errors on worker crashes.  A process
  fleet of K shards runs shard 0 in this process and the other K−1 one
  per worker process (forked on Linux, spawned elsewhere); the pipe is
  the only transport.
* :mod:`repro.fleet.wire` — the batched binary handoff codec: one
  struct-packed, zlib-compressed frame per barrier instead of one
  pickle per stanza; decode reconstructs identical ``Handoff`` objects.
* :mod:`repro.fleet.merge` — combine per-shard fleet reports, metrics
  planes and span traces into one canonical report.
"""

from .coordinator import FleetError, FleetResult, WorkerCrashed, run_fleet
from .merge import (
    merge_fleet_reports,
    merge_metrics,
    merge_trace_jsonl,
    merge_trace_rows,
)
from .partition import FleetPlan, fleet_spec, plan_fleet
from .wire import WireError, decode_batch, encode_batch

__all__ = [
    "FleetError",
    "FleetPlan",
    "FleetResult",
    "WireError",
    "WorkerCrashed",
    "decode_batch",
    "encode_batch",
    "fleet_spec",
    "merge_fleet_reports",
    "merge_metrics",
    "merge_trace_jsonl",
    "merge_trace_rows",
    "plan_fleet",
    "run_fleet",
]
