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
* :mod:`repro.fleet.wire` — what crosses a worker pipe: each barrier's
  handoff batch as one pickle, and the zlib-sealed end-of-run frames;
  decode gives back copies of the sender's ``Handoff`` objects.
* :mod:`repro.fleet.merge` — combine per-shard fleet reports, metrics
  planes and span traces into one canonical report.

The re-exports below resolve lazily (PEP 562): a battery-monitor shard
that imports :mod:`repro.fleet.worker` pays for neither the coordinator
nor the merge.
"""

__all__ = [
    "FleetError",
    "WorkerCrashed",
    "fleet_spec",
    "merge_fleet_reports",
    "merge_metrics",
    "merge_trace_jsonl",
    "plan_fleet",
    "run_fleet",
]


def __getattr__(name):
    if name in ("FleetError", "WorkerCrashed", "run_fleet"):
        from . import coordinator as home
    elif name in ("fleet_spec", "plan_fleet"):
        from . import partition as home
    elif name in ("merge_fleet_reports", "merge_metrics", "merge_trace_jsonl"):
        from . import merge as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
