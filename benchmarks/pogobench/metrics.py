"""The metric tables: names, units, directions, regression bounds.

``BENCHMARK.json`` at the repo root carries the same tables; the smoke
test fails when the two drift apart.  Which end-to-end metric each
per-layer metric is expected to move, and on which workload, is written
down in ``README.md`` — before any measurement was taken.
"""

from __future__ import annotations

from typing import Dict, List

from .tracing import LAYERS, PHASES
from .workloads import MODEL_COUNTS

#: End-to-end metrics every untraced repetition yields, as numbers.
#: ``bound`` is the share of the parent's median by which the metric may
#: get worse before a change is rejected; calibrated from the spread of
#: two sets of ten runs (README, "How the bounds were calibrated").
END_TO_END: List[Dict[str, object]] = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

#: The two end-to-end metrics that are not host timings.  The suite
#: prints them beside the five above; the one-workload contract run
#: carries them as ``failed``/``attempted`` and as a per-layer row,
#: because its end-to-end rows must be non-zero numbers on every workload.
PAPER_ERR = {"name": "paper_err_pct", "unit": "%", "better": "lower"}
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def _row(name: str, unit: str, better: str = "lower") -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER: List[Dict[str, str]] = (
    [_row(f"{layer}.calls", "count") for layer in LAYERS]
    + [_row(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        _row("profile.coverage", "ratio", "higher"),
        _row("profile_overhead_x", "ratio"),
        _row("trace_overhead_x", "ratio"),
        _row("host.gc_s", "s"),
        _row("host.gc_gen2", "count"),
        _row("host.gc_share", "ratio"),
    ]
    + [_row(f"phase.{phase}_s", "s") for phase in PHASES]
    + [
        _row("phase.residual_s", "s"),
        _row("fleet.barriers", "count"),
        _row("fleet.handoffs", "count"),
        _row("fleet.handoff_bytes", "bytes"),
        _row("fleet.critical_path_s", "s"),
        _row("fleet.worker_cpu_s", "s"),
        _row("fleet.stall_s", "s"),
        _row("fleet.shard_imbalance", "ratio"),
        _row("fleet.overhead_s", "s"),
        _row("fleet.overhead_per_barrier_us", "us"),
        _row("fleet.fixed_cost_s", "s"),
        _row("fleet.slowdown_x", "ratio"),
        _row("wire.encode_us_per_handoff", "us"),
        _row("wire.decode_us_per_handoff", "us"),
        _row("wire.bytes_per_handoff", "bytes"),
        _row("shard.snapshot_s", "s"),
        _row("shard.restore_s", "s"),
        _row("shard.snapshot_bytes", "bytes"),
        _row("kernel.dispatch_ns", "ns"),
        _row("kernel.repeating_ns", "ns"),
    ]
    # Model counts have no better direction: a host-only change must not
    # move them at all.  "higher" reads as "work done".
    + [_row(name, "count", "higher") for name in MODEL_COUNTS]
    + [dict(PAPER_ERR)]
)

#: Per-layer rows that repeat exactly from run to run; ``--compare``
#: checks them for equality instead of against a bound.
EXACT = frozenset(
    [f"{layer}.calls" for layer in LAYERS]
    + list(MODEL_COUNTS)
    + ["fleet.barriers", "fleet.handoffs", "host.gc_gen2", PAPER_ERR["name"]]
)

UNITS: Dict[str, str] = {
    str(row["name"]): str(row["unit"])
    for row in (*END_TO_END, *PER_LAYER, FAILED_SHARE)
}
