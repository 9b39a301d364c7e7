"""The fleet timeline: per-shard snapshots → canonical time-series.

The coordinator appends one *frame* per epoch barrier: every shard's
telemetry sample for the window just closed, plus the barrier-level
facts only the coordinator knows (handoffs exchanged, remaining backlog,
window wall time).  The timeline then answers four questions:

* **What happened, when?**  :func:`timeline_to_jsonl` renders the whole
  run as JSON Lines — one ``sample`` line per (barrier, shard), one
  ``barrier`` line per window, one closing ``totals`` line.  In
  deterministic mode (the default) every wall-clock field is stripped
  and the remaining stream is a pure function of the seed: two same-seed
  runs export byte-identical files, and CI ``cmp``s them.
* **Do the shards add up?**  :func:`aggregate_totals` merges the
  additive slice of the final frame's registry snapshots.  Because every
  count partitions across shards (the merge module's argument), the
  4-shard totals must equal the solo run's totals exactly — the
  telemetry plane inherits the coordinator's correctness claim instead
  of weakening it.
* **Is anyone slow or stalled?**  :func:`fleet_health` reads the
  wall-clock sections: per-shard CPU share, barrier imbalance (busiest
  vs mean), pipe-stall totals.  :func:`render_health` is the one-line
  verdict the ``repro fleet`` report prints.
* **What does the scraper see?**  :mod:`repro.obs.prometheus` renders
  the final frame as text exposition.

Only counts go into totals: the registry's counts (events, stanzas,
spans, every counter, each histogram's count) and integer microjoule
energy.  Gauges (:data:`repro.sim.metrics.GAUGES`: heap depth,
tombstones, compactions, evicted spans) and histogram sums stay
per-shard in the samples — deterministic, but not conserved across a
partition.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..sim.metrics import additive, merge_metrics

#: Timeline schema identifier, stamped on every totals line.
SCHEMA = "fleet_timeline/2"


class TimelineError(ValueError):
    """A timeline that cannot be exported or aggregated consistently."""


class FleetTimeline:
    """Frames appended by the coordinator, one per epoch barrier."""

    def __init__(self, fleet_id: str, devices: int, shards: int) -> None:
        self.fleet_id = fleet_id
        self.devices = devices
        self.shards = shards
        self.frames: List[Dict[str, Any]] = []

    def append(
        self,
        epoch: int,
        barrier_ms: float,
        samples: List[Optional[Dict[str, Any]]],
        handoffs: int,
        backlog: int,
        window_wall_s: float,
    ) -> Dict[str, Any]:
        """Record one barrier; returns the frame (the live view reads it)."""
        frame = {
            "epoch": epoch,
            "barrier_ms": barrier_ms,
            "samples": [sample for sample in samples if sample is not None],
            "handoffs": handoffs,
            "backlog": backlog,
            "wall": {"window_s": window_wall_s},
        }
        self.frames.append(frame)
        return frame

    def last_samples(self) -> List[Dict[str, Any]]:
        """The final frame's per-shard samples (sorted by shard id)."""
        if not self.frames:
            return []
        return sorted(
            self.frames[-1]["samples"], key=lambda sample: sample["shard"]
        )

    def totals(self) -> Dict[str, Any]:
        return aggregate_totals(self)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate_totals(timeline) -> Dict[str, Any]:
    """Additive fleet totals at the final barrier.

    Accepts a :class:`FleetTimeline` or an iterable of sample dicts (the
    final frame's).  ``metrics`` merges the additive slice of each
    shard's registry snapshot (:func:`repro.sim.metrics.additive`: every
    count, no gauge), so the K-shard totals equal the solo run's — the
    CI telemetry job compares the two JSON documents directly.
    """
    if isinstance(timeline, FleetTimeline):
        samples = timeline.last_samples()
    else:
        samples = sorted(timeline, key=lambda sample: sample["shard"])
    if not samples:
        raise TimelineError("no samples to aggregate — was telemetry enabled?")
    barriers = {sample["barrier_ms"] for sample in samples}
    if len(barriers) != 1:
        raise TimelineError(
            f"samples from different barriers: {sorted(barriers)}"
        )
    return {
        "kind": "totals",
        "schema": SCHEMA,
        "barrier_ms": barriers.pop(),
        "shards": len(samples),
        "energy_uj": sum(sample["energy_uj"] for sample in samples),
        "metrics": merge_metrics([additive(sample["metrics"]) for sample in samples]),
    }


# ---------------------------------------------------------------------------
# JSONL export / import
# ---------------------------------------------------------------------------

def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def timeline_to_jsonl(timeline: FleetTimeline) -> str:
    """The canonical export: one JSON document per line.

    ``sample`` lines carry the per-shard time-series (shards sorted
    within each barrier), ``barrier`` lines the exchange facts, and the
    final ``totals`` line the additive fleet sums.  Every ``wall``
    section is dropped, leaving a byte-exact function of the seed.
    """
    lines: List[str] = []
    for frame in timeline.frames:
        for sample in sorted(frame["samples"], key=lambda s: s["shard"]):
            sample = {k: v for k, v in sample.items() if k != "wall"}
            lines.append(_dumps(sample))
        lines.append(_dumps({
            "kind": "barrier",
            "epoch": frame["epoch"],
            "barrier_ms": frame["barrier_ms"],
            "handoffs": frame["handoffs"],
            "backlog": frame["backlog"],
        }))
    if timeline.frames:
        lines.append(_dumps(timeline.totals()))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def read_timeline(source) -> List[Dict[str, Any]]:
    """Parse a JSONL export back into record dicts (path or open file)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def totals_from_jsonl(source) -> Dict[str, Any]:
    """The ``totals`` line of an exported timeline (the CI compare key)."""
    totals = [
        record for record in read_timeline(source) if record.get("kind") == "totals"
    ]
    if not totals:
        raise TimelineError("export has no totals line")
    return totals[-1]


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------

#: A shard whose CPU share exceeds the mean by this factor is "slow".
SLOW_FACTOR = 1.5
#: Imbalance (busiest/mean CPU) above this is flagged in the verdict.
IMBALANCE_FLAG = 1.25


def fleet_health(timeline: FleetTimeline) -> Dict[str, Any]:
    """Wall-clock verdict: slow shards, stalls, barrier imbalance.

    Reads only the ``wall`` sections (cumulative per-worker CPU seconds,
    pipe-stall seconds, RSS) of the final frame, plus the per-window
    wall times the coordinator recorded.  Everything here is
    machine-dependent trend data — it never feeds the deterministic
    export.
    """
    samples = timeline.last_samples()
    shards: Dict[str, Dict[str, float]] = {}
    cpu_values: List[float] = []
    for sample in samples:
        wall = sample.get("wall") or {}
        cpu = wall.get("cpu_s", 0.0)
        cpu_values.append(cpu)
        shards[sample["shard"]] = {
            "cpu_s": round(cpu, 6),
            "stall_s": round(wall.get("stall_s", 0.0), 6),
            "rss_kb": wall.get("rss_kb") or 0,
        }
    mean_cpu = sum(cpu_values) / len(cpu_values) if cpu_values else 0.0
    max_cpu = max(cpu_values) if cpu_values else 0.0
    imbalance = (max_cpu / mean_cpu) if mean_cpu > 0 else 1.0
    slow = sorted(
        shard_id
        for shard_id, entry in shards.items()
        if mean_cpu > 0 and entry["cpu_s"] > SLOW_FACTOR * mean_cpu
    )
    total_stall = sum(entry["stall_s"] for entry in shards.values())
    window_walls = [frame["wall"]["window_s"] for frame in timeline.frames]
    return {
        "shards": shards,
        "barriers": len(timeline.frames),
        "imbalance": round(imbalance, 3),
        "slow_shards": slow,
        "stall_s_total": round(total_stall, 6),
        "window_s_max": round(max(window_walls), 6) if window_walls else 0.0,
        "window_s_mean": (
            round(sum(window_walls) / len(window_walls), 6) if window_walls else 0.0
        ),
    }


def render_health(health: Dict[str, Any]) -> str:
    """The final-report verdict lines for ``repro fleet``."""
    imbalance = health["imbalance"]
    flags: List[str] = []
    if health["slow_shards"]:
        flags.append(f"slow: {', '.join(health['slow_shards'])}")
    if imbalance > IMBALANCE_FLAG:
        flags.append(f"barrier imbalance {imbalance:.2f}x")
    verdict = "; ".join(flags) if flags else "balanced"
    lines = [
        f"health: {verdict} ({health['barriers']:,} barriers, "
        f"busiest/mean CPU {imbalance:.2f}x, "
        f"stall {health['stall_s_total']:.2f} s total)"
    ]
    for shard_id in sorted(health["shards"]):
        entry = health["shards"][shard_id]
        lines.append(
            f"  {shard_id:<12} cpu {entry['cpu_s']:>8.2f} s  "
            f"stall {entry['stall_s']:>8.2f} s  rss {entry['rss_kb']:,} kB"
        )
    return "\n".join(lines)
