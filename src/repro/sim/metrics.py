"""A lightweight metrics plane for the simulation kernel.

The evaluation (Tables 3/4) hinges on cheap per-message accounting, and
the ROADMAP's fleet-scale goal needs the hot path observable without
slowing it down.  This module provides the one registry every report of
a run's counts reads, hanging off ``kernel.metrics`` so a simulation's
numbers never leak into another's (the determinism rule: no
process-global state).  It reports two kinds of value:

* **Counters and histograms** for facts nothing else keeps (bytes the
  switchboard delivered, chaos fates, batch sizes, hop latencies).
  Components pre-bind them at construction, so the hot path never does
  a dict lookup.
* **Attached components** (:meth:`MetricsRegistry.attach`) for facts a
  model attribute already counts: the attribute is the one count, and
  the registry reads it when a snapshot is taken.  The hot path pays
  nothing for them.

Each scalar name is either a count or a gauge (:data:`GAUGES`); the
fleet totals and the Prometheus ``# TYPE`` line read that one set.
``snapshot()`` sorts by metric name, so two identical simulations
render byte-identical reports (:func:`render_report`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

#: The scalar names that are not additive: each says something about
#: the shard's own heap or ring, so K shards do not sum to the solo
#: run's value.  Every other scalar is a count of things that happened,
#: each on exactly one shard, and the shards' counts add up to the solo
#: run's (the fleet totals line, :func:`additive`).
GAUGES = frozenset({
    "kernel.compactions", "kernel.pending_events", "kernel.tombstones",
    "spans.dropped",
})


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Value distribution summarised as count/sum/min/max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class NullCounter(Counter):
    """Disabled counter: ``inc`` is a bare return.

    ``MetricsRegistry.disable()`` retargets every live counter to this
    class (identical slot layout, so ``__class__`` assignment is legal)
    rather than inserting a flag branch into every increment — the
    pre-bound counter objects components hold stay valid, and the
    disabled hot path pays one no-op method dispatch.
    """

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class NullHistogram(Histogram):
    """Disabled histogram: ``observe`` is a bare return."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


class MetricsRegistry:
    """Create-or-get registry of counters and histograms, plus the
    components whose own attributes it reads."""

    def __init__(self) -> None:
        self.enabled = True
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Attached components by class, in attach order.
        self._components: Dict[type, List[Any]] = {}

    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Kill switch: every counter/histogram becomes a true no-op.

        Values accumulated so far stay readable (snapshots report the
        frozen state); only further increments are dropped.  Attached
        components are still read: their counts cost nothing to keep.
        """
        self.enabled = False
        for counter in self._counters.values():
            counter.__class__ = NullCounter
        for histogram in self._histograms.values():
            histogram.__class__ = NullHistogram

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            cls = Counter if self.enabled else NullCounter
            counter = self._counters[name] = cls(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            cls = Histogram if self.enabled else NullHistogram
            histogram = self._histograms[name] = cls(name)
        return histogram

    def attach(self, component: Any) -> None:
        """Report what ``component`` already counts.

        Its class's ``METRICS`` maps registry names to attribute paths
        (``"stanzas_routed"``, ``"sim.server.restarts"``); a snapshot
        reads each path on every attached component of the class and
        sums.  Nothing is read before that, so the component's hot path
        keeps one count per fact.
        """
        self._components.setdefault(type(component), []).append(component)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All current values, keyed by metric name: the scalars sorted,
        then the histograms sorted."""
        scalars = {name: counter.value for name, counter in self._counters.items()}
        for cls, components in self._components.items():
            for name, path in cls.METRICS.items():
                scalars[name] = scalars.get(name, 0) + sum(map(attrgetter(path), components))
        out: Dict[str, Any] = {name: scalars[name] for name in sorted(scalars)}
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            out[name] = {
                "count": histogram.count,
                "sum": histogram.total,
                "min": histogram.min,
                "max": histogram.max,
                "mean": round(histogram.mean, 3),
            }
        return out

    def nonzero(self) -> Dict[str, Any]:
        """Snapshot restricted to metrics that have actually moved."""
        def moved(value: Any) -> bool:
            if isinstance(value, dict):
                return value.get("count", 0) > 0
            return bool(value)

        return {name: value for name, value in self.snapshot().items() if moved(value)}


def render_report(values: Dict[str, Any]) -> str:
    """The registry's text writer, for administrators: a header, then
    one line per metric of ``values`` (a snapshot, or a slice of one),
    in the order given."""
    lines = [f"{'metric':<32} {'value':>14}"]
    for name, value in values.items():
        if isinstance(value, dict):
            lines.append(
                f"{name:<32} {value['count']:>14,}  "
                f"(sum={value['sum']:,.0f} mean={value['mean']:,.1f} "
                f"min={value['min'] if value['min'] is not None else '-'} "
                f"max={value['max'] if value['max'] is not None else '-'})"
            )
        elif isinstance(value, float) and not value.is_integer():
            lines.append(f"{name:<32} {value:>14,.3f}")
        else:
            lines.append(f"{name:<32} {int(value):>14,}")
    return "\n".join(lines)


def additive(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """The slice of ``snapshot`` that K shards sum to the solo run's:
    every count, and each histogram's count as ``<name>.count``.

    Left out: the :data:`GAUGES`, and a histogram's sum, min and max —
    min and max are not counts, and a sum of float latencies depends on
    the order it was added in.
    """
    out: Dict[str, int] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            out[name + ".count"] = value["count"]
        elif name not in GAUGES:
            out[name] = value
    return out


def merge_metrics(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard :meth:`MetricsRegistry.snapshot` dicts (or
    slices of them), sorted by name.

    Scalars sum — a gauge too: the fleet's pending events are its
    shards' — and histograms combine count/sum/min/max with the mean
    recomputed from the merged totals.
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):
                slot = merged.setdefault(
                    name, {"count": 0, "sum": 0.0, "min": None, "max": None}
                )
                slot["count"] += value["count"]
                slot["sum"] += value["sum"]
                for key, pick in (("min", min), ("max", max)):
                    if value[key] is not None:
                        slot[key] = (
                            value[key]
                            if slot[key] is None
                            else pick(slot[key], value[key])
                        )
            else:
                merged[name] = merged.get(name, 0) + value
    for value in merged.values():
        if isinstance(value, dict):
            value["mean"] = (
                round(value["sum"] / value["count"], 3) if value["count"] else 0.0
            )
    return {name: merged[name] for name in sorted(merged)}
