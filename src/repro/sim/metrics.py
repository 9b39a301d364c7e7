"""A lightweight metrics plane for the simulation kernel.

The evaluation (Tables 3/4) hinges on cheap per-message accounting, and
the ROADMAP's fleet-scale goal needs the hot path observable without
slowing it down.  This module provides process-local counters,
histograms and pull-gauges that the broker, buffer, transport, tail-sync
and script watchdog increment, all hanging off ``kernel.metrics`` so a
simulation's numbers never leak into another's (the determinism rule:
no process-global state).

Design constraints:

* **Cheap increments.**  ``Counter.inc`` is one attribute add;
  components pre-bind the counter object at construction so the hot path
  never does a dict lookup.
* **Deterministic reports.**  ``snapshot()``/``report()`` sort by metric
  name, so two identical simulations render byte-identical reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


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
    """Create-or-get registry of counters, histograms and gauges."""

    def __init__(self) -> None:
        self.enabled = True
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Kill switch: every counter/histogram becomes a true no-op.

        Values accumulated so far stay readable (snapshots report the
        frozen state); only further increments are dropped.
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

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a pull-gauge: sampled only at snapshot time, so the
        producer's hot loop (e.g. the kernel's event loop) pays nothing."""
        self._gauges[name] = fn

    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, int]:
        """Counter values only, sorted by name.

        This is the *additive* slice of the plane: counters partition
        exactly across fleet shards (each increment happens on exactly
        one shard), so the telemetry timeline sums them into fleet
        totals that match the solo run.  Gauges (heap depth, tombstone
        count) and histograms are deliberately excluded — deterministic,
        but not meaningfully summable.
        """
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def snapshot(self) -> Dict[str, Any]:
        """All current values, keyed by metric name, sorted."""
        out: Dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name]()
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

    def report(self, include_zero: bool = False) -> str:
        """Administrator-facing text report (deterministic ordering)."""
        lines = [f"{'metric':<32} {'value':>14}"]
        values = self.snapshot() if include_zero else self.nonzero()
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
