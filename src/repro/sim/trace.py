"""Trace recording: events, activity intervals and sampled time series.

Three recorders cover everything the evaluation plots or tabulates:

* :class:`TraceRecorder` — a flat, queryable log of
  ``(time, source, kind, data)`` events.  Used for protocol-level
  assertions in tests ("the device reconnected after the interface
  switch") and to extract Figure 4's timeline.
* :class:`IntervalTrack` — open/close activity blocks (CPU awake, e-mail
  app active, Pogo active).  Figure 4 is three of these stacked.
* :class:`TimeSeries` — (time, value) samples, e.g. the rail power sampled
  by the simulated power meter for Figure 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    source: str
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only event log with simple filtering.

    With ``max_events`` set the log becomes a bounded ring: the most
    recent ``max_events`` events are kept, older ones are evicted and
    counted in :attr:`dropped` — so week-long simulations with tracing on
    cannot grow memory without limit.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        self._clock = clock
        self.max_events = max_events
        self.events = deque(maxlen=max_events) if max_events is not None else []
        self.enabled = True
        #: Events ever recorded, including those since evicted.
        self.recorded = 0

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far (0 in unbounded mode)."""
        return self.recorded - len(self.events)

    def record(self, source: str, kind: str, time: Optional[float] = None, **data: Any) -> None:
        """Record an event.  ``time`` defaults to the attached clock."""
        if not self.enabled:
            return
        if time is None:
            if self._clock is None:
                raise ValueError("no clock attached and no explicit time given")
            time = self._clock()
        self.recorded += 1
        self.events.append(TraceEvent(time, source, kind, data))

    def filter(self, source: Optional[str] = None, kind: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given source and/or kind."""
        return [
            event
            for event in self.events
            if (source is None or event.source == source)
            and (kind is None or event.kind == kind)
        ]

    def count(self, source: Optional[str] = None, kind: Optional[str] = None) -> int:
        return len(self.filter(source, kind))

    def last(self, source: Optional[str] = None, kind: Optional[str] = None) -> Optional[TraceEvent]:
        matches = self.filter(source, kind)
        return matches[-1] if matches else None

    def clear(self) -> None:
        self.events.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed activity block ``[start, end]`` with an optional label."""

    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval", slack: float = 0.0) -> bool:
        """Whether the two intervals overlap, allowing ``slack`` ms of gap."""
        return self.start <= other.end + slack and other.start <= self.end + slack


class IntervalTrack:
    """Records open/close activity blocks for one component.

    Used to reconstruct Figure 4: the CPU, e-mail app and Pogo each own a
    track; the figure's claim is that every Pogo block overlaps an e-mail
    block (Pogo never transmits on its own).
    """

    __slots__ = ("name", "_clock", "intervals", "_open_start", "_open_label")

    def __init__(self, name: str, clock: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._clock = clock
        self.intervals: List[Interval] = []
        self._open_start: Optional[float] = None
        self._open_label: str = ""

    def _time(self, time: Optional[float]) -> float:
        if time is not None:
            return time
        if self._clock is None:
            raise ValueError("no clock attached and no explicit time given")
        return self._clock()

    def open(self, time: Optional[float] = None, label: str = "") -> None:
        """Start a block.  Re-opening an open block is a no-op."""
        if self._open_start is None:
            self._open_start = self._time(time)
            self._open_label = label

    def close(self, time: Optional[float] = None) -> Optional[Interval]:
        """End the current block and return it (``None`` if none open)."""
        if self._open_start is None:
            return None
        interval = Interval(self._open_start, self._time(time), self._open_label)
        self.intervals.append(interval)
        self._open_start = None
        self._open_label = ""
        return interval

    @property
    def is_open(self) -> bool:
        return self._open_start is not None

    def closed_intervals(self, until: Optional[float] = None) -> List[Interval]:
        """All intervals, force-closing any open block at ``until``."""
        result = list(self.intervals)
        if self._open_start is not None and until is not None:
            result.append(Interval(self._open_start, until, self._open_label))
        return result

    def total_duration(self, until: Optional[float] = None) -> float:
        return sum(interval.duration for interval in self.closed_intervals(until))


class TimeSeries:
    """(time, value) samples with integration and resampling helpers."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("TimeSeries samples must be appended in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def integrate(self) -> float:
        """Trapezoidal integral of value over time.

        For a power series in watts with time in milliseconds this returns
        millijoule-seconds; callers convert units (see
        :mod:`repro.analysis.energy`).
        """
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += 0.5 * (self.values[i] + self.values[i - 1]) * dt
        return total

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t <= end``."""
        out = TimeSeries(self.name)
        for t, v in self:
            if start <= t <= end:
                out.append(t, v)
        return out

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0
