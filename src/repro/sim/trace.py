"""Activity intervals and sampled time series for the paper's figures.

The device models keep no history of their own: they announce facts
through their listener lists (``Cpu.on_wake``/``on_sleep``,
``Modem.on_state_change``, …), and a reader that wants a record attaches
one.  Two recorders cover what the evaluation plots:

* :class:`IntervalTrack` — open/close activity blocks (CPU awake, e-mail
  app active, radio active).  Figure 4 is three of these stacked.
* :class:`TimeSeries` — (time, value) samples, e.g. the rail power sampled
  by the simulated power meter for Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed activity block ``[start, end]`` with an optional label."""

    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one instant."""
        return self.start <= other.end and other.start <= self.end


class IntervalTrack:
    """Records open/close activity blocks for one component.

    Used to reconstruct Figure 4: the CPU, e-mail app and Pogo each own a
    track; the figure's claim is that every Pogo block overlaps an e-mail
    block (Pogo never transmits on its own).
    """

    __slots__ = ("name", "_clock", "intervals", "_open_start", "_open_label")

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self._clock = clock
        self.intervals: List[Interval] = []
        self._open_start: Optional[float] = None
        self._open_label: str = ""

    def open(self, label: str = "") -> None:
        """Start a block now.  Re-opening an open block is a no-op."""
        if self._open_start is None:
            self._open_start = self._clock()
            self._open_label = label

    def close(self) -> Optional[Interval]:
        """End the current block now and return it (``None`` if none open)."""
        if self._open_start is None:
            return None
        interval = Interval(self._open_start, self._clock(), self._open_label)
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

    def total_duration(self) -> float:
        """Summed duration of the closed blocks."""
        return sum(interval.duration for interval in self.intervals)


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
