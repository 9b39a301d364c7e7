"""Discrete-event simulation substrate (kernel, randomness, metrics, spans, traces)."""

from .kernel import DAY, HOUR, MINUTE, SECOND, Kernel, SimulationError
from .randomness import RandomStreams, derive_seed
from .trace import Interval, IntervalTrack, TimeSeries

__all__ = [
    "DAY",
    "HOUR",
    "MINUTE",
    "SECOND",
    "Kernel",
    "SimulationError",
    "RandomStreams",
    "derive_seed",
    "Interval",
    "IntervalTrack",
    "TimeSeries",
]
