"""Discrete-event simulation substrate (kernel, randomness, metrics, spans, traces)."""

from .kernel import DAY, HOUR, MINUTE, SECOND, EventHandle, Kernel, SimulationError
from .metrics import Counter, Histogram, MetricsRegistry
from .randomness import RandomStreams, as_random, derive_seed
from .spans import HopHandle, Span, SpanRecorder
from .trace import Interval, IntervalTrack, TimeSeries

__all__ = [
    "DAY",
    "HOUR",
    "MINUTE",
    "SECOND",
    "EventHandle",
    "Kernel",
    "SimulationError",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RandomStreams",
    "as_random",
    "derive_seed",
    "HopHandle",
    "Span",
    "SpanRecorder",
    "Interval",
    "IntervalTrack",
    "TimeSeries",
]
