"""The accelerometer sensor (publishes on ``accel``).

Context-aware middleware the paper compares against (Jigsaw, Mobicon)
ships accelerometer classifiers; Pogo instead exposes the raw windows and
lets scripts do their own processing.  The simulated signal is driven by
the user's current activity (still while dwelling, walking while
travelling), which is enough for an activity-detection example script to
produce meaningful output.

Messages carry summary features per sampling window::

    {"timestamp": ..., "mean": <g>, "std": <g>, "peak": <g>}
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..sim.kernel import SECOND
from ..sim.randomness import as_random
from .base import Sensor

ACTIVITY_STILL = "still"
ACTIVITY_WALKING = "walking"
ACTIVITY_VEHICLE = "vehicle"

#: (mean, std, peak) of acceleration magnitude in g per activity.
_PROFILES = {
    ACTIVITY_STILL: (1.00, 0.015, 1.05),
    ACTIVITY_WALKING: (1.05, 0.35, 2.2),
    ACTIVITY_VEHICLE: (1.02, 0.12, 1.5),
}


class AccelerometerSensor(Sensor):
    """Publishes per-window acceleration features."""

    channel = "accel"
    default_interval_ms = 5 * SECOND
    active_power_w = 0.015

    __slots__ = ("activity_source", "_rng", "_stream")

    def __init__(self, phone, rng=None, stream: str = "accel") -> None:
        """``rng`` is a seeded ``random.Random``, or a
        :class:`~repro.sim.randomness.RandomStreams` whose ``stream`` is
        looked up at each draw — so a sensor nobody subscribes to never
        seeds one.  ``None`` means no jitter."""
        super().__init__(phone)
        #: Installed by the harness: () -> one of the ACTIVITY_* strings.
        self.activity_source: Optional[Callable[[], str]] = None
        self._rng = rng
        self._stream = stream

    def on_enabled(self) -> None:
        self.phone.rail.set_draw("accel", self.active_power_w)

    def on_disabled(self) -> None:
        self.phone.rail.set_draw("accel", 0.0)

    def sample(self) -> None:
        if not self.phone.alive:
            return
        activity = ACTIVITY_STILL
        if self.activity_source is not None:
            activity = self.activity_source()
        mean, std, peak = _PROFILES.get(activity, _PROFILES[ACTIVITY_STILL])
        jitter = 0.0
        if self._rng is not None:
            jitter = as_random(self._rng, self._stream).gauss(0.0, 0.01)
        self.publish(
            {
                "mean": round(mean + jitter, 4),
                "std": round(max(0.0, std + jitter), 4),
                "peak": round(peak + 2 * jitter, 4),
            }
        )
