"""The microphone sensor (publishes on ``audio``).

Community sensing — the application class the paper's introduction cites
(Campbell et al.'s people-centric urban sensing, Krause et al.'s
community sensing) — classically means noise mapping: phones sample
ambient sound levels as their owners move through the city.

The sensor publishes A-weighted level summaries per sampling window::

    {"timestamp": ..., "db": <dBA>, "peak_db": <dBA>}

Levels come from the world model via :attr:`level_source` (ambient dBA at
the user's current context); the sensor adds microphone self-noise and
clips to a phone-microphone range.  Like every Pogo sensor it runs only
while subscribed — and it is the obvious candidate for a privacy block,
which the tests exercise.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.kernel import SECOND
from ..sim.randomness import as_random
from .base import Sensor

#: Plausible ambient levels by mobility/place context, dBA.
AMBIENT_DB = {
    "home": 42.0,
    "office": 55.0,
    "cafe": 65.0,
    "restaurant": 68.0,
    "gym": 70.0,
    "supermarket": 60.0,
    "friend": 50.0,
    "generic": 52.0,
    "foreign": 58.0,
    "street": 72.0,
}


def ambient_db_for(place_category: Optional[str]) -> float:
    """Ambient level for a place category (``None`` = travelling)."""
    if place_category is None:
        return AMBIENT_DB["street"]
    return AMBIENT_DB.get(place_category, AMBIENT_DB["generic"])


class MicrophoneSensor(Sensor):
    """Samples ambient sound pressure levels."""

    channel = "audio"
    default_interval_ms = 30 * SECOND
    active_power_w = 0.045
    #: Phone microphones bottom out around their self-noise floor and
    #: clip well below professional meters.
    floor_db = 30.0
    ceiling_db = 95.0

    __slots__ = ("level_source", "_rng", "_stream")

    def __init__(self, phone, rng=None, stream: str = "microphone") -> None:
        """``rng`` is a seeded ``random.Random``, or a
        :class:`~repro.sim.randomness.RandomStreams` whose ``stream`` is
        looked up at each draw — so a sensor nobody subscribes to never
        seeds one.  ``None`` means no self-noise."""
        super().__init__(phone)
        #: Installed by the harness: () -> ambient dBA at the user's
        #: position (e.g. via :func:`ambient_db_for`).
        self.level_source: Optional[Callable[[], float]] = None
        self._rng = rng
        self._stream = stream

    def on_enabled(self) -> None:
        self.phone.rail.set_draw("microphone", self.active_power_w)

    def on_disabled(self) -> None:
        self.phone.rail.set_draw("microphone", 0.0)

    def sample(self) -> None:
        if not self.phone.alive:
            return
        ambient = self.level_source() if self.level_source is not None else 40.0
        noise = 0.0
        if self._rng is not None:
            noise = as_random(self._rng, self._stream).gauss(0.0, 2.5)
        level = max(self.floor_db, min(self.ceiling_db, ambient + noise))
        peak = max(self.floor_db, min(self.ceiling_db, level + abs(noise) + 4.0))
        self.publish({"db": round(level, 1), "peak_db": round(peak, 1)})
