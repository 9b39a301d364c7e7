"""The battery sensor (publishes on ``battery``).

The Table 3 workload: "it was sampling the battery sensor every minute.
Because of the synchronization mechanism these values were reported in
batches of five whenever the e-mail application checked for updates."

Reading the battery is nearly free (a sysfs read on real Android); the
cost of this sensor is entirely the CPU wakeups its sampling alarm
causes, which is exactly the overhead Table 3 measures.
"""

from __future__ import annotations

from ..sim.kernel import MINUTE
from .base import Sensor


class BatterySensor(Sensor):
    """Publishes voltage / state-of-charge readings."""

    channel = "battery"
    default_interval_ms = 1 * MINUTE

    __slots__ = ()

    def sample(self) -> None:
        if not self.phone.alive:
            return
        self.publish(self.phone.battery.reading())
