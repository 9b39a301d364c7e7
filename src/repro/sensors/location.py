"""The location sensor (publishes on ``locations``).

Section 4.3's parameterized-subscription example: "a script may request
location updates, but only from the GPS sensor.  It can do this by
subscribing to the locations channel using the ``provider: 'GPS'``
parameter."

Two providers are modelled:

* ``gps`` — accurate (≈5 m), slow to fix (several seconds holding a wake
  lock) and power-hungry while enabled;
* ``network`` — coarse (≈60 m) and cheap (cell/Wi-Fi lookup).

If any active subscription requests GPS, the GPS radio runs; otherwise
the cheap provider serves everyone — the same highest-common-demand rule
sensors apply to sampling intervals.
"""

from __future__ import annotations

from typing import Optional

from ..sim.kernel import MINUTE, SECOND
from ..world.geometry import Point, to_latlon
from .base import Sensor

PROVIDER_GPS = "gps"
PROVIDER_NETWORK = "network"

WAKE_LOCK_TAG = "location-fix"


class LocationSensor(Sensor):
    """Publishes position fixes from the world model."""

    channel = "locations"
    default_interval_ms = 2 * MINUTE

    #: Power draw of the GPS receiver while the sensor is enabled in GPS
    #: mode, and the time to acquire one fix.
    gps_power_w = 0.35
    gps_fix_ms = 6 * SECOND
    gps_accuracy_m = 5.0
    network_accuracy_m = 60.0

    __slots__ = ("position_source", "provider", "fix_count")

    def __init__(self, phone) -> None:
        super().__init__(phone)
        #: Installed by the harness: () -> Point with the user's position.
        self.position_source = None
        self.provider = PROVIDER_NETWORK
        self.fix_count = 0

    # ------------------------------------------------------------------
    def reevaluate(self) -> None:
        super().reevaluate()
        if self.manager is None or not self.enabled:
            return
        subscriptions = self.manager.subscriptions(self.channel)
        wanted = self._wanted_provider(subscriptions)
        if wanted != self.provider:
            self.provider = wanted
            self._apply_provider_power()

    @staticmethod
    def _wanted_provider(subscriptions) -> str:
        providers = {
            str(s.parameter("provider", PROVIDER_NETWORK)).lower()
            for s in subscriptions
        }
        return PROVIDER_GPS if PROVIDER_GPS in providers else PROVIDER_NETWORK

    def on_enabled(self) -> None:
        self._apply_provider_power()

    def on_disabled(self) -> None:
        self.phone.rail.set_draw("gps", 0.0)
        self.provider = PROVIDER_NETWORK

    def _apply_provider_power(self) -> None:
        draw = self.gps_power_w if self.provider == PROVIDER_GPS else 0.0
        self.phone.rail.set_draw("gps", draw)

    # ------------------------------------------------------------------
    def sample(self) -> None:
        if not self.phone.alive or self.position_source is None:
            return
        if self.provider == PROVIDER_GPS:
            self.phone.cpu.acquire_wake_lock(WAKE_LOCK_TAG)
            self.phone.kernel.schedule(self.gps_fix_ms, self._gps_fix_done)
        else:
            self._publish_fix(self.network_accuracy_m, PROVIDER_NETWORK)

    def _gps_fix_done(self) -> None:
        try:
            if self.enabled and self.phone.alive:
                self._publish_fix(self.gps_accuracy_m, PROVIDER_GPS)
        finally:
            self.phone.cpu.release_wake_lock(WAKE_LOCK_TAG)

    def _publish_fix(self, accuracy_m: float, provider: str) -> None:
        position: Optional[Point] = self.position_source()
        if position is None:
            return
        lat, lon = to_latlon(position)
        self.fix_count += 1
        self.publish(
            {
                "lat": round(lat, 6),
                "lon": round(lon, 6),
                "accuracy": accuracy_m,
                "provider": provider,
            }
        )
