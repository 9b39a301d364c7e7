"""The world: users, their places, scan generation and connectivity.

This module ties the static environment (places, APs), the mobility
timelines and the phones together.  For each simulated user it provides:

* ``scan()`` — the access-point readings visible at the user's current
  position, fed to the phone's Wi-Fi scanner (``wifi.scan_source``);
* ``position()`` — ground-truth position for the location sensor;
* connectivity driving — Wi-Fi association at home/office, handled at
  timeline segment boundaries, which produces exactly the interface
  switching Section 4.6 describes.

The scan output format matches what the Android API gives the real Pogo:
a list of ``{"bssid", "ssid", "rssi"}`` dicts with RSSI in dBm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..sim.kernel import Kernel
from ..sim.randomness import RandomStreams
from .geometry import Point
from .mobility import DWELL, TRAVEL, Segment, Timeline, TimelineBuilder, UserProfile
from .places import Place, PlaceFactory
from .rssi import PropagationModel


@dataclass
class ScanReading:
    """One row of a Wi-Fi scan result, as the OS reports it."""

    bssid: str
    ssid: str
    rssi_dbm: float

    def to_message(self) -> Dict[str, Any]:
        return {"bssid": self.bssid, "ssid": self.ssid, "rssi": round(self.rssi_dbm, 1)}


class UserWorld:
    """One user's environment: places, timeline, scan generation."""

    def __init__(
        self,
        name: str,
        places: Dict[str, List[Place]],
        timeline: Timeline,
        propagation: PropagationModel,
        rng: random.Random,
        factory: PlaceFactory,
    ) -> None:
        self.name = name
        self.places = places
        self.timeline = timeline
        self.propagation = propagation
        self._rng = rng
        self._factory = factory
        self._all_places: List[Place] = [p for group in places.values() for p in group]
        self._max_range = propagation.max_range_m()
        #: Ground-truth dwell log, used by Table 4's match scoring.
        self.phone = None  # attached by the experiment harness

    # ------------------------------------------------------------------
    def segment(self, time_ms: float) -> Segment:
        return self.timeline.segment_at(time_ms)

    def position(self, time_ms: float) -> Point:
        """User position with per-query wander jitter."""
        segment = self.timeline.segment_at(time_ms)
        nominal = segment.position_at(time_ms)
        if segment.kind == DWELL and segment.place is not None:
            sigma = segment.place.radius / 2.5
            return nominal.offset(self._rng.gauss(0.0, sigma), self._rng.gauss(0.0, sigma))
        return nominal

    def current_place(self, time_ms: float) -> Optional[Place]:
        return self.timeline.place_at(time_ms)

    # ------------------------------------------------------------------
    def scan(self, time_ms: float) -> List[ScanReading]:
        """Generate one Wi-Fi scan at the user's current position."""
        segment = self.timeline.segment_at(time_ms)
        position = self.position(time_ms)
        readings: List[ScanReading] = []
        for place in self._all_places:
            # Cheap rejection by place center before per-AP sampling.
            if position.distance_to(place.center) > self._max_range + 4 * place.radius:
                continue
            for ap in place.access_points:
                rssi = self.propagation.sample_rssi(
                    position.distance_to(ap.position), self._rng
                )
                if rssi is not None:
                    readings.append(ScanReading(ap.bssid, ap.ssid, rssi))
        if segment.kind == TRAVEL:
            # Transient street APs: visible once, never again — the noise
            # the clustering algorithm's core-object rule must reject.
            for _ in range(self._rng.randint(0, 3)):
                ap = self._factory.make_street_ap(position)
                rssi = self.propagation.sample_rssi(
                    position.distance_to(ap.position), self._rng
                )
                if rssi is not None:
                    readings.append(ScanReading(ap.bssid, ap.ssid, rssi))
        readings.sort(key=lambda r: r.rssi_dbm, reverse=True)
        return readings

    # ------------------------------------------------------------------
    def wifi_internet_available(self, time_ms: float) -> bool:
        """Whether the user is somewhere with a known Wi-Fi network."""
        place = self.current_place(time_ms)
        return bool(place is not None and place.has_wifi_internet)


#: Standard per-user place mix for deployment-style experiments.
DEFAULT_PLACE_MIX = (
    ("home", "home", 1),
    ("office", "office", 1),
    ("cafe", "cafe", 2),
    ("restaurant", "restaurant", 2),
    ("gym", "gym", 1),
    ("supermarket", "supermarket", 1),
    ("friend", "friend", 2),
    ("generic", "generic", 3),
)


def build_user_world(
    name: str,
    streams: RandomStreams,
    days: int,
    profile: Optional[UserProfile] = None,
    propagation: Optional[PropagationModel] = None,
    place_mix: Sequence = DEFAULT_PLACE_MIX,
    city_extent_m: float = 6000.0,
) -> UserWorld:
    """Generate a complete, deterministic world for one user."""
    profile = profile or UserProfile(name=name)
    propagation = propagation or PropagationModel()
    place_rng = streams.stream(f"world/{name}/places")
    factory = PlaceFactory(place_rng)

    places: Dict[str, List[Place]] = {}
    for category, place_category, count in place_mix:
        group: List[Place] = []
        for i in range(count):
            center = Point(
                place_rng.uniform(-city_extent_m, city_extent_m),
                place_rng.uniform(-city_extent_m, city_extent_m),
            )
            group.append(
                factory.make_place(f"{name}/{category}{i}", center, category=place_category)
            )
        places[category] = group

    timeline_rng = streams.stream(f"world/{name}/timeline")
    timeline = TimelineBuilder(profile, places, timeline_rng).build(days)
    scan_rng = streams.stream(f"world/{name}/scans")
    return UserWorld(name, places, timeline, propagation, scan_rng, factory)


class ChargingRoutine:
    """Nightly charging behaviour: plug in at night, unplug in the morning.

    Drives the battery's charger events, which the charger-delay
    transmission policy (and SystemSens/LiveLab-style loggers) key off.
    """

    def __init__(
        self,
        kernel: Kernel,
        phone,
        rng: random.Random,
        days: int,
        plug_hour: float = 22.8,
        unplug_hour: float = 7.2,
        jitter_h: float = 0.7,
    ) -> None:
        self.kernel = kernel
        self.phone = phone
        self._rng = rng
        self.days = days
        self.plug_hour = plug_hour
        self.unplug_hour = unplug_hour
        self.jitter_h = jitter_h

    def start(self) -> None:
        from ..sim.kernel import DAY, HOUR

        for day in range(self.days):
            plug = (day + 0) * DAY + (self.plug_hour + self._rng.gauss(0.0, self.jitter_h)) * HOUR
            unplug = (day + 1) * DAY + (self.unplug_hour + self._rng.gauss(0.0, self.jitter_h)) * HOUR
            if plug > self.kernel.now:
                self.kernel.schedule_at(plug, self.phone.battery.set_charging, True)
            if unplug > self.kernel.now:
                self.kernel.schedule_at(unplug, self.phone.battery.set_charging, False)


class ConnectivityDriver:
    """Applies the world's connectivity to a phone as the user moves.

    At every timeline boundary the phone's Wi-Fi association is updated:
    connected at places with a known network (home/office), otherwise
    disconnected.  This generates the interface switches Pogo's transport
    must survive (Section 4.6).
    """

    def __init__(self, kernel: Kernel, user_world: UserWorld, phone) -> None:
        self.kernel = kernel
        self.user_world = user_world
        self.phone = phone
        self._applied = 0

    def start(self) -> None:
        self._apply(self.kernel.now)
        for boundary in self.user_world.timeline.boundaries():
            if boundary > self.kernel.now:
                self.kernel.schedule_at(boundary + 1.0, self._apply, boundary + 1.0)

    def _apply(self, time_ms: float) -> None:
        self._applied += 1
        self.phone.set_wifi_connected(self.user_world.wifi_internet_available(time_ms))
