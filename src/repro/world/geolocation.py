"""Simulated geolocation service (the paper used Google's Gears API).

The collector-side ``collect.js`` script "uses Google's geolocation
service to convert [cluster characterizations] into a longitude, latitude
pair" (Section 4.1).  We cannot call Google, so the service is backed by
the world model's own AP registry: a weighted centroid of the known APs in
the query, like real Wi-Fi positioning systems.

The service deliberately has the real API's failure modes: unknown BSSIDs
are ignored, and a query with no known APs returns ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from .geometry import Point, to_latlon
from .places import AccessPoint


@dataclass(frozen=True)
class GeoFix:
    """A resolved position."""

    latitude: float
    longitude: float
    accuracy_m: float
    matched_aps: int


class GeolocationService:
    """BSSID-set → (lat, lon) resolver backed by an AP registry."""

    def __init__(self) -> None:
        self._registry: Dict[str, Point] = {}
        self.query_count = 0
        self.miss_count = 0

    def register(self, ap: AccessPoint) -> None:
        self._registry[ap.bssid] = ap.position

    def register_all(self, aps: Iterable[AccessPoint]) -> None:
        for ap in aps:
            self.register(ap)

    def __len__(self) -> int:
        return len(self._registry)

    def knows(self, bssid: str) -> bool:
        return bssid in self._registry

    def locate(self, observations: Mapping[str, float]) -> Optional[GeoFix]:
        """Resolve a ``{bssid: weight}`` observation to a position.

        Weights are relative signal strengths (the normalized RSSI values
        the clustering pipeline already carries); stronger APs pull the
        estimate harder.  Returns ``None`` when no BSSID is known.
        """
        self.query_count += 1
        total_weight = 0.0
        x = 0.0
        y = 0.0
        matched = 0
        for bssid, weight in observations.items():
            position = self._registry.get(bssid)
            if position is None:
                continue
            w = max(float(weight), 0.05)
            x += position.x * w
            y += position.y * w
            total_weight += w
            matched += 1
        if matched == 0:
            self.miss_count += 1
            return None
        centroid = Point(x / total_weight, y / total_weight)
        lat, lon = to_latlon(centroid)
        # Accuracy degrades with fewer matched APs, as with the real API.
        accuracy = 150.0 / matched + 20.0
        return GeoFix(latitude=lat, longitude=lon, accuracy_m=accuracy, matched_aps=matched)
