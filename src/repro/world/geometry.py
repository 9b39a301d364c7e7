"""Planar geometry for the world model.

Positions are in metres on a local tangent plane; the geolocation service
converts to (latitude, longitude) around a base coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Point:
    """A point on the local plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def offset(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def lerp(self, other: "Point", t: float) -> "Point":
        """Linear interpolation; ``t`` in [0, 1]."""
        return Point(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)


#: Base coordinate for the metre → degree conversion (Delft, NL — where the
#: paper's deployment ran).
BASE_LATITUDE = 52.0022
BASE_LONGITUDE = 4.3736
_METERS_PER_DEG_LAT = 111_320.0


def to_latlon(point: Point) -> Tuple[float, float]:
    """Convert a local-plane point to (latitude, longitude)."""
    lat = BASE_LATITUDE + point.y / _METERS_PER_DEG_LAT
    lon = BASE_LONGITUDE + point.x / (
        _METERS_PER_DEG_LAT * math.cos(math.radians(BASE_LATITUDE))
    )
    return lat, lon


def from_latlon(lat: float, lon: float) -> Point:
    """Inverse of :func:`to_latlon`."""
    y = (lat - BASE_LATITUDE) * _METERS_PER_DEG_LAT
    x = (lon - BASE_LONGITUDE) * _METERS_PER_DEG_LAT * math.cos(math.radians(BASE_LATITUDE))
    return Point(x, y)
