"""Unit tests for planar geometry and coordinate conversion."""

import pytest

from repro.world.geometry import (
    BASE_LATITUDE,
    BASE_LONGITUDE,
    Point,
    from_latlon,
    to_latlon,
)


def test_distance_and_lerp():
    a = Point(0.0, 0.0)
    b = Point(3.0, 4.0)
    assert a.distance_to(b) == pytest.approx(5.0)
    mid = a.lerp(b, 0.5)
    assert (mid.x, mid.y) == (1.5, 2.0)
    assert a.lerp(b, 0.0) == a
    assert a.lerp(b, 1.0) == b


def test_offset():
    p = Point(1.0, 2.0).offset(-1.0, 3.0)
    assert (p.x, p.y) == (0.0, 5.0)


def test_latlon_roundtrip():
    p = Point(1234.0, -567.0)
    lat, lon = to_latlon(p)
    back = from_latlon(lat, lon)
    assert back.x == pytest.approx(p.x, abs=0.01)
    assert back.y == pytest.approx(p.y, abs=0.01)


def test_latlon_origin_is_base():
    lat, lon = to_latlon(Point(0.0, 0.0))
    assert lat == BASE_LATITUDE
    assert lon == BASE_LONGITUDE


def test_north_increases_latitude():
    lat_north, _ = to_latlon(Point(0.0, 1000.0))
    assert lat_north > BASE_LATITUDE
