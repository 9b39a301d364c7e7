"""Unit tests for the simulated geolocation service."""

import pytest

from repro.world.geolocation import GeolocationService
from repro.world.geometry import Point, from_latlon
from repro.world.places import AccessPoint


def ap(bssid, x, y):
    return AccessPoint(bssid=bssid, ssid="net", position=Point(x, y))


def test_locate_unknown_returns_none():
    service = GeolocationService()
    assert service.locate({"aa:bb:cc:dd:ee:ff": 1.0}) is None
    assert service.miss_count == 1


def test_locate_single_ap_is_its_position():
    service = GeolocationService([ap("00:11:22:33:44:55", 100.0, 200.0)])
    fix = service.locate({"00:11:22:33:44:55": 0.8})
    assert fix is not None
    point = from_latlon(fix.latitude, fix.longitude)
    assert point.distance_to(Point(100.0, 200.0)) < 1.0
    assert fix.matched_aps == 1


def test_weighted_centroid_pulls_toward_strong_ap():
    service = GeolocationService([ap("aa:aa:aa:aa:aa:aa", 0.0, 0.0), ap("bb:bb:bb:bb:bb:bb", 100.0, 0.0)])
    fix = service.locate({"aa:aa:aa:aa:aa:aa": 0.9, "bb:bb:bb:bb:bb:bb": 0.1})
    point = from_latlon(fix.latitude, fix.longitude)
    assert point.x < 50.0


def test_unknown_aps_ignored_in_mixed_query():
    service = GeolocationService([ap("aa:aa:aa:aa:aa:aa", 10.0, 10.0)])
    fix = service.locate({"aa:aa:aa:aa:aa:aa": 0.5, "ff:ff:ff:ff:ff:fe": 0.9})
    assert fix.matched_aps == 1


def test_accuracy_improves_with_more_aps():
    aps = [ap(f"00:00:00:00:00:{i:02x}", float(i), 0.0) for i in range(5)]
    service = GeolocationService(aps)
    one = service.locate({aps[0].bssid: 1.0})
    many = service.locate({a.bssid: 1.0 for a in aps})
    assert many.accuracy_m < one.accuracy_m


def test_registry_introspection():
    service = GeolocationService()
    assert len(service) == 0
    service.register(ap("aa:aa:aa:aa:aa:aa", 0, 0))
    assert service.knows("aa:aa:aa:aa:aa:aa")
    assert len(service) == 1
