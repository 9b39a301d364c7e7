"""Unit tests for places and access-point generation."""

import random

from repro.world.geometry import Point
from repro.world.places import (
    AccessPoint,
    PlaceFactory,
    is_locally_administered,
    make_bssid,
)


def test_bssid_format():
    rng = random.Random(1)
    bssid = make_bssid(rng)
    parts = bssid.split(":")
    assert len(parts) == 6
    assert all(len(p) == 2 for p in parts)
    int(parts[0], 16)  # parses as hex


def test_locally_administered_bit():
    rng = random.Random(2)
    assert is_locally_administered(make_bssid(rng, locally_administered=True))
    assert not is_locally_administered(make_bssid(rng, locally_administered=False))


def test_bssid_never_multicast():
    rng = random.Random(3)
    for _ in range(50):
        first = int(make_bssid(rng).split(":")[0], 16)
        assert first & 0x01 == 0


def test_factory_place_has_category_appropriate_aps():
    factory = PlaceFactory(random.Random(4))
    office = factory.make_place("office", Point(0, 0), category="office")
    lo, hi = PlaceFactory.AP_COUNT_RANGES["office"]
    assert lo <= len(office.access_points) <= hi
    assert office.has_wifi_internet
    assert office.internet_aps()


def test_generic_place_has_no_internet_by_default():
    factory = PlaceFactory(random.Random(5))
    cafe = factory.make_place("cafe", Point(0, 0), category="cafe")
    assert not cafe.has_wifi_internet


def test_factory_determinism():
    a = PlaceFactory(random.Random(6)).make_place("p", Point(0, 0), category="home")
    b = PlaceFactory(random.Random(6)).make_place("p", Point(0, 0), category="home")
    assert [ap.bssid for ap in a.access_points] == [ap.bssid for ap in b.access_points]


def test_aps_scatter_near_center():
    factory = PlaceFactory(random.Random(7))
    place = factory.make_place("home", Point(100, 100), category="home")
    for ap in place.access_points:
        assert place.center.distance_to(ap.position) < 250.0


def test_street_ap_near_position():
    factory = PlaceFactory(random.Random(8))
    ap = factory.make_street_ap(Point(50, 50))
    assert Point(50, 50).distance_to(ap.position) < 400.0


def test_internet_ap_never_locally_administered():
    for seed in range(20):
        factory = PlaceFactory(random.Random(seed))
        place = factory.make_place("h", Point(0, 0), category="home")
        for ap in place.internet_aps():
            assert not ap.locally_administered
