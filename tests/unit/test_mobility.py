"""Unit tests for mobility timelines."""

import random

import pytest

from repro.sim.kernel import DAY, HOUR, MINUTE
from repro.world.geometry import Point
from repro.world.mobility import (
    DWELL,
    TRAVEL,
    Segment,
    Timeline,
    TimelineBuilder,
    UserProfile,
)
from repro.world.places import PlaceFactory


def make_places(seed=1):
    factory = PlaceFactory(random.Random(seed))
    rng = random.Random(seed + 1)

    def place(name, category):
        return factory.make_place(
            name, Point(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)), category=category
        )

    return {
        "home": [place("home", "home")],
        "office": [place("office", "office")],
        "cafe": [place("cafe1", "cafe"), place("cafe2", "cafe")],
        "restaurant": [place("rest", "restaurant")],
        "gym": [place("gym", "gym")],
        "supermarket": [place("market", "supermarket")],
        "friend": [place("friend", "friend")],
        "generic": [place("g1", "generic"), place("g2", "generic")],
    }


def build(days=5, lifestyle="regular", seed=1):
    places = make_places(seed)
    profile = UserProfile(name="u", lifestyle=lifestyle)
    return TimelineBuilder(profile, places, random.Random(seed)).build(days), places


def test_timeline_is_contiguous_and_ordered():
    timeline, _ = build(days=7)
    assert timeline.start_ms == 0.0
    assert timeline.end_ms == 7 * DAY
    for earlier, later in zip(timeline.segments, timeline.segments[1:]):
        assert later.start_ms == pytest.approx(earlier.end_ms)


def test_weekday_contains_office_dwell():
    timeline, places = build(days=1)  # day 0 is a Monday
    office = places["office"][0]
    office_time = sum(
        s.duration_ms
        for s in timeline.dwells()
        if s.place is office
    )
    assert office_time > 5 * HOUR


def test_night_is_at_home():
    timeline, places = build(days=3)
    home = places["home"][0]
    for hour in (2.0, 26.0, 50.0):
        assert timeline.place_at(hour * HOUR) is home


def test_weekend_has_no_office():
    timeline, places = build(days=7)
    office = places["office"][0]
    for t in range(int(5 * DAY), int(7 * DAY), int(HOUR)):
        place = timeline.place_at(float(t))
        assert place is not office


def test_mobile_lifestyle_has_many_more_dwells():
    regular, _ = build(days=5, lifestyle="regular")
    mobile, _ = build(days=5, lifestyle="mobile")
    def long_dwells(timeline):
        return [d for d in timeline.dwells() if d.duration_ms >= 10 * MINUTE]

    assert len(long_dwells(mobile)) > 1.5 * len(long_dwells(regular))


def test_travel_position_interpolates():
    timeline, _ = build(days=1)
    travels = [s for s in timeline.segments if s.kind == TRAVEL]
    assert travels
    travel = travels[0]
    start = travel.position_at(travel.start_ms)
    end = travel.position_at(travel.end_ms)
    mid = travel.position_at((travel.start_ms + travel.end_ms) / 2)
    assert start.distance_to(mid) + mid.distance_to(end) == pytest.approx(
        start.distance_to(end), rel=1e-6
    )


def test_segment_lookup_boundaries():
    timeline, _ = build(days=1)
    # Before the first boundary and after the last, lookups clamp.
    first = timeline.segment_at(-100.0)
    assert first is timeline.segments[0]
    last = timeline.segment_at(10 * DAY)
    assert last is timeline.segments[-1]


def test_boundaries_match_segments():
    timeline, _ = build(days=2)
    boundaries = timeline.boundaries()
    assert len(boundaries) == len(timeline.segments) - 1


def test_dwells_are_exactly_the_dwell_segments():
    timeline, _ = build(days=3)
    dwells = timeline.dwells()
    assert dwells == [s for s in timeline.segments if s.kind == DWELL]
    assert dwells and len(dwells) < len(timeline.segments)


def test_timeline_requires_home():
    with pytest.raises(ValueError):
        TimelineBuilder(UserProfile(name="u"), {}, random.Random(1))


def test_overlapping_segments_rejected():
    place = make_places()["home"][0]
    with pytest.raises(ValueError):
        Timeline(
            [
                Segment(DWELL, 0.0, 100.0, place=place),
                Segment(DWELL, 50.0, 150.0, place=place),
            ]
        )


def test_empty_timeline_rejected():
    with pytest.raises(ValueError):
        Timeline([])


def test_determinism():
    a, _ = build(days=3, seed=9)
    b, _ = build(days=3, seed=9)
    assert [(s.kind, s.start_ms, s.end_ms) for s in a.segments] == [
        (s.kind, s.start_ms, s.end_ms) for s in b.segments
    ]
