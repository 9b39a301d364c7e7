"""User mobility: daily schedules that produce dwell/travel timelines.

The 24-day localization deployment (Section 5.3) ran against eight real
people living their lives.  The clustering pipeline only cares about the
*structure* of that behaviour: extended dwells at a stable set of places,
separated by travel during which scans see transient street APs.  This
module generates exactly that structure:

* weekday routine: home overnight → commute → office (with optional lunch
  outing) → commute → optional evening activity → home;
* weekend routine: home with a few outings;
* a "mobile" variant (field work, many short client visits per day) that
  produces the order-of-magnitude larger location count the paper reports
  for user 3 (1,282 locations vs. 121–333 for everyone else).

Timelines are precomputed as contiguous segments; position queries are a
binary search, which keeps the 24-day × 8-user simulation cheap.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.kernel import DAY, HOUR, MINUTE
from .geometry import Point
from .places import Place

DWELL = "dwell"
TRAVEL = "travel"


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of a user's timeline."""

    kind: str
    start_ms: float
    end_ms: float
    place: Optional[Place] = None
    origin: Optional[Point] = None
    destination: Optional[Point] = None

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def position_at(self, time_ms: float) -> Point:
        """Nominal position at ``time_ms`` (dwell center / travel lerp)."""
        if self.kind == DWELL:
            assert self.place is not None
            return self.place.center
        assert self.origin is not None and self.destination is not None
        if self.end_ms == self.start_ms:
            return self.destination
        t = (time_ms - self.start_ms) / (self.end_ms - self.start_ms)
        return self.origin.lerp(self.destination, max(0.0, min(1.0, t)))


@dataclass
class UserProfile:
    """Behavioural parameters for one simulated participant."""

    name: str
    #: "regular" office worker or "mobile" field worker (user 3).
    lifestyle: str = "regular"
    work_start_h: float = 9.0
    work_start_jitter_h: float = 0.6
    work_end_h: float = 17.5
    work_end_jitter_h: float = 0.9
    commute_min: float = 25.0
    commute_jitter_min: float = 8.0
    lunch_out_probability: float = 0.45
    evening_out_probability: float = 0.35
    weekend_outings: Tuple[int, int] = (1, 3)
    #: For "mobile" lifestyles: client visits per workday.
    visits_per_day: Tuple[int, int] = (6, 10)
    visit_duration_min: Tuple[float, float] = (20.0, 70.0)


class Timeline:
    """A user's full simulated itinerary with O(log n) position lookup."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ValueError("timeline needs at least one segment")
        self.segments: List[Segment] = list(segments)
        self._starts = [s.start_ms for s in self.segments]
        for earlier, later in zip(self.segments, self.segments[1:]):
            if later.start_ms < earlier.end_ms - 1e-6:
                raise ValueError("timeline segments must be ordered and non-overlapping")

    def segment_at(self, time_ms: float) -> Segment:
        index = bisect.bisect_right(self._starts, time_ms) - 1
        index = max(0, min(index, len(self.segments) - 1))
        return self.segments[index]

    def place_at(self, time_ms: float) -> Optional[Place]:
        segment = self.segment_at(time_ms)
        return segment.place if segment.kind == DWELL else None

    def position_at(self, time_ms: float) -> Point:
        return self.segment_at(time_ms).position_at(time_ms)

    def dwells(self) -> List[Segment]:
        """All dwell segments."""
        return [s for s in self.segments if s.kind == DWELL]

    @property
    def start_ms(self) -> float:
        return self.segments[0].start_ms

    @property
    def end_ms(self) -> float:
        return self.segments[-1].end_ms

    def boundaries(self) -> List[float]:
        """Segment-change times (used to drive connectivity updates)."""
        return [s.start_ms for s in self.segments[1:]]


class TimelineBuilder:
    """Generates a :class:`Timeline` from a profile and a set of places.

    ``places`` maps category → list of candidate places; "home" and
    "office" must contain exactly the user's own home/office.
    """

    def __init__(self, profile: UserProfile, places: Dict[str, List[Place]], rng: random.Random):
        if "home" not in places or not places["home"]:
            raise ValueError("user needs a home place")
        self.profile = profile
        self.places = places
        self.rng = rng
        self._segments: List[Segment] = []
        self._cursor_ms = 0.0
        self._here: Place = places["home"][0]

    # -- low-level emit helpers ----------------------------------------
    def _dwell_until(self, end_ms: float) -> None:
        if end_ms <= self._cursor_ms:
            return
        self._segments.append(
            Segment(DWELL, self._cursor_ms, end_ms, place=self._here)
        )
        self._cursor_ms = end_ms

    def _travel_to(self, destination: Place, duration_ms: float) -> None:
        start = self._cursor_ms
        self._segments.append(
            Segment(
                TRAVEL,
                start,
                start + duration_ms,
                origin=self._here.center,
                destination=destination.center,
            )
        )
        self._cursor_ms = start + duration_ms
        self._here = destination

    def _commute_ms(self) -> float:
        p = self.profile
        minutes = max(5.0, self.rng.gauss(p.commute_min, p.commute_jitter_min))
        return minutes * MINUTE

    def _short_hop_ms(self) -> float:
        return max(4.0, self.rng.gauss(12.0, 4.0)) * MINUTE

    def _pick(self, category: str) -> Optional[Place]:
        candidates = self.places.get(category) or []
        return self.rng.choice(candidates) if candidates else None

    # -- day builders ---------------------------------------------------
    def build(self, days: int) -> Timeline:
        """Generate ``days`` consecutive days from midnight of day 0."""
        self._cursor_ms = 0.0
        self._here = self.places["home"][0]
        for day in range(days):
            day_start = day * DAY
            weekday = day % 7  # day 0 is a Monday
            if weekday < 5:
                if self.profile.lifestyle == "mobile":
                    self._mobile_workday(day_start)
                else:
                    self._office_workday(day_start)
            else:
                self._weekend_day(day_start)
        # Close the final night at home.
        self._dwell_until(days * DAY)
        return Timeline(self._segments)

    def _office_workday(self, day_start: float) -> None:
        p, rng = self.profile, self.rng
        work_start = day_start + max(6.0, rng.gauss(p.work_start_h, p.work_start_jitter_h)) * HOUR
        commute = self._commute_ms()
        self._dwell_until(max(self._cursor_ms, work_start - commute))
        office = self._pick("office")
        if office is None:
            return
        self._travel_to(office, commute)

        work_end = day_start + max(
            p.work_start_h + 4.0, rng.gauss(p.work_end_h, p.work_end_jitter_h)
        ) * HOUR
        if rng.random() < p.lunch_out_probability:
            lunch_place = self._pick("cafe") or self._pick("restaurant")
            if lunch_place is not None:
                lunch_start = day_start + rng.gauss(12.3, 0.3) * HOUR
                if lunch_start > self._cursor_ms + 30 * MINUTE:
                    self._dwell_until(lunch_start)
                    hop = self._short_hop_ms()
                    self._travel_to(lunch_place, hop)
                    self._dwell_until(self._cursor_ms + rng.gauss(40.0, 8.0) * MINUTE)
                    self._travel_to(office, hop)
        self._dwell_until(max(self._cursor_ms, work_end))

        home = self.places["home"][0]
        if rng.random() < p.evening_out_probability:
            venue = self._pick("gym") or self._pick("restaurant") or self._pick("friend")
            if venue is not None:
                self._travel_to(venue, self._short_hop_ms())
                self._dwell_until(self._cursor_ms + rng.gauss(90.0, 25.0) * MINUTE)
        self._travel_to(home, self._commute_ms())

    def _mobile_workday(self, day_start: float) -> None:
        """Field-worker day: many short client visits (user 3's pattern)."""
        p, rng = self.profile, self.rng
        leave = day_start + max(6.5, rng.gauss(8.5, 0.5)) * HOUR
        self._dwell_until(leave)
        visits = rng.randint(*p.visits_per_day)
        categories = ["generic", "cafe", "office", "supermarket", "restaurant", "friend"]
        for _ in range(visits):
            venue = self._pick(rng.choice(categories))
            if venue is None:
                continue
            self._travel_to(venue, self._short_hop_ms())
            lo, hi = p.visit_duration_min
            self._dwell_until(self._cursor_ms + rng.uniform(lo, hi) * MINUTE)
            if self._cursor_ms > day_start + 18.5 * HOUR:
                break
        self._travel_to(self.places["home"][0], self._commute_ms())

    def _weekend_day(self, day_start: float) -> None:
        p, rng = self.profile, self.rng
        outings = rng.randint(*p.weekend_outings)
        cursor_h = rng.gauss(10.5, 1.0)
        for _ in range(outings):
            venue = self._pick(rng.choice(["supermarket", "friend", "gym", "cafe", "restaurant"]))
            if venue is None:
                continue
            outing_start = day_start + max(8.0, cursor_h) * HOUR
            if outing_start <= self._cursor_ms:
                outing_start = self._cursor_ms + 30 * MINUTE
            self._dwell_until(outing_start)
            self._travel_to(venue, self._short_hop_ms())
            duration_min = rng.gauss(75.0, 30.0)
            self._dwell_until(self._cursor_ms + max(20.0, duration_min) * MINUTE)
            self._travel_to(self.places["home"][0], self._short_hop_ms())
            cursor_h = (self._cursor_ms - day_start) / HOUR + rng.gauss(2.0, 0.7)


def splice_surge(
    timeline: Timeline,
    venue: Place,
    start_ms: float,
    end_ms: float,
    rng: random.Random,
) -> Timeline:
    """Overlay a crowd-surge venue visit onto an existing timeline.

    Whatever the user was doing during ``[start_ms, end_ms)`` is replaced
    by travel to the venue, a dwell there, and travel back onto the
    original itinerary — the structural ingredient of a stadium evening
    or commuter crush.  The surrounding segments are preserved (straddlers
    are truncated at the window edges), so splicing one user's surge never
    perturbs anyone else's timeline.
    """
    if not start_ms < end_ms:
        raise ValueError("surge window must have start < end")
    if start_ms < timeline.start_ms or end_ms > timeline.end_ms:
        raise ValueError("surge window must lie within the timeline")

    entry = timeline.position_at(start_ms)
    exit_ = timeline.position_at(end_ms)

    before: List[Segment] = []
    after: List[Segment] = []
    for seg in timeline.segments:
        if seg.end_ms <= start_ms:
            before.append(seg)
        elif seg.start_ms >= end_ms:
            after.append(seg)
        else:
            if seg.start_ms < start_ms:
                if seg.kind == DWELL:
                    head = replace(seg, end_ms=start_ms)
                else:
                    head = replace(
                        seg, end_ms=start_ms, destination=seg.position_at(start_ms)
                    )
                if head.duration_ms > 1e-9:
                    before.append(head)
            if seg.end_ms > end_ms:
                if seg.kind == DWELL:
                    tail = replace(seg, start_ms=end_ms)
                else:
                    tail = replace(
                        seg, start_ms=end_ms, origin=seg.position_at(end_ms)
                    )
                if tail.duration_ms > 1e-9:
                    after.append(tail)

    window = end_ms - start_ms
    travel_in = min(window / 3.0, max(4 * MINUTE, rng.gauss(15.0, 4.0) * MINUTE))
    travel_out = min(window / 3.0, max(4 * MINUTE, rng.gauss(15.0, 4.0) * MINUTE))
    mid = [
        Segment(TRAVEL, start_ms, start_ms + travel_in,
                origin=entry, destination=venue.center),
        Segment(DWELL, start_ms + travel_in, end_ms - travel_out, place=venue),
        Segment(TRAVEL, end_ms - travel_out, end_ms,
                origin=venue.center, destination=exit_),
    ]
    return Timeline(before + mid + after)

