"""City-scale generative worlds for the scenario engine.

The deployment worlds in :mod:`repro.world.environment` give every user a
private pocket universe of ~13 places.  Scenario presets need something
bigger and *shared*: a city with thousands of candidate sites, plus named
venues (a stadium, a market square) that many users visit at once so that
campaigns like contact tracing can observe co-location through common
Wi-Fi anchors.

Design constraints, in priority order:

1. **Placement independence** — a device's world must be a pure function
   of ``(scenario seed, jid)`` so that solo and sharded runs build
   byte-identical worlds.  Every random draw here comes from a private
   ``random.Random`` keyed by :func:`derive_seed`, never from shared
   shard streams.
2. **Cheap at 10k+ places** — the city layout is a flat list of
   ``(Point, category)`` site tuples; access points are only materialized
   for the handful of sites each citizen actually frequents.
3. **Shared venues** — venue places (with their BSSIDs) are materialized
   once per scenario and handed to every attendee, so two phones at the
   stadium report overlapping anchors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..sim.kernel import DAY, HOUR
from ..sim.randomness import derive_seed
from .geometry import Point
from .mobility import Timeline, TimelineBuilder, UserProfile, splice_surge
from .places import CITY_EXTENT_M, Place, PlaceFactory
from .rssi import PropagationModel

#: Site categories cycled through when laying out the city grid.
SITE_CATEGORIES = ("cafe", "restaurant", "gym", "supermarket", "friend", "generic")

#: How many city sites each citizen adopts as personal haunts.
SITES_PER_CITIZEN = 8


@dataclass(frozen=True)
class VenueSpec:
    """A named shared venue (stadium, concert hall, market square)."""

    name: str
    category: str = "stadium"
    radius_m: float = 120.0
    ap_count: int = 24
    has_wifi_internet: bool = False


class CityPlan:
    """The shared city: cheap site tuples plus materialized venues."""

    def __init__(
        self,
        seed: int,
        sites: List[Tuple[Point, str]],
        venues: Dict[str, Place],
        extent_m: float,
    ) -> None:
        self.seed = seed
        self.sites = sites
        self.venues = venues
        self.extent_m = extent_m

    @property
    def n_places(self) -> int:
        return len(self.sites) + len(self.venues)


def build_city(
    seed: int,
    n_places: int,
    venue_specs: Sequence[VenueSpec] = (),
) -> CityPlan:
    """Lay out a deterministic city for one scenario.

    Sites are uniform over the square extent with categories cycling
    through :data:`SITE_CATEGORIES`; venues get their own RNG so adding a
    site never perturbs a venue's BSSIDs (or vice versa).
    """
    extent_m = CITY_EXTENT_M
    layout_rng = random.Random(derive_seed(seed, "scenario/city/layout"))
    sites: List[Tuple[Point, str]] = []
    for i in range(n_places):
        center = Point(
            layout_rng.uniform(-extent_m, extent_m),
            layout_rng.uniform(-extent_m, extent_m),
        )
        sites.append((center, SITE_CATEGORIES[i % len(SITE_CATEGORIES)]))

    venue_rng = random.Random(derive_seed(seed, "scenario/city/venues"))
    venue_factory = PlaceFactory(venue_rng)
    venues: Dict[str, Place] = {}
    for vs in venue_specs:
        center = Point(
            venue_rng.uniform(-extent_m / 2, extent_m / 2),
            venue_rng.uniform(-extent_m / 2, extent_m / 2),
        )
        venues[vs.name] = venue_factory.make_place(
            f"venue/{vs.name}",
            center,
            category=vs.category,
            radius=vs.radius_m,
            ap_count=vs.ap_count,
            has_wifi_internet=vs.has_wifi_internet,
        )
    return CityPlan(seed, sites, venues, extent_m)


def build_citizen_world(
    jid: str,
    seed: int,
    city: CityPlan,
    days: int,
    surges: Sequence = (),
):
    """Build one citizen's :class:`~repro.world.environment.UserWorld`.

    ``surges`` is a sequence of ``(surge, start_ms, end_ms)`` triples the
    citizen attends; each splices a venue visit into the daily routine.
    Returns ``(world, stats)`` where ``stats`` is a small counter dict
    merged into the scenario report.
    """
    from .environment import UserWorld

    profile = UserProfile(name=jid)
    propagation = PropagationModel()

    place_rng = random.Random(derive_seed(seed, f"scenario/world/{jid}/places"))
    factory = PlaceFactory(place_rng)

    places: Dict[str, List[Place]] = {
        "home": [
            factory.make_place(
                f"{jid}/home",
                Point(
                    place_rng.uniform(-city.extent_m, city.extent_m),
                    place_rng.uniform(-city.extent_m, city.extent_m),
                ),
                category="home",
            )
        ],
        "office": [
            factory.make_place(
                f"{jid}/office",
                Point(
                    place_rng.uniform(-city.extent_m, city.extent_m),
                    place_rng.uniform(-city.extent_m, city.extent_m),
                ),
                category="office",
            )
        ],
    }
    # Adopt a handful of city sites as personal haunts.  The geometry is
    # shared city state; the APs are materialized per citizen.
    k = min(SITES_PER_CITIZEN, len(city.sites))
    if k:
        for index in sorted(place_rng.sample(range(len(city.sites)), k)):
            center, category = city.sites[index]
            place = factory.make_place(
                f"{jid}/site{index}", center, category=category
            )
            places.setdefault(category, []).append(place)

    timeline_rng = random.Random(derive_seed(seed, f"scenario/world/{jid}/timeline"))
    timeline = TimelineBuilder(profile, places, timeline_rng).build(days)

    splices = 0
    for surge, start_ms, end_ms in surges:
        venue = city.venues[surge.venue]
        surge_rng = random.Random(
            derive_seed(seed, f"scenario/world/{jid}/surge/{surge.name}")
        )
        timeline = splice_surge(timeline, venue, start_ms, end_ms, surge_rng)
        places.setdefault("venue", [])
        if venue not in places["venue"]:
            places["venue"].append(venue)
        splices += 1

    scan_rng = random.Random(derive_seed(seed, f"scenario/world/{jid}/scans"))
    world = UserWorld(jid, places, timeline, propagation, scan_rng, factory)
    stats = {
        "places": sum(len(group) for group in places.values()),
        "segments": len(timeline.segments),
        "splices": splices,
    }
    return world, stats
