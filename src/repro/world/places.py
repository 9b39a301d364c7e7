"""Places and access points: the static Wi-Fi environment.

A *place* is somewhere a user dwells — home, office, café — with a set of
access points installed in and around it.  The localization application's
entire premise (Section 4.1) is that the set of visible APs, weighted by
signal strength, characterizes a place.

BSSIDs are generated like real MAC addresses, including **locally
administered** ones (second hex digit 2/6/A/E): the paper's ``scan.js``
"sanitizes the raw results by removing locally administered access
points" (these are ad-hoc/virtual interfaces that move around with
devices rather than staying put), so the world must contain some for the
filter to be meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .geometry import Point

#: Places are laid out over the square of this half-width, in metres.
CITY_EXTENT_M = 6000.0

#: Fraction of generated APs that are locally administered (phones sharing
#: their connection, printers, smart TVs).
DEFAULT_LOCALLY_ADMINISTERED_FRACTION = 0.12


def make_bssid(rng: random.Random, locally_administered: bool = False) -> str:
    """Generate a plausible BSSID (lowercase, colon-separated).

    The locally-administered bit is bit 1 of the first octet.
    """
    octets = [rng.randrange(256) for _ in range(6)]
    if locally_administered:
        octets[0] |= 0x02
    else:
        octets[0] &= ~0x02
    # Clear the multicast bit; APs beacon from unicast addresses.
    octets[0] &= ~0x01
    return ":".join(f"{o:02x}" for o in octets)


def is_locally_administered(bssid: str) -> bool:
    """Check the locally-administered bit of a BSSID string."""
    first_octet = int(bssid.split(":")[0], 16)
    return bool(first_octet & 0x02)


@dataclass(frozen=True)
class AccessPoint:
    """One installed Wi-Fi access point."""

    bssid: str
    ssid: str
    position: Point
    #: Some APs offer internet the phone can associate with (home/office).
    provides_internet: bool = False

    @property
    def locally_administered(self) -> bool:
        return is_locally_administered(self.bssid)


@dataclass
class Place:
    """A location where users dwell, with its surrounding APs."""

    name: str
    center: Point
    #: Radius within which the user wanders while dwelling, metres.
    radius: float = 15.0
    access_points: List[AccessPoint] = field(default_factory=list)
    #: Whether the phone can get internet over Wi-Fi here (home, office).
    has_wifi_internet: bool = False
    #: Category tag, e.g. "home", "office", "cafe" — used by mobility.
    category: str = "generic"

    def internet_aps(self) -> List[AccessPoint]:
        return [ap for ap in self.access_points if ap.provides_internet]


class PlaceFactory:
    """Deterministically generates places with realistic AP surroundings."""

    #: (min, max) AP counts by place category: an office building is dense,
    #: a gym is sparse.
    AP_COUNT_RANGES: Dict[str, tuple] = {
        "home": (5, 9),
        "office": (8, 16),
        "cafe": (4, 8),
        "gym": (3, 6),
        "supermarket": (3, 7),
        "friend": (3, 8),
        "restaurant": (4, 9),
        "foreign": (3, 8),
        "generic": (3, 8),
    }

    SSID_POOL = (
        "FRITZ!Box", "Ziggo", "KPN-Thuis", "TMNL-WLAN", "eduroam", "linksys",
        "NETGEAR", "TP-LINK", "CaffeLatte", "GuestWiFi", "OfficeNet",
        "dlink", "UPC-WiFi", "HotSpot", "SpeedTouch",
    )

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._made = 0

    def make_place(
        self,
        name: str,
        center: Point,
        category: str = "generic",
        radius: Optional[float] = None,
        ap_count: Optional[int] = None,
        has_wifi_internet: Optional[bool] = None,
    ) -> Place:
        rng = self._rng
        self._made += 1
        lo, hi = self.AP_COUNT_RANGES.get(category, self.AP_COUNT_RANGES["generic"])
        if ap_count is None:
            ap_count = rng.randint(lo, hi)
        if radius is None:
            radius = {"home": 10.0, "office": 25.0}.get(category, 12.0)
        if has_wifi_internet is None:
            has_wifi_internet = category in ("home", "office")
        aps: List[AccessPoint] = []
        for i in range(ap_count):
            local = rng.random() < DEFAULT_LOCALLY_ADMINISTERED_FRACTION
            # APs are in the building and its neighbours: scatter within a
            # couple of times the dwell radius.
            spread = radius * (0.6 + 1.2 * rng.random())
            position = center.offset(rng.gauss(0.0, spread), rng.gauss(0.0, spread))
            aps.append(
                AccessPoint(
                    bssid=make_bssid(rng, locally_administered=local),
                    ssid=f"{rng.choice(self.SSID_POOL)}-{rng.randrange(1000, 9999)}",
                    position=position,
                    provides_internet=(i == 0 and has_wifi_internet and not local),
                )
            )
        return Place(
            name=name,
            center=center,
            radius=radius,
            access_points=aps,
            has_wifi_internet=has_wifi_internet,
            category=category,
        )

    def make_street_ap(self, near: Point) -> AccessPoint:
        """A transient AP glimpsed while travelling."""
        rng = self._rng
        local = rng.random() < DEFAULT_LOCALLY_ADMINISTERED_FRACTION
        return AccessPoint(
            bssid=make_bssid(rng, locally_administered=local),
            ssid=f"{rng.choice(self.SSID_POOL)}-{rng.randrange(1000, 9999)}",
            position=near.offset(rng.gauss(0.0, 40.0), rng.gauss(0.0, 40.0)),
        )
