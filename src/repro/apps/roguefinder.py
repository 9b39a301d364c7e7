"""The RogueFinder application (Section 5.1, Listings 1 & 2).

The AnonySense comparison app: "sends Wi-Fi access point scans to the
server once per minute, but only if the device is within a given
geographical location (represented by a polygon)."

The Pogo version illustrates three things the paper calls out:

* subscription ``release()``/``renew()`` toggling the Wi-Fi scanning
  sensor on and off with the user's location (lines 9–16 of Listing 2);
* ``locationInPolygon`` implemented *in the script* because it is not
  part of the 11-method API ("we had to implement the
  locationInPolygon function to simulate AnonyTL's In construct");
* a second, tiny collector script to get the data off the device.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.deployment import Experiment

EXPERIMENT_ID = "roguefinder"

#: "once per minute" scans; coarse location every two minutes.
SCAN_INTERVAL_MS = 60_000
LOCATION_INTERVAL_MS = 120_000


def build_roguefinder_script(polygon: Sequence[Tuple[float, float]]) -> str:
    """The device script, parameterized by the target polygon.

    ``polygon`` is a sequence of (lat, lon) vertices.
    """
    polygon_literal = ", ".join(
        f"{{'lat': {lat!r}, 'lon': {lon!r}}}" for lat, lon in polygon
    )
    return f'''setDescription('RogueFinder: report AP scans while inside the target area')

polygon = [{polygon_literal}]


def handle_scan(msg):
    publish('rogue-scans', msg)


subscription = subscribe('wifi-scan', handle_scan, {{'interval': {SCAN_INTERVAL_MS}}})
subscription.release()


def location_in_polygon(msg, poly):
    x = msg['lon']
    y = msg['lat']
    inside = False
    count = len(poly)
    for i in range(count):
        ax = poly[i]['lon']
        ay = poly[i]['lat']
        bx = poly[(i + 1) % count]['lon']
        by = poly[(i + 1) % count]['lat']
        if (ay > y) != (by > y):
            if x < (bx - ax) * (y - ay) / (by - ay) + ax:
                inside = not inside
    return inside


def handle_location(msg):
    if location_in_polygon(msg, polygon):
        subscription.renew()
    else:
        subscription.release()


subscribe('locations', handle_location, {{'interval': {LOCATION_INTERVAL_MS}}})
'''


def build_collect_script() -> str:
    """The collector script — five lines, as in Table 2."""
    return '''scans = []

def handle(msg):
    scans.append(msg)
    logTo('rogue', json(msg))

subscribe('rogue-scans', handle)
'''


def build_experiment(polygon: Sequence[Tuple[float, float]]) -> Experiment:
    return Experiment(
        experiment_id=EXPERIMENT_ID,
        description="Report Wi-Fi scans inside a geofenced polygon",
        device_scripts={
            "roguefinder": build_roguefinder_script(polygon),
        },
        collector_scripts={"collect": build_collect_script()},
    )
