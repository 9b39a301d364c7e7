"""Opportunistic contact tracing over Wi-Fi anchors.

The MOSDEN line of work (see PAPERS.md) argues middleware must support
collaborative, opportunistic campaigns where many devices contribute to
one derived dataset.  Contact tracing is the canonical instance: two
phones that see the same strong Wi-Fi access point at overlapping times
were plausibly co-located.

* the device script records the strongest BSSID of every scan as an
  "anchor" and periodically publishes the distinct anchors seen since the
  last report (on-line reduction: anchors, never raw scans, leave the
  phone);
* the collector script inverts the anchor → device mapping and counts,
  per device pair, how many distinct anchors both have reported.  All
  collector state is order-insensitive (sets and sums), so the derived
  contact graph is identical no matter how message deliveries interleave
  — which is what lets sharded runs reproduce solo reports byte for byte.

Channels: consumes ``wifi-scan``; publishes ``contact-beacons``.
"""

from __future__ import annotations

from ..core.deployment import Experiment

EXPERIMENT_ID = "contact-tracing"

CHANNEL_BEACONS = "contact-beacons"

#: How often the tracer asks for a Wi-Fi scan, and publishes its anchors.
SCAN_INTERVAL_MS = 120_000
REPORT_EVERY_MS = 10 * 60_000


def build_tracer_script() -> str:
    """Device script: distill Wi-Fi scans into co-location anchors."""
    return f'''setDescription('Publishes co-location anchors from Wi-Fi scans')

seen = []


def handle_scan(msg):
    aps = msg['aps']
    if not aps:
        return
    anchor = aps[0]['bssid']
    if anchor not in seen:
        seen.append(anchor)


def report():
    setTimeout(report, {REPORT_EVERY_MS})
    if not seen:
        return
    publish('contact-beacons', {{'anchors': list(seen)}})
    seen.clear()


def start():
    setTimeout(report, {REPORT_EVERY_MS})


subscribe('wifi-scan', handle_scan, {{'interval': {SCAN_INTERVAL_MS}}})
'''


def build_collect_script() -> str:
    """Collector script: build the pairwise contact graph."""
    return '''setDescription('Builds the pairwise co-location graph from anchors')

counters = {'beacons': 0}
anchors = {}
contacts = {}


def handle(msg):
    counters['beacons'] += 1
    device = msg.get('_device')
    if device is None:
        return
    for anchor in msg['anchors']:
        devices = anchors.get(anchor)
        if devices is None:
            devices = []
            anchors[anchor] = devices
        if device in devices:
            continue
        for other in devices:
            if device < other:
                pair = device + '|' + other
            else:
                pair = other + '|' + device
            contacts[pair] = contacts.get(pair, 0) + 1
        devices.append(device)


subscribe('contact-beacons', handle)
'''


def build_experiment() -> Experiment:
    return Experiment(
        experiment_id=EXPERIMENT_ID,
        description="Opportunistic contact tracing from shared Wi-Fi anchors",
        device_scripts={
            "tracer": build_tracer_script(),
        },
        collector_scripts={"collect": build_collect_script()},
    )
