"""Integration: the full localization application (Section 4.1).

scan → clustering on the device, collect + geolocation on the collector,
with the world model generating the Wi-Fi environment.
"""

import pytest

from repro.analysis.clustering import Cluster, cluster_stream
from repro.analysis.matching import match_clusters
from repro.apps import localization
from repro.core.services import install_geolocation
from repro.sim import DAY, HOUR, MINUTE
from repro.world.places import is_locally_administered
from repro.world.rssi import normalize_rssi


def offline_truth(device, duration_ms, interval_ms=60_000.0):
    """Ground truth: cluster an uninterrupted scan trace offline.

    Uses an independent scan stream (different RNG draws than the
    on-device scans), so agreement is about *places*, not scan identity.
    """
    samples = []
    t = 0.0
    while t < duration_ms:
        vector = {
            r.bssid: normalize_rssi(r.rssi_dbm)
            for r in device.user_world.scan(t)
            if not is_locally_administered(r.bssid)
        }
        samples.append((t, vector))
        t += interval_ms
    return cluster_stream(samples)


def test_localization_end_to_end_one_day(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(localization.build_experiment(), [device.jid])
    sim.run(days=1)

    host = context.scripts["collect"]
    database = host.namespace["database"]
    assert host.errors == []
    assert database, "no clusters collected"

    # Every stored cluster is geolocated and tagged with its device.
    located = [c for c in database if c["place"] is not None]
    assert len(located) >= 0.8 * len(database)
    assert all(c["_device"] == device.jid for c in database)

    # Cluster stream is plausible: ordered, non-overlapping, >= min_pts.
    entries = [c["entry"] for c in database]
    assert entries == sorted(entries)
    assert all(c["samples"] >= 5 for c in database)
    assert all(c["exit"] > c["entry"] for c in database)

    # The collected clusters track the user's real dwells: compare with
    # an offline clustering of a fresh scan stream over the same world.
    truth = offline_truth(device, 1 * DAY)
    collected = [Cluster.from_message(c) for c in database]
    report = match_clusters(truth, collected)
    assert report.partial_percent >= 60.0


def test_localization_geolocations_near_actual_places(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(localization.build_experiment(), [device.jid])
    sim.run(hours=10)  # covers the overnight home dwell + morning

    from repro.world.geometry import from_latlon

    database = context.scripts["collect"].namespace["database"]
    assert database
    home = device.user_world.places["home"][0]
    first = database[0]
    assert first["place"] is not None
    resolved = from_latlon(first["place"]["lat"], first["place"]["lon"])
    # The overnight cluster resolves near the user's home.
    assert home.center.distance_to(resolved) < 200.0


def test_data_reduction_vs_raw_scans(sim):
    """Section 5.3: on-line clustering cuts transferred bytes by ~98%."""
    from repro.core.messages import message_size_bytes

    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)

    raw_bytes = [0]
    scan_script_host = {}

    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(localization.build_experiment(), [device.jid])
    sim.run(days=1)

    # Raw cost: what shipping every sanitized scan would have taken.
    dctx = device.node.contexts[localization.EXPERIMENT_ID]
    clustering_host = dctx.scripts["clustering"]
    samples_seen = clustering_host.namespace["dbscan"].samples_seen
    assert samples_seen > 1000
    database = context.scripts["collect"].namespace["database"]
    cluster_bytes = sum(message_size_bytes(c) for c in database)
    # A sanitized scan is a few hundred bytes; be conservative (150 B).
    assert cluster_bytes < 0.1 * samples_seen * 150
