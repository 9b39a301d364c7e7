#!/usr/bin/env python
"""The Section 4.1 localization application, end to end.

Deploys the three-script pipeline of the paper's Figure 1 onto a
simulated phone carried through three days of synthetic life:

* ``scan`` (device)        — Wi-Fi scans @ 1/min, sanitized + normalized
* ``clustering`` (device)  — sliding-window DBSCAN closes dwell clusters
* ``collect`` (collector)  — geolocates each cluster, stores it

Prints the discovered places with entry/exit times and the data-volume
reduction achieved by clustering on the device (the paper reports 98.3 %
over its 24-day deployment).

Run:  python examples/localization.py
"""

from repro import PogoSimulation
from repro.apps import localization
from repro.core.messages import message_size_bytes
from repro.core.services import install_geolocation
from repro.sim.kernel import HOUR
from repro.world.geometry import from_latlon

DAYS = 3


def main() -> None:
    sim = PogoSimulation(seed=11)
    researcher = sim.add_collector("alice")
    phone = sim.add_device(world_days=DAYS, with_email_app=True)

    # The collector's geolocation service knows the world's APs (the
    # stand-in for Google's geolocation API).
    install_geolocation(researcher, phone)

    sim.start()
    sim.assign(researcher, [phone])
    context = researcher.node.deploy(
        localization.build_experiment(with_freeze=True), [phone.jid]
    )
    sim.run(days=DAYS)

    database = context.scripts["collect"].namespace["database"]
    print(f"discovered {len(database)} dwell sessions over {DAYS} simulated days\n")

    place_names = {}
    for group in phone.user_world.places.values():
        for place in group:
            place_names[place.name] = place

    for cluster in database:
        entry_h = cluster["entry"] / HOUR
        exit_h = cluster["exit"] / HOUR
        where = "unresolved"
        if cluster["place"] is not None:
            resolved = from_latlon(cluster["place"]["lat"], cluster["place"]["lon"])
            nearest = min(
                place_names.values(), key=lambda p: p.center.distance_to(resolved)
            )
            where = f"{nearest.name.split('/')[-1]:<14} (±{cluster['place']['accuracy']:.0f} m)"
        print(
            f"  day {int(entry_h // 24)}  "
            f"{entry_h % 24:5.2f}h → {exit_h % 24:5.2f}h  "
            f"({cluster['samples']:4d} scans)  {where}"
        )

    # Data reduction: what raw scan shipping would have cost vs clusters.
    device_ctx = phone.node.contexts[localization.EXPERIMENT_ID]
    dbscan = device_ctx.scripts["clustering"].namespace["dbscan"]
    cluster_bytes = sum(message_size_bytes(c) for c in database)
    approx_scan_bytes = 300  # a sanitized scan message is a few hundred B
    raw_bytes = dbscan.samples_seen * approx_scan_bytes
    print(
        f"\nscans processed on-device: {dbscan.samples_seen}"
        f"  (≈{raw_bytes / 1e6:.1f} MB if shipped raw)"
    )
    print(
        f"cluster bytes actually sent: {cluster_bytes / 1e3:.1f} kB"
        f"  → reduction {(1 - cluster_bytes / raw_bytes) * 100:.1f}%"
    )
    print(f"phone energy over {DAYS} days: {phone.phone.energy_joules:.0f} J")


if __name__ == "__main__":
    main()
