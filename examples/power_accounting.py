#!/usr/bin/env python
"""Per-script energy (the paper's Section 6 future work), measured.

"In the future we would like to implement power modelling to estimate
the resource consumption of individual scripts."  This example runs two
experiments side by side on one phone — the localization pipeline and a
fleet battery monitor — and measures each script's joules on the power
rail the way the paper's Table 3 prices Pogo: the same seeded run with
the script and without it.

Run:  python examples/power_accounting.py
"""

from repro import PogoSimulation
from repro.apps import battery_monitor, localization
from repro.core.power_model import joules_table, script_joules
from repro.core.services import GeolocationBridge
from repro.world.geolocation import GeolocationService

HOURS = 6


def run(experiments):
    """One seeded 6-hour run with exactly these experiments deployed."""
    sim = PogoSimulation(seed=13)
    researcher = sim.add_collector("alice")
    phone = sim.add_device(world_days=1, with_email_app=True)

    service = GeolocationService()
    for group in phone.user_world.places.values():
        for place in group:
            service.register_all(place.access_points)
    researcher.node.add_service(GeolocationBridge(service))

    sim.start()
    sim.assign(researcher, [phone])
    # Experiments sharing one device (Section 3.1's many-to-many).
    for experiment in experiments:
        researcher.node.deploy(experiment, [phone.jid])
    sim.run(hours=HOURS)
    return phone


def main() -> None:
    experiments = [localization.build_experiment(), battery_monitor.build_experiment()]
    print(f"per-script joules after {HOURS} simulated hours:\n")
    print(joules_table(*script_joules(run, experiments)))
    print(
        "\nThe localization 'scan' script dominates: its Wi-Fi scans and the"
        "\nCPU they keep awake.  The battery monitor costs no CPU of its own,"
        "\nsince the scan's once-a-minute wakeups would happen anyway (that"
        "\nCPU is in the shared row); what it adds is Wi-Fi, for shipping its"
        "\nreadings to the collector.  The no-script row is what the phone,"
        "\nits e-mail app and Pogo itself draw with nothing deployed."
    )


if __name__ == "__main__":
    main()
