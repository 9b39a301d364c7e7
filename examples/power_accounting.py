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

from functools import partial

from repro.apps import battery_monitor, localization
from repro.apps.energy_study import power_run
from repro.core.power_model import joules_table, script_joules

HOURS = 6


def main() -> None:
    experiments = [localization.build_experiment(), battery_monitor.build_experiment()]
    print(f"per-script joules after {HOURS} simulated hours:\n")
    run = partial(power_run, seed=13, hours=HOURS)
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
