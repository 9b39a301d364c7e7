"""The battery-monitoring experiment: the Table 3 / Figure 4 workload.

"In the experiments where Pogo was running it was sampling the battery
sensor every minute.  Because of the synchronization mechanism these
values were reported in batches of five whenever the e-mail application
checked for updates" (Section 5.2).

There is no device script at all: the collector's subscription to the
``battery`` channel propagates to every device and switches the battery
sensor on — the cross-network sensor activation of Section 4.2.
"""

from __future__ import annotations

from ..core.deployment import Experiment

EXPERIMENT_ID = "battery-monitor"

#: The battery sensor's sampling interval: "every minute".
INTERVAL_MS = 60_000


def build_collect_script() -> str:
    return f'''setDescription('Fleet-wide battery voltage collection')

readings = []


def handle(msg):
    readings.append(msg)
    logTo('battery', json(msg))


subscribe('battery', handle, {{'interval': {INTERVAL_MS}}})
'''


def build_experiment() -> Experiment:
    return Experiment(
        experiment_id=EXPERIMENT_ID,
        description="Sample battery voltage across the fleet",
        collector_scripts={"collect": build_collect_script()},
    )
