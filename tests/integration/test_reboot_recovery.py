"""Integration: reboots, script updates, and freeze/thaw recovery.

Section 5.3's failure modes and the fix the paper shipped afterwards.
"""

import pytest

from repro.apps import battery_monitor, localization
from repro.core.services import install_geolocation
from repro.sim import HOUR, MINUTE


def test_reboot_resumes_collection(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(battery_monitor.build_experiment(), [device.jid])
    sim.run(hours=0.5)
    before = len(context.scripts["collect"].namespace["readings"])
    assert before > 20

    device.phone.reboot()
    sim.run(hours=1)
    after = len(context.scripts["collect"].namespace["readings"])
    # Collection resumed: roughly a full hour of additional samples.
    assert after - before > 40
    # The battery sensor was re-activated after the collector re-synced
    # its subscriptions on the device's presence.
    assert device.node.sensor_manager.sensors["battery"].enabled


def test_reboot_loses_unfrozen_cluster_state(sim):
    """Without freeze/thaw, a reboot mid-dwell truncates the cluster."""
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    experiment = localization.build_experiment(with_freeze=False)
    context = collector.node.deploy(experiment, [device.jid])
    # Overnight dwell at home: reboot at 3 AM, well inside the cluster.
    sim.run(hours=3)
    device.phone.reboot()
    sim.run(hours=9)  # past the end of the overnight dwell (~9.3 h)
    database = context.scripts["collect"].namespace["database"]
    assert database
    # The first reported cluster starts *after* the reboot: the earlier
    # half of the night was lost with the script state.
    assert database[0]["entry"] > 3 * HOUR


def test_freeze_thaw_preserves_cluster_across_reboot(sim):
    """With the post-deployment fix, the same reboot loses nothing."""
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    experiment = localization.build_experiment(with_freeze=True)
    context = collector.node.deploy(experiment, [device.jid])
    sim.run(hours=3)
    device.phone.reboot()
    sim.run(hours=9)  # past the end of the overnight dwell (~9.3 h)
    database = context.scripts["collect"].namespace["database"]
    assert database
    # Entry time is from the beginning of the night despite the reboot.
    assert database[0]["entry"] < 1 * HOUR


def test_script_update_reloads_fleet_and_preserves_frozen_state(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    experiment = localization.build_experiment(with_freeze=True)
    context = collector.node.deploy(experiment, [device.jid])
    sim.run(hours=2)

    dctx = device.node.contexts[localization.EXPERIMENT_ID]
    assert dctx.scripts["clustering"].load_count == 1
    # Researcher pushes a new (identical) version mid-run.
    collector.node.push_script(
        localization.EXPERIMENT_ID,
        "clustering",
        localization.build_clustering_script(with_freeze=True),
    )
    sim.run(hours=10)  # past the end of the overnight dwell (~9.3 h)
    assert dctx.scripts["clustering"].load_count == 2
    database = context.scripts["collect"].namespace["database"]
    assert database
    # Frozen state carried the overnight cluster through the update.
    assert database[0]["entry"] < 1 * HOUR


def test_undeploy_stops_script_and_sensor(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(battery_monitor.build_experiment(), [device.jid])
    sim.run(hours=0.2)
    assert device.node.sensor_manager.sensors["battery"].enabled
    # Tear the whole experiment down on the device.
    context.detach_device(device.jid)
    sim.run(hours=0.2)
    assert localization.EXPERIMENT_ID not in device.node.contexts
    assert not device.node.sensor_manager.sensors["battery"].enabled
