"""Integration: device sharing and experiment isolation (Section 3.1).

"researchers share devices between them and multiple sensing applications
run concurrently on each device" — contexts sandbox the experiments, and
the sensor manager serves the union of their demand.
"""

import pytest

from repro.apps import battery_monitor
from repro.core.deployment import Experiment
from repro.sim import HOUR, MINUTE

PUBLISHER = """
counter = [0]

def tick():
    counter[0] += 1
    publish('heartbeat', {'n': counter[0]})
    setTimeout(tick, 60 * 1000)

def start():
    tick()
"""

EAVESDROPPER = """
overheard = []
subscribe('heartbeat', lambda m: overheard.append(m))
"""


def test_two_experiments_isolated_on_one_device(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(collector, [device])

    exp_a = Experiment("exp-a", device_scripts={"publisher": PUBLISHER})
    exp_b = Experiment("exp-b", device_scripts={"eavesdropper": EAVESDROPPER})
    collector.node.deploy(exp_a, [device.jid])
    collector.node.deploy(exp_b, [device.jid])
    sim.run(hours=1)

    ctx_a = device.node.contexts["exp-a"]
    ctx_b = device.node.contexts["exp-b"]
    # The publisher ran...
    assert ctx_a.scripts["publisher"].namespace["counter"][0] >= 50
    # ...but the other experiment's script heard nothing: contexts are
    # sandboxes ("scripts can only communicate within the same
    # experiment", Section 4.2).
    assert ctx_b.scripts["eavesdropper"].namespace["overheard"] == []


def test_two_researchers_share_one_device(sim):
    alice = sim.add_collector("alice")
    bob = sim.add_collector("bob")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(alice, [device])
    sim.assign(bob, [device])

    ctx_alice = alice.node.deploy(battery_monitor.build_experiment(), [device.jid])
    # Bob asks for half Alice's rate.
    half_rate = battery_monitor.build_collect_script().replace(
        f"'interval': {battery_monitor.INTERVAL_MS}", "'interval': 120000"
    )
    assert half_rate != battery_monitor.build_collect_script()
    bob_exp = Experiment("bob-battery", collector_scripts={"collect": half_rate})
    ctx_bob = bob.node.deploy(bob_exp, [device.jid])
    sim.run(hours=1)

    alice_readings = ctx_alice.scripts["collect"].namespace["readings"]
    bob_readings = ctx_bob.scripts["collect"].namespace["readings"]
    # Both researchers receive data from the shared device.
    assert len(alice_readings) >= 50
    assert len(bob_readings) >= 25
    # One battery sensor served both subscriptions at the highest rate.
    sensor = device.node.sensor_manager.sensors["battery"]
    assert sensor.interval_ms == 60_000.0


def test_device_pool_request_and_deploy(sim):
    """The administrator's brokering workflow end to end."""
    collector = sim.add_collector("alice")
    devices = [sim.add_device(with_email_app=True) for _ in range(5)]
    sim.start()
    chosen = sim.admin.request_devices(collector.jid, 3)
    assert len(chosen) == 3
    context = collector.node.deploy(battery_monitor.build_experiment(), chosen)
    sim.run(hours=0.5)
    readings = context.scripts["collect"].namespace["readings"]
    assert {r["_device"] for r in readings} == set(chosen)
