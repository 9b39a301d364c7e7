"""Unit tests for the PogoSimulation facade."""

import pytest

from repro.core.middleware import PogoSimulation
from repro.core.tailsync import PeriodicPolicy
from repro.device.radio import T_MOBILE
from repro.sim import HOUR, MINUTE
from repro.world.mobility import UserProfile
from repro.world.rssi import PropagationModel


def test_add_device_enrolls_with_admin():
    sim = PogoSimulation(seed=1)
    device = sim.add_device()
    assert device.jid in sim.admin.devices
    assert sim.server.registered(device.jid)


def test_add_collector_enrolls_researcher():
    sim = PogoSimulation(seed=1)
    collector = sim.add_collector("alice")
    assert collector.jid == "alice@pogo"
    assert collector.jid in sim.admin.researchers


def test_carrier_override():
    sim = PogoSimulation(seed=1)
    device = sim.add_device(carrier=T_MOBILE)
    assert device.phone.modem.profile.name == "T-Mobile"


def test_policy_override():
    sim = PogoSimulation(seed=1)
    device = sim.add_device(policy=PeriodicPolicy(interval_ms=HOUR))
    assert device.node.policy.name == "periodic"


def test_world_wiring_installs_sources():
    sim = PogoSimulation(seed=1)
    device = sim.add_device(world_days=1)
    assert device.user_world is not None
    assert device.phone.wifi.scan_source is not None
    location = device.node.sensor_manager.sensors["locations"]
    assert location.position_source is not None


def test_device_without_world_has_no_scan_source():
    sim = PogoSimulation(seed=1)
    device = sim.add_device()
    assert device.user_world is None
    assert device.phone.wifi.scan_source is None


def test_custom_propagation_and_profile():
    sim = PogoSimulation(seed=1)
    harsh = PropagationModel(sigma_db=8.0)
    device = sim.add_device(
        world_days=1,
        user_profile=UserProfile(name="u", lifestyle="mobile"),
        propagation=harsh,
    )
    assert device.user_world.propagation.sigma_db == 8.0


def test_run_requires_positive_duration():
    sim = PogoSimulation(seed=1)
    with pytest.raises(ValueError):
        sim.run()
    with pytest.raises(ValueError):
        sim.run(hours=0)


def test_run_accumulates_durations():
    sim = PogoSimulation(seed=1)
    sim.start()
    sim.run(hours=1, duration_ms=30 * MINUTE)
    assert sim.kernel.now == 1.5 * HOUR


def test_start_is_idempotent():
    sim = PogoSimulation(seed=1)
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.start()
    sim.run(hours=0.2)
    # Email app started exactly once: checks every 5 min, ~2 so far.
    assert device.email_app().check_count <= 3


def test_email_app_helper():
    sim = PogoSimulation(seed=1)
    with_app = sim.add_device(with_email_app=True)
    without_app = sim.add_device()
    assert with_app.email_app() is not None
    assert without_app.email_app() is None
