"""Unit tests for sensors, the sensor manager and privacy controls."""

import pytest

from repro.core.node import CollectorNode, DeviceNode
from repro.device import Phone
from repro.net.xmpp import XmppServer
from repro.sensors import (
    AccelerometerSensor,
    BatterySensor,
    LocationSensor,
    WifiScanSensor,
)
from repro.sensors.location import PROVIDER_GPS, PROVIDER_NETWORK
from repro.sim import Kernel, MINUTE, RandomStreams, SECOND
from repro.world.geometry import Point


def make_device():
    kernel = Kernel()
    server = XmppServer(kernel)
    phone = Phone(kernel, "dev@x")
    node = DeviceNode(kernel, phone, server, "dev@x")
    # Create a context by hand (normally done by a deploy op).
    from repro.core.context import DeviceContext

    context = DeviceContext(node, "exp", "pc@x")
    node.contexts["exp"] = context
    node.sensor_manager.on_context_added(context)
    return kernel, phone, node, context


def test_sensor_off_without_subscribers():
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    assert not sensor.enabled
    kernel.run_until(5 * MINUTE)
    assert sensor.sample_count == 0


def test_sensor_enables_on_subscription_and_disables_on_removal():
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    sub = context.broker.subscribe("battery", lambda m: None, {"interval": MINUTE})
    assert sensor.enabled
    kernel.run_until(3.5 * MINUTE)
    # First sample ~1 s after activation, then at the 1-minute interval.
    assert sensor.sample_count == 4
    sub.remove()
    assert not sensor.enabled
    kernel.run_until(10 * MINUTE)
    assert sensor.sample_count == 4


def test_release_renew_toggle_sensor():
    """RogueFinder's core behaviour (Listing 2)."""
    kernel, phone, node, context = make_device()
    sensor = WifiScanSensor(phone)
    phone.wifi.scan_source = lambda: []
    node.sensor_manager.register(sensor)
    sub = context.broker.subscribe("wifi-scan", lambda m: None)
    assert sensor.enabled
    sub.release()
    assert not sensor.enabled
    sub.renew()
    assert sensor.enabled


def test_highest_rate_wins():
    """Section 3.5: two scripts, scan at the highest frequency."""
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    slow = context.broker.subscribe("battery", lambda m: None, {"interval": 5 * MINUTE})
    assert sensor.interval_ms == 5 * MINUTE
    fast = context.broker.subscribe("battery", lambda m: None, {"interval": MINUTE})
    assert sensor.interval_ms == MINUTE
    fast.remove()
    assert sensor.interval_ms == 5 * MINUTE
    slow.remove()


def test_sensor_publishes_into_context():
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("battery", got.append, {"interval": MINUTE})
    kernel.run_until(MINUTE + SECOND)
    assert got
    assert set(got[0]) >= {"voltage", "level", "timestamp"}


def test_wifi_scan_sensor_holds_wake_lock_during_scan():
    kernel, phone, node, context = make_device()
    sensor = WifiScanSensor(phone)
    phone.wifi.scan_source = lambda: []
    node.sensor_manager.register(sensor)
    context.broker.subscribe("wifi-scan", lambda m: None, {"interval": MINUTE})
    # Second scan starts at ~61 s and takes 1.5 s.
    kernel.run_until(MINUTE + 1.5 * SECOND)
    assert phone.cpu.holds_wake_lock("wifi-scan")
    kernel.run_until(MINUTE + 3 * SECOND)
    assert not phone.cpu.holds_wake_lock("wifi-scan")
    assert sensor.completed_scans == 2


def test_location_sensor_provider_selection():
    """Section 4.3: provider comes from subscription parameters."""
    kernel, phone, node, context = make_device()
    sensor = LocationSensor(phone)
    sensor.position_source = lambda: Point(10.0, 20.0)
    node.sensor_manager.register(sensor)
    network_sub = context.broker.subscribe("locations", lambda m: None)
    assert sensor.provider == PROVIDER_NETWORK
    assert phone.rail.draw_of("gps") == 0.0
    gps_sub = context.broker.subscribe("locations", lambda m: None, {"provider": "GPS"})
    assert sensor.provider == PROVIDER_GPS
    assert phone.rail.draw_of("gps") == pytest.approx(sensor.gps_power_w)
    gps_sub.remove()
    assert sensor.provider == PROVIDER_NETWORK
    assert phone.rail.draw_of("gps") == 0.0


def test_location_fix_shape_and_gps_delay():
    kernel, phone, node, context = make_device()
    sensor = LocationSensor(phone)
    sensor.position_source = lambda: Point(0.0, 0.0)
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe(
        "locations", got.append, {"provider": "GPS", "interval": MINUTE}
    )
    kernel.run_until(MINUTE + sensor.gps_fix_ms + SECOND)
    assert got
    fix = got[0]
    assert fix["provider"] == PROVIDER_GPS
    assert fix["accuracy"] == sensor.gps_accuracy_m
    assert abs(fix["lat"] - 52.0022) < 0.01


def test_accelerometer_reflects_activity():
    kernel, phone, node, context = make_device()
    activity = ["still"]
    sensor = AccelerometerSensor(phone, rng=RandomStreams(1).stream("a"))
    sensor.activity_source = lambda: activity[0]
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("accel", got.append, {"interval": 5 * SECOND})
    kernel.run_until(6 * SECOND)
    still_std = got[-1]["std"]
    activity[0] = "walking"
    kernel.run_until(12 * SECOND)
    walking_std = got[-1]["std"]
    assert walking_std > still_std * 5


def _accel_windows(**sensor_kwargs):
    kernel, phone, node, context = make_device()
    sensor = AccelerometerSensor(phone, **sensor_kwargs)
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("accel", got.append, {"interval": 5 * SECOND})
    kernel.run_until(MINUTE)
    return [(m["mean"], m["std"], m["peak"]) for m in got]


def test_stream_taken_from_the_registry_on_first_draw_matches_eager():
    eager = _accel_windows(rng=RandomStreams(5).stream("accel/dev@x"))
    streams = RandomStreams(5)
    lazy = _accel_windows(rng=streams, stream="accel/dev@x")
    assert lazy == eager and len(set(lazy)) > 1
    assert "accel/dev@x" in streams


def test_unsampled_sensor_seeds_nothing():
    kernel, phone, node, context = make_device()
    streams = RandomStreams(5)
    node.sensor_manager.register(
        AccelerometerSensor(phone, rng=streams, stream="accel/dev@x")
    )
    kernel.run_until(MINUTE)
    assert "accel/dev@x" not in streams


def test_privacy_block_disables_sensor_and_suppresses_publishes():
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    context.broker.subscribe("battery", lambda m: None, {"interval": MINUTE})
    assert sensor.enabled
    node.privacy.block("battery")
    assert not sensor.enabled
    # Direct publishes are suppressed too.
    delivered = node.sensor_manager.publish("battery", {"voltage": 4.0})
    assert delivered == 0
    assert node.privacy.suppressed_publishes == 1
    node.privacy.allow("battery")
    assert sensor.enabled


def test_duplicate_sensor_channel_rejected():
    kernel, phone, node, context = make_device()
    node.sensor_manager.register(BatterySensor(phone))
    with pytest.raises(ValueError):
        node.sensor_manager.register(BatterySensor(phone))


def test_sensor_skips_sampling_while_phone_dead():
    kernel, phone, node, context = make_device()
    sensor = BatterySensor(phone)
    node.sensor_manager.register(sensor)
    context.broker.subscribe("battery", lambda m: None, {"interval": MINUTE})
    phone.alive = False  # crude: sample() checks alive
    kernel.run_until(2 * MINUTE)
    assert sensor.publish_count == 0
