"""Unit tests for the microphone sensor."""

import pytest

from repro.core.context import DeviceContext
from repro.core.node import DeviceNode
from repro.device import Phone
from repro.net.xmpp import XmppServer
from repro.sensors.microphone import AMBIENT_DB, MicrophoneSensor, ambient_db_for
from repro.sim import Kernel, MINUTE, RandomStreams, SECOND


def make_device():
    kernel = Kernel()
    phone = Phone(kernel, "dev@x")
    node = DeviceNode(kernel, phone, XmppServer(kernel), "dev@x")
    context = DeviceContext(node, "exp", "pc@x")
    node.contexts["exp"] = context
    node.sensor_manager.on_context_added(context)
    return kernel, phone, node, context


def test_ambient_db_for_categories():
    assert ambient_db_for(None) == AMBIENT_DB["street"]
    assert ambient_db_for("office") == AMBIENT_DB["office"]
    assert ambient_db_for("unknown-category") == AMBIENT_DB["generic"]
    assert ambient_db_for("cafe") > ambient_db_for("home")


def test_sampling_publishes_levels():
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone, rng=RandomStreams(1).stream("mic"))
    sensor.level_source = lambda: 55.0
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("audio", got.append, {"interval": 30 * SECOND})
    kernel.run_until(5 * MINUTE)
    assert len(got) >= 9
    for reading in got:
        assert sensor.floor_db <= reading["db"] <= sensor.ceiling_db
        assert reading["peak_db"] >= reading["db"]


def _levels(**sensor_kwargs):
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone, **sensor_kwargs)
    sensor.level_source = lambda: 55.0
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("audio", got.append, {"interval": 30 * SECOND})
    kernel.run_until(5 * MINUTE)
    return [(m["db"], m["peak_db"]) for m in got]


def test_stream_taken_from_the_registry_on_first_draw_matches_eager():
    eager = _levels(rng=RandomStreams(5).stream("microphone/dev@x"))
    streams = RandomStreams(5)
    assert "microphone/dev@x" not in streams
    lazy = _levels(rng=streams, stream="microphone/dev@x")
    assert lazy == eager and len(set(lazy)) > 1
    assert "microphone/dev@x" in streams


def test_levels_clipped_to_microphone_range():
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone)
    sensor.level_source = lambda: 140.0  # jet engine
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("audio", got.append, {"interval": 30 * SECOND})
    kernel.run_until(MINUTE)
    assert got[0]["db"] == sensor.ceiling_db


def test_power_draw_follows_demand():
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone)
    node.sensor_manager.register(sensor)
    assert phone.rail.draw_of("microphone") == 0.0
    sub = context.broker.subscribe("audio", lambda m: None)
    assert phone.rail.draw_of("microphone") == pytest.approx(sensor.active_power_w)
    sub.remove()
    assert phone.rail.draw_of("microphone") == 0.0


def test_privacy_block_covers_audio():
    """The most privacy-sensitive channel honours the owner's block."""
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone)
    node.sensor_manager.register(sensor)
    node.privacy.block("audio")
    context.broker.subscribe("audio", lambda m: None)
    assert not sensor.enabled
    assert phone.rail.draw_of("microphone") == 0.0


def test_no_source_defaults_quiet():
    kernel, phone, node, context = make_device()
    sensor = MicrophoneSensor(phone)
    node.sensor_manager.register(sensor)
    got = []
    context.broker.subscribe("audio", got.append, {"interval": 30 * SECOND})
    kernel.run_until(MINUTE)
    assert got and got[0]["db"] == 40.0
