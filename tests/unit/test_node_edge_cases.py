"""Unit tests for node-level edge cases and protocol robustness."""

import pytest

from repro.core.deployment import (
    OP_TEARDOWN,
    attach_op,
    deploy_op,
    pub_op,
    teardown_op,
    undeploy_op,
)
from repro.core.node import CollectorNode, DeviceNode, Node
from repro.device import Phone, PhoneOffline, RadioUnavailable, WifiUnavailable
from repro.net.transport import TransportError
from repro.net.xmpp import XmppServer
from repro.sim import HOUR, Kernel, MINUTE, SECOND


def make_pair():
    kernel = Kernel()
    server = XmppServer(kernel, latency_ms=10.0)
    phone = Phone(kernel, "dev@x")
    device = DeviceNode(kernel, phone, server, "dev@x")
    collector = CollectorNode(kernel, server, "pc@x")
    server.add_roster_pair("dev@x", "pc@x")
    collector.start()
    device.start()
    kernel.run_until(30 * SECOND)
    return kernel, server, phone, device, collector


def test_unknown_op_ignored():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", {"op": "mystery", "ctx": "exp"})
    kernel.run_until(kernel.now + 30 * SECOND)
    assert device.contexts == {}  # nothing blew up, nothing created


def test_pub_for_unknown_context_ignored():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", pub_op("ghost", "ch", {"x": 1}))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert "ghost" not in device.contexts


def test_undeploy_and_teardown():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", deploy_op("exp", "s", "x = 1\n"))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert "s" in device.contexts["exp"].scripts
    collector.send_to("dev@x", undeploy_op("exp", "s"))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert device.contexts["exp"].scripts == {}
    collector.send_to("dev@x", teardown_op("exp"))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert "exp" not in device.contexts


def test_undeploy_unknown_script_is_harmless():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", attach_op("exp"))
    collector.send_to("dev@x", undeploy_op("exp", "never-deployed"))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert device.contexts["exp"].scripts == {}


def test_flush_with_empty_buffer_is_cheap_noop():
    kernel, server, phone, device, collector = make_pair()
    sent_before = device.transport.stanzas_sent
    assert device.flush("manual") == 0
    kernel.run_until(kernel.now + 5 * SECOND)
    assert device.transport.stanzas_sent == sent_before


def test_flush_while_disconnected_returns_zero():
    kernel, server, phone, device, collector = make_pair()
    device.send_to("pc@x", {"op": "pub", "ctx": "x", "channel": "c", "msg": 1})
    phone.set_cell_coverage(False)
    assert device.flush("manual") == 0
    assert len(device.buffer) == 1


def test_send_while_suspended_dropped():
    kernel, server, phone, device, collector = make_pair()
    phone.reboot(downtime_ms=1 * MINUTE)
    assert device._suspended
    device.send_to("pc@x", {"op": "noise"})
    assert len(device.buffer) == 0
    kernel.run_until(kernel.now + 5 * MINUTE)
    assert not device._suspended


def test_deploy_creates_context_exactly_once():
    kernel, server, phone, device, collector = make_pair()
    created = []
    device.on_context_added.append(created.append)
    collector.send_to("dev@x", attach_op("exp"))
    collector.send_to("dev@x", deploy_op("exp", "a", "x = 1\n"))
    collector.send_to("dev@x", deploy_op("exp", "b", "y = 2\n"))
    kernel.run_until(kernel.now + 30 * SECOND)
    assert len(created) == 1
    assert set(device.contexts["exp"].scripts) == {"a", "b"}


def test_script_error_on_deploy_does_not_kill_node():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", deploy_op("exp", "broken", "raise ValueError('x')\n"))
    collector.send_to("dev@x", deploy_op("exp", "fine", "x = 1\n"))
    kernel.run_until(kernel.now + 30 * SECOND)
    context = device.contexts["exp"]
    # Both scripts deployed; the broken one recorded its failure.
    assert context.scripts["fine"].namespace["x"] == 1
    assert context.scripts["broken"].errors


def test_node_stop_is_clean():
    kernel, server, phone, device, collector = make_pair()
    collector.send_to("dev@x", deploy_op("exp", "s", "subscribe('ch', lambda m: None)\n"))
    kernel.run_until(kernel.now + 30 * SECOND)
    device.stop()
    assert not device.detector.running
    assert device.scheduler.stopped
    assert not device.contexts["exp"].broker.has_subscribers("ch")


# ---------------------------------------------------------------------------
# The one send path
# ---------------------------------------------------------------------------


class _RaisingTransport:
    def __init__(self, exc):
        self.exc = exc

    def send(self, to_jid, stanza):
        raise self.exc


@pytest.mark.parametrize(
    "exc", [TransportError, PhoneOffline, RadioUnavailable, WifiUnavailable]
)
def test_a_send_with_no_connection_is_left_to_the_reliable_layer(exc):
    kernel, server, phone, device, collector = make_pair()
    device.transport = _RaisingTransport(exc("down"))
    link = device.link_for("pc@x")
    link.send({"op": "mystery", "ctx": "exp"})
    assert link.unacked_count == 1  # kept; the next flush resends it


def test_a_bug_under_the_send_path_propagates():
    kernel, server, phone, device, collector = make_pair()

    class Broken(Phone):
        __slots__ = ()

        def transfer(self, *args, **kwargs):
            raise ValueError("bug in the radio model")

    phone.__class__ = Broken
    with pytest.raises(ValueError, match="radio model"):
        device.link_for("pc@x").send({"op": "mystery", "ctx": "exp"})


@pytest.mark.parametrize(
    "name", ["link_for", "_raw_send", "_send_ack", "_handle_payload"]
)
def test_both_nodes_run_the_same_core_method(name):
    # Section 4.2: one middleware.  A copy pasted back into either
    # subclass would shadow the core's.
    assert (
        getattr(DeviceNode, name)
        is getattr(CollectorNode, name)
        is getattr(Node, name)
    )
