"""Unit tests for context/broker synchronization across the link.

These exercise DeviceContext and CollectorContext directly with a fake
node, checking the op-level protocol: subscription mirroring, remote
proxies, pub forwarding and fan-out.
"""

import pytest

from repro.core.context import LINK_OWNER, DeviceContext
from repro.core.deployment import (
    OP_PUB,
    OP_SUB_ADD,
    OP_SUB_RELEASE,
    OP_SUB_REMOVE,
    OP_SUB_RENEW,
    sub_add_op,
    sub_change_op,
)
from repro.core.multibroker import CollectorContext
from repro.core.scheduler import PogoScheduler
from repro.core.scripting import FreezeStore
from repro.device.cpu import MainsCpu
from repro.sim import Kernel


class FakeNode:
    """Just enough node surface for contexts: records sends."""

    def __init__(self):
        self.kernel = Kernel()
        self.jid = "fake@x"
        self.scheduler = PogoScheduler(self.kernel, MainsCpu(self.kernel))
        self.freeze_store = FreezeStore()
        self.sent = []

    def send_to(self, peer, payload):
        self.sent.append((peer, payload))

    def ops(self, op):
        return [p for _, p in self.sent if p.get("op") == op]


def test_device_script_subscription_mirrored_to_collector():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    sub = context.broker.subscribe("cmd", lambda m: None, {"p": 1}, owner="script:s")
    adds = node.ops(OP_SUB_ADD)
    assert len(adds) == 1
    assert adds[0]["channel"] == "cmd"
    assert adds[0]["params"] == {"p": 1}
    sub.release()
    assert node.ops(OP_SUB_RELEASE)
    sub.renew()
    assert node.ops(OP_SUB_RENEW)
    sub.remove()
    assert node.ops(OP_SUB_REMOVE)


def test_proxy_subscriptions_not_mirrored():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    context.apply_sub_op(sub_add_op("exp", 42, "battery", {"interval": 60000}))
    # The remote proxy exists in the broker (sensors see it)...
    subs = context.broker.subscriptions("battery")
    assert len(subs) == 1
    assert subs[0].owner == LINK_OWNER
    assert subs[0].parameters == {"interval": 60000}
    # ...but no sub_add went back over the wire.
    assert node.ops(OP_SUB_ADD) == []


def test_publish_forwarded_only_with_remote_interest():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    context.publish_internal("battery", {"v": 1})
    assert node.ops(OP_PUB) == []
    context.apply_sub_op(sub_add_op("exp", 1, "battery", None))
    context.publish_internal("battery", {"v": 2})
    pubs = node.ops(OP_PUB)
    assert len(pubs) == 1
    assert pubs[0]["msg"] == {"v": 2}


def test_released_proxy_stops_forwarding():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    context.apply_sub_op(sub_add_op("exp", 1, "battery", None))
    context.apply_sub_op(sub_change_op(OP_SUB_RELEASE, "exp", 1))
    context.publish_internal("battery", {"v": 1})
    assert node.ops(OP_PUB) == []
    context.apply_sub_op(sub_change_op(OP_SUB_RENEW, "exp", 1))
    context.publish_internal("battery", {"v": 2})
    assert len(node.ops(OP_PUB)) == 1


def test_sub_add_same_id_replaces_proxy():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    context.apply_sub_op(sub_add_op("exp", 1, "battery", None))
    context.apply_sub_op(sub_add_op("exp", 1, "battery", {"interval": 5000}))
    subs = context.broker.subscriptions("battery")
    assert len(subs) == 1
    assert subs[0].parameters == {"interval": 5000}


def test_deliver_remote_skips_proxies():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    got = []
    context.broker.subscribe("cmd", got.append, owner="script:s")
    context.apply_sub_op(sub_add_op("exp", 1, "cmd", None))  # proxy on same channel
    delivered = context.deliver_remote("cmd", {"go": True})
    assert delivered == 1
    assert got == [{"go": True}]
    # Crucially, nothing was forwarded back (no loop).
    assert node.ops(OP_PUB) == []


def test_clear_remote_subs():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    context.apply_sub_op(sub_add_op("exp", 1, "battery", None))
    context.clear_remote_subs()
    assert context.broker.subscriptions("battery") == []


def test_announce_local_subs_replays_state():
    node = FakeNode()
    context = DeviceContext(node, "exp", "pc@x")
    sub = context.broker.subscribe("cmd", lambda m: None, owner="script:s")
    sub.release()
    node.sent.clear()
    context.sync_subscriptions_to("pc@x")
    assert [(peer, p["op"]) for peer, p in node.sent] == [
        ("pc@x", OP_SUB_ADD), ("pc@x", OP_SUB_RELEASE),
    ]


# ---------------------------------------------------------------------------
# Collector side
# ---------------------------------------------------------------------------


def test_collector_subscription_fans_out_to_all_devices():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.attach_device("d1@x")
    context.attach_device("d2@x")
    node.sent.clear()
    context.broker.subscribe("battery", lambda m: None, owner="script:collect")
    adds = node.ops(OP_SUB_ADD)
    assert {peer for peer, p in node.sent if p.get("op") == OP_SUB_ADD} == {"d1@x", "d2@x"}
    assert len(adds) == 2


def test_late_attached_device_gets_existing_subs_and_scripts():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.device_scripts = {"scan": "x = 1\n"}
    context.broker.subscribe("battery", lambda m: None, owner="script:collect")
    node.sent.clear()
    context.attach_device("late@x")
    ops = [p["op"] for peer, p in node.sent if peer == "late@x"]
    assert "attach" in ops
    assert "deploy" in ops
    assert OP_SUB_ADD in ops


def test_collector_publish_fans_out_only_to_interested_devices():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.attach_device("d1@x")
    context.attach_device("d2@x")
    context.apply_sub_op("d1@x", sub_add_op("exp", 7, "cmd", None))
    node.sent.clear()
    context.publish_from_script(None, "cmd", {"go": 1})
    pub_targets = [peer for peer, p in node.sent if p.get("op") == OP_PUB]
    assert pub_targets == ["d1@x"]


def test_deliver_remote_tags_origin_device():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.attach_device("d1@x")
    got = []
    context.broker.subscribe("clusters", got.append, owner="script:collect")
    context.deliver_remote("d1@x", "clusters", {"entry": 1})
    assert got == [{"entry": 1, "_device": "d1@x"}]


def test_service_subscriptions_not_fanned_out():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.attach_device("d1@x")
    node.sent.clear()
    context.broker.subscribe("geo-lookup", lambda m: None, owner="service:geo")
    assert node.ops(OP_SUB_ADD) == []
    node.sent.clear()
    context.sync_subscriptions_to("d1@x")
    assert node.ops(OP_SUB_ADD) == []


def test_reset_device_subs():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    link = context.attach_device("d1@x")
    context.apply_sub_op("d1@x", sub_add_op("exp", 7, "cmd", None))
    assert link.interested_in("cmd")
    context.reset_device_subs("d1@x")
    assert not link.interested_in("cmd")


def test_push_script_updates_fleet():
    node = FakeNode()
    context = CollectorContext(node, "exp")
    context.attach_device("d1@x")
    context.attach_device("d2@x")
    node.sent.clear()
    context.push_script("scan", "y = 2\n")
    deploys = node.ops("deploy")
    assert len(deploys) == 2
    assert all(p["source"] == "y = 2\n" for p in deploys)


# ---------------------------------------------------------------------------
# One context core (Section 4.2: both ends run the same middleware)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "deploy_script", "stop_all_scripts", "_root_span", "_deliver_local",
    "_is_local_plumbing", "_on_local_sub_change", "sync_subscriptions_to",
])
def test_both_contexts_run_the_same_core_method(name):
    # A copy pasted back into either subclass would shadow the core's.
    assert getattr(DeviceContext, name) is getattr(CollectorContext, name)
