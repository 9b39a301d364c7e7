"""Unit tests for collector-side services (geolocation bridge)."""

import pytest

from repro.core.multibroker import CollectorContext
from repro.core.node import CollectorNode
from repro.core.services import GEO_LOOKUP_CHANNEL, GEO_RESULT_CHANNEL, GeolocationBridge
from repro.net.xmpp import XmppServer
from repro.sim import Kernel
from repro.world.geolocation import GeolocationService
from repro.world.geometry import Point
from repro.world.places import AccessPoint


def _service(aps):
    service = GeolocationService()
    service.register_all(aps)
    return service


def make_context_with_bridge(aps=()):
    kernel = Kernel()
    server = XmppServer(kernel)
    node = CollectorNode(kernel, server, "pc@x")
    context = CollectorContext(node, "exp")
    service = _service(aps)
    bridge = GeolocationBridge(service)
    bridge.attach_context(context)
    return kernel, context, bridge


def ap(bssid, x, y):
    return AccessPoint(bssid=bssid, ssid="n", position=Point(x, y))


def test_lookup_round_trip():
    kernel, context, bridge = make_context_with_bridge([ap("aa:aa:aa:aa:aa:aa", 10.0, 20.0)])
    results = []
    context.broker.subscribe(GEO_RESULT_CHANNEL, results.append, owner="script:collect")
    context.broker.publish(GEO_LOOKUP_CHANNEL, {"id": 7, "vector": {"aa:aa:aa:aa:aa:aa": 0.9}})
    assert len(results) == 1
    assert results[0]["id"] == 7
    fix = results[0]["fix"]
    assert fix is not None
    assert fix["matched"] == 1
    assert abs(fix["lat"] - 52.0) < 0.1


def test_unknown_aps_give_null_fix():
    kernel, context, bridge = make_context_with_bridge()
    results = []
    context.broker.subscribe(GEO_RESULT_CHANNEL, results.append, owner="script:collect")
    context.broker.publish(GEO_LOOKUP_CHANNEL, {"id": 1, "vector": {"ff:ff:ff:ff:ff:fe": 1.0}})
    assert results[0]["fix"] is None
    assert bridge.queries == 1


def test_bridge_subscription_is_local_plumbing():
    """The service's subscription must never be announced to devices."""
    kernel, context, bridge = make_context_with_bridge()
    sent = []
    context.node.send_to = lambda peer, payload: sent.append(payload)
    context.attach_device("d@x")
    sub_ops = [p for p in sent if str(p.get("op", "")).startswith("sub_")]
    assert sub_ops == []


def test_empty_vector_query():
    kernel, context, bridge = make_context_with_bridge()
    results = []
    context.broker.subscribe(GEO_RESULT_CHANNEL, results.append, owner="script:collect")
    context.broker.publish(GEO_LOOKUP_CHANNEL, {"id": 2})
    assert results[0]["fix"] is None
