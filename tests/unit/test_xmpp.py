"""Unit tests for the XMPP-like switchboard."""

import pytest

from repro.net.xmpp import RoutingError, XmppServer
from repro.sim import Kernel


def make_server():
    kernel = Kernel()
    server = XmppServer(kernel, latency_ms=10.0)
    return kernel, server


def connect_simple(server, jid, inbox):
    return server.connect(jid, inbox.append)


def test_routing_requires_registration_and_roster():
    kernel, server = make_server()
    server.register("a@x")
    with pytest.raises(RoutingError):
        server.submit("a@x", "b@x", {"hi": 1})
    server.register("b@x")
    with pytest.raises(RoutingError):
        server.submit("a@x", "b@x", {"hi": 1})  # no roster pair
    server.add_roster_pair("a@x", "b@x")
    inbox = []
    connect_simple(server, "b@x", inbox)
    server.submit("a@x", "b@x", {"hi": 1})
    kernel.run()
    assert len(inbox) == 1


def test_stanza_stamped_with_sender():
    kernel, server = make_server()
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    inbox = []
    connect_simple(server, "b@x", inbox)
    server.submit("a@x", "b@x", {"hi": 1})
    kernel.run()
    assert inbox[0]["_from"] == "a@x"
    assert inbox[0]["hi"] == 1


def test_offline_storage_and_drain_on_connect():
    kernel, server = make_server()
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    server.submit("a@x", "b@x", {"n": 1})
    server.submit("a@x", "b@x", {"n": 2})
    kernel.run()
    assert server.offline_count("b@x") == 2
    inbox = []
    connect_simple(server, "b@x", inbox)
    kernel.run()
    assert [m["n"] for m in inbox] == [1, 2]
    assert server.offline_count("b@x") == 0


def test_reconnect_replaces_session():
    kernel, server = make_server()
    server.register("a@x")
    first_inbox, second_inbox = [], []
    first = connect_simple(server, "a@x", first_inbox)
    second = connect_simple(server, "a@x", second_inbox)
    assert not first.alive
    assert server.session_of("a@x") is second


def test_graceful_disconnect_stores_offline():
    kernel, server = make_server()
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    inbox = []
    session = connect_simple(server, "b@x", inbox)
    server.disconnect(session)
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert inbox == []
    assert server.offline_count("b@x") == 1


def test_physical_rx_failure_loses_stanza_and_kills_session():
    """The stale-TCP loss window of Section 4.6."""
    kernel, server = make_server()
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    inbox = []

    def broken_physical_rx(size, complete):
        complete(False)

    server.connect("b@x", inbox.append, physical_rx=broken_physical_rx)
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert inbox == []
    assert server.stanzas_lost == 1
    # The failure revealed the dead session: the next stanza goes offline.
    server.submit("a@x", "b@x", {"n": 2})
    kernel.run()
    assert server.offline_count("b@x") == 1


def test_physical_rx_success_delivers_and_costs_nothing_extra():
    kernel, server = make_server()
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    inbox = []
    sizes = []

    def physical_rx(size, complete):
        sizes.append(size)
        complete(True)

    server.connect("b@x", inbox.append, physical_rx=physical_rx)
    server.submit("a@x", "b@x", {"payload": "x" * 100})
    kernel.run()
    assert len(inbox) == 1
    assert sizes[0] > 100


def test_presence_notifies_connected_roster_peers():
    kernel, server = make_server()
    for jid in ("collector@x", "device@x"):
        server.register(jid)
    server.add_roster_pair("collector@x", "device@x")
    collector_inbox = []
    connect_simple(server, "collector@x", collector_inbox)
    connect_simple(server, "device@x", [])
    kernel.run()
    presence = [m for m in collector_inbox if m.get("kind") == "presence"]
    assert len(presence) == 1
    assert presence[0]["jid"] == "device@x"
    assert presence[0]["available"] is True
