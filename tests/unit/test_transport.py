"""Unit tests for device and wired transports."""

import pytest

from repro.device import Phone, PhoneOffline, RadioUnavailable, WifiUnavailable
from repro.net.transport import (
    HANDSHAKE_TX_BYTES,
    DeviceTransport,
    TransportError,
    WiredTransport,
)
from repro.net.xmpp import XmppServer
from repro.sim import Kernel, SECOND


def make_pair():
    kernel = Kernel()
    server = XmppServer(kernel, latency_ms=10.0)
    phone = Phone(kernel)
    device = DeviceTransport(kernel, server, "dev@x", phone)
    wired = WiredTransport(kernel, server, "pc@x")
    server.add_roster_pair("dev@x", "pc@x")
    return kernel, server, phone, device, wired


def test_device_connects_with_handshake_energy():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    assert not device.connected
    kernel.run_until(30 * SECOND)
    assert device.connected
    assert phone.modem.bytes_tx >= HANDSHAKE_TX_BYTES
    assert device.connect_count == 1


def test_send_requires_connection():
    kernel, server, phone, device, wired = make_pair()
    with pytest.raises(TransportError):
        device.send("pc@x", {"x": 1})


def test_device_to_wired_roundtrip():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    got = []
    wired.on_stanza.append(lambda from_jid, st: got.append((from_jid, st)))
    device.send("pc@x", {"kind": "data", "n": 1})
    kernel.run_until(kernel.now + 30 * SECOND)
    assert got and got[0][0] == "dev@x"
    assert got[0][1]["n"] == 1


def test_wired_to_device_wakes_cpu():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    got = []
    device.on_stanza.append(lambda from_jid, st: got.append(st))
    kernel.run_until(60 * SECOND)
    assert not phone.cpu.awake
    wakes_before = phone.cpu.wake_count
    wired.send("dev@x", {"kind": "data", "cmd": "hello"})
    kernel.run_until(kernel.now + 30 * SECOND)
    assert got and got[0]["cmd"] == "hello"
    assert phone.cpu.wake_count == wakes_before + 1


def test_interface_switch_triggers_reconnect():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    assert device.connected
    first_session = device._session
    phone.set_wifi_connected(True)  # switch cellular -> wifi
    assert not device.connected  # old session bound to cellular
    kernel.run_until(kernel.now + 30 * SECOND)
    assert device.connected
    assert device._session is not first_session
    assert device._session_interface == "wifi"


def test_stanza_into_stale_session_is_lost_then_offline():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    # Interface dies entirely: no reconnect possible.
    phone.set_cell_coverage(False)
    wired.send("dev@x", {"kind": "data", "n": 1})
    kernel.run_until(kernel.now + 5 * SECOND)
    assert server.stanzas_lost == 1
    # Second stanza goes to offline storage (server learned of the death).
    wired.send("dev@x", {"kind": "data", "n": 2})
    kernel.run_until(kernel.now + 5 * SECOND)
    assert server.offline_count("dev@x") == 1
    # Coverage back: device reconnects, offline stanza arrives.
    got = []
    device.on_stanza.append(lambda f, st: got.append(st.get("n")))
    phone.set_cell_coverage(True)
    kernel.run_until(kernel.now + 60 * SECOND)
    assert got == [2]


def test_reboot_reconnects_after_boot():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    phone.reboot(downtime_ms=20 * SECOND)
    assert not device.connected
    kernel.run_until(kernel.now + 60 * SECOND)
    assert device.connected
    assert device.connect_count == 2


def test_send_failure_counted_when_interface_dies_midflight():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    device.send("pc@x", {"kind": "data", "n": 1})
    phone.set_cell_coverage(False)  # kills the in-flight transfer
    kernel.run_until(kernel.now + 10 * SECOND)
    assert device.send_failures == 1
    assert device.stanzas_sent == 0


def test_wired_transport_always_connected():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    assert wired.connected
    # Roster pair exists, device offline -> offline storage, send still ok.
    wired.send("dev@x", {"kind": "data"})
    kernel.run()
    assert wired.stanzas_sent == 1
    assert server.stanzas_stored_offline == 1


# ---------------------------------------------------------------------------
# Only a phone with no way out is a retry or a loss; a bug is a bug
# ---------------------------------------------------------------------------


def _break_transfer(phone, exc):
    """Make ``phone.transfer`` raise ``exc`` (Phone is slotted: swap the
    class instead of patching the instance)."""

    class Broken(Phone):
        __slots__ = ()

        def transfer(self, *args, **kwargs):
            raise exc

    phone.__class__ = Broken


@pytest.mark.parametrize("exc", [PhoneOffline, RadioUnavailable, WifiUnavailable])
def test_a_handshake_with_no_way_out_is_retried(exc):
    kernel, server, phone, device, wired = make_pair()
    _break_transfer(phone, exc("no way out"))
    device.start()
    assert device._connecting and not device.connected


def test_a_bug_under_the_handshake_propagates():
    kernel, server, phone, device, wired = make_pair()
    _break_transfer(phone, ValueError("bug in the radio model"))
    with pytest.raises(ValueError, match="radio model"):
        device.start()


def test_a_bug_under_a_downlink_propagates():
    kernel, server, phone, device, wired = make_pair()
    wired.start()
    device.start()
    kernel.run_until(30 * SECOND)
    _break_transfer(phone, ValueError("bug in the radio model"))
    wired.send("dev@x", {"kind": "data", "n": 1})
    with pytest.raises(ValueError, match="radio model"):
        kernel.run_until(kernel.now + 30 * SECOND)
