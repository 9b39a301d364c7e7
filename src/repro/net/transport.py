"""Client transports: device (over phone radios) and wired (collector).

The device transport owns the behaviour Section 4.6 describes:

* it keeps a session open to the XMPP server over the phone's active
  interface;
* it "detects, using the Android API, when the active network interface
  changes and automatically reconnects on the new interface" — modelled
  via the phone's interface-change listener plus a reconnection delay
  (DNS + TCP + TLS + XMPP handshake) and a handshake transfer that costs
  real radio energy;
* sends/receives are physical transfers on the modem or Wi-Fi radio, so
  every stanza has an energy consequence, and receiving data wakes the
  CPU (which is also what lets the tail detector piggyback acks on
  incoming pushes).

The transport deliberately does *not* decide **when** to send: Pogo's
buffering and tail synchronization (``repro.core``) own that policy.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from ..sim.kernel import Kernel, SECOND
from ..core.messages import message_size_bytes
from ..device.phone import PhoneOffline
from ..device.radio import RadioUnavailable
from ..device.wifi import WifiUnavailable
from .xmpp import Session, XmppServer


class TransportError(Exception):
    """Raised when a send is attempted with no usable connection."""


#: What ``phone.transfer`` raises when the phone has no way out.  Named,
#: so that anything else raised under it is a bug that fails loudly.
_NO_WAY_OUT = (PhoneOffline, RadioUnavailable, WifiUnavailable)

#: Every way :meth:`DeviceTransport.send` / :meth:`WiredTransport.send`
#: can fail for want of a connection; a caller with a reliable layer
#: under it catches these and resends later.
SEND_ERRORS = (TransportError,) + _NO_WAY_OUT

#: A wired client re-dials this soon after the server resets it.
WIRED_RECONNECT_MS = 2 * SECOND
#: A phone re-dials this long after an interface change, a boot or a
#: reset: DNS, TCP, TLS and the XMPP handshake.
RECONNECT_DELAY_MS = 4 * SECOND
#: A phone retries this often while it has no way out.
RETRY_INTERVAL_MS = 30 * SECOND
#: Radio bytes one XMPP handshake costs, up and down.
HANDSHAKE_TX_BYTES = 1_500
HANDSHAKE_RX_BYTES = 3_000
#: The tail of the label on every stanza :meth:`DeviceTransport.send`
#: puts on the radio (``"<jid>:send"``).
_SEND_SUFFIX = ":send"


def is_send_label(label: str) -> bool:
    """Whether a radio transfer's label marks a stanza a device transport
    sent: a radio episode such a transfer woke is one Pogo paid for."""
    return label.endswith(_SEND_SUFFIX)


class _TransferDone:
    """Picklable completion callback for an outgoing stanza transfer.

    The transfer completes asynchronously (radio time) via the kernel's
    event queue, so this callback is part of the Shard snapshot graph —
    a nested closure here would make a mid-flight snapshot unpicklable.
    """

    __slots__ = (
        "transport", "to_jid", "stanza", "size", "session",
        "tracing", "parent", "start_ms", "interface",
    )

    def __init__(self, transport, to_jid, stanza, size, session,
                 tracing, parent, start_ms, interface):
        self.transport = transport
        self.to_jid = to_jid
        self.stanza = stanza
        self.size = size
        self.session = session
        self.tracing = tracing
        self.parent = parent
        self.start_ms = start_ms
        self.interface = interface

    def __call__(self, success: bool) -> None:
        t = self.transport
        spans = t._spans
        size = self.size
        if success and t.connected and t._session is self.session:
            t.stanzas_sent += 1
            t._m_stanzas.inc()
            t._m_bytes.inc(size)
            t._m_stanza_bytes.observe(size)
            route_parent = 0
            if self.tracing and spans.enabled:
                route_parent = t._h_send.record(
                    0,
                    self.parent,
                    self.start_ms,
                    t.kernel.now,
                    {"bytes": size, "interface": self.interface or "none", "ok": True},
                )
            t.server.submit(t.jid, self.to_jid, self.stanza, parent_span=route_parent)
        else:
            t.send_failures += 1
            t._m_failures.inc()
            if self.tracing and spans.enabled:
                t._h_send.record(
                    0,
                    self.parent,
                    self.start_ms,
                    t.kernel.now,
                    {"bytes": size, "interface": self.interface or "none", "ok": False},
                )


class _RxDone:
    """Picklable completion callback for a downlink transfer."""

    __slots__ = ("transport", "complete")

    def __init__(self, transport, complete):
        self.transport = transport
        self.complete = complete

    def __call__(self, success: bool) -> None:
        if success:
            # Incoming data wakes the device, like an Android push.
            self.transport.phone.cpu.wake("push")
        self.complete(success)


class WiredTransport:
    """Collector-side client: a PC on a wired connection, always on."""

    def __init__(self, kernel: Kernel, server: XmppServer, jid: str) -> None:
        self.kernel = kernel
        self.server = server
        self.jid = jid
        self.on_stanza: List[Callable[[str, dict], None]] = []
        self.on_connected: List[Callable[[], None]] = []
        self._session: Optional[Session] = None
        self._reconnecting = False
        self.stanzas_sent = 0
        self.reconnects = 0
        self._m_stanzas = kernel.metrics.counter("transport.stanzas_sent")
        server.register(jid)

    def start(self) -> None:
        self._session = self.server.connect(self.jid, self._deliver)
        for listener in list(self.on_connected):
            listener()

    @property
    def connected(self) -> bool:
        return self._session is not None and self._session.alive

    def notice_connection_lost(self) -> None:
        """The server reset the connection (restart): re-dial shortly.

        A wired client's reconnect loop is aggressive — there is no
        radio to spare — so the collector is back within seconds.
        """
        self._session = None
        if self._reconnecting:
            return
        self._reconnecting = True
        self.kernel.schedule(WIRED_RECONNECT_MS, self._reconnect)

    def _reconnect(self) -> None:
        self._reconnecting = False
        if self.connected:
            return
        self.reconnects += 1
        self.start()

    def send(self, to_jid: str, stanza: dict) -> None:
        if not self.connected:
            raise TransportError(f"{self.jid}: not connected")
        self.stanzas_sent += 1
        self._m_stanzas.inc()
        self.server.submit(self.jid, to_jid, stanza)

    def _deliver(self, stanza: dict) -> None:
        from_jid = stanza.get("_from", "")
        for listener in list(self.on_stanza):
            listener(from_jid, stanza)


class DeviceTransport:
    """Phone-side client: connects over whatever interface is active."""

    __slots__ = (
        "kernel", "server", "jid", "phone", "on_stanza", "on_connected",
        "_session", "_session_interface", "_connecting", "_started", "connect_count",
        "send_failures", "stanzas_sent", "_m_stanzas", "_m_bytes", "_m_failures",
        "_m_stanza_bytes", "_spans", "_h_send",
    )

    def __init__(self, kernel: Kernel, server: XmppServer, jid: str, phone) -> None:
        self.kernel = kernel
        self.server = server
        self.jid = jid
        self.phone = phone

        self.on_stanza: List[Callable[[str, dict], None]] = []
        self.on_connected: List[Callable[[], None]] = []
        self._session: Optional[Session] = None
        self._session_interface: Optional[str] = None
        self._connecting = False
        self._started = False
        self.connect_count = 0
        self.send_failures = 0
        self.stanzas_sent = 0
        metrics = kernel.metrics
        self._m_stanzas = metrics.counter("transport.stanzas_sent")
        self._m_bytes = metrics.counter("transport.bytes_sent")
        self._m_failures = metrics.counter("transport.send_failures")
        self._m_stanza_bytes = metrics.histogram("transport.stanza_bytes")
        self._spans = kernel.spans
        self._h_send = kernel.spans.hop("transport.send")

        server.register(jid)
        phone.on_interface_change.append(self._interface_changed)
        phone.on_boot.append(self._on_boot)
        phone.on_shutdown.append(self._on_shutdown)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        self._try_connect()

    @property
    def connected(self) -> bool:
        return (
            self._session is not None
            and self._session.alive
            and self.phone.alive
            and self.phone.active_interface() == self._session_interface
            and self._session_interface is not None
        )

    def _interface_changed(self, interface: Optional[str]) -> None:
        if not self._started:
            return
        # The old session is now stale; the server does not know yet —
        # that is the message-loss window.  Reconnect on the new
        # interface after the handshake delay.
        if interface is not None:
            self._schedule_connect(RECONNECT_DELAY_MS)

    def _on_boot(self) -> None:
        if self._started:
            self._schedule_connect(RECONNECT_DELAY_MS)

    def _on_shutdown(self) -> None:
        self._session = None
        self._session_interface = None

    def notice_connection_lost(self) -> None:
        """The far end reset the TCP connection (XMPP server restart).

        Android's connection manager surfaces the reset to the client,
        which re-dials after the usual handshake delay — the same path an
        interface change takes, minus the stale-session loss window
        (both ends already know the old session is gone).
        """
        if not self._started:
            return
        if self._session is not None:
            self._session.close()
            self._session = None
            self._session_interface = None
        self._schedule_connect(RECONNECT_DELAY_MS)

    def _schedule_connect(self, delay_ms: float) -> None:
        if self._connecting:
            return
        self._connecting = True
        self.kernel.schedule(delay_ms, self._try_connect_guarded)

    def _try_connect_guarded(self) -> None:
        self._connecting = False
        self._try_connect()

    def _try_connect(self) -> None:
        if self.connected or not self.phone.alive:
            return
        interface = self.phone.active_interface()
        if interface is None:
            return
        # The XMPP handshake is itself radio traffic.
        try:
            self.phone.transfer(
                tx_bytes=HANDSHAKE_TX_BYTES,
                rx_bytes=HANDSHAKE_RX_BYTES,
                duration_hint_ms=600.0,
                on_complete=partial(self._handshake_done, interface),
                label=f"{self.jid}:handshake",
            )
        except _NO_WAY_OUT:
            self._schedule_connect(RETRY_INTERVAL_MS)

    def _handshake_done(self, interface: str, success: bool) -> None:
        if not success or self.phone.active_interface() != interface:
            self._schedule_connect(RETRY_INTERVAL_MS)
            return
        self.connect_count += 1
        self._session_interface = interface
        self._session = self.server.connect(self.jid, self._deliver, self._physical_rx)
        for listener in list(self.on_connected):
            listener()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, to_jid: str, stanza: dict) -> None:
        """Physically transmit a stanza; raises when disconnected."""
        if not self.connected:
            raise TransportError(f"{self.jid}: not connected")
        # Envelope payloads inside the stanza answer from their cached
        # canonical JSON, so this does not re-walk the message tree.
        size = message_size_bytes(stanza)
        session = self._session
        # The transfer completes asynchronously (radio time), so capture
        # the causal parent — the flush span, when this send is part of a
        # flush — and the start time here, at initiation.
        spans = self._spans
        tracing = spans.enabled
        parent = spans.active_parent if tracing else 0
        start_ms = self.kernel.now
        interface = self.phone.active_interface()

        transfer_done = _TransferDone(
            self, to_jid, stanza, size, session,
            tracing, parent, start_ms, interface,
        )
        self.phone.transfer(
            tx_bytes=size,
            on_complete=transfer_done,
            label=self.jid + _SEND_SUFFIX,
        )

    def _physical_rx(self, size: int, complete: Callable[[bool], None]) -> None:
        """Server-side downlink into this device (installed per session)."""
        if (
            not self.phone.alive
            or self.phone.active_interface() != self._session_interface
        ):
            complete(False)
            return

        rx_done = _RxDone(self, complete)
        try:
            self.phone.transfer(rx_bytes=size, on_complete=rx_done, label=f"{self.jid}:recv")
        except _NO_WAY_OUT:
            complete(False)

    def _deliver(self, stanza: dict) -> None:
        from_jid = stanza.get("_from", "")
        for listener in list(self.on_stanza):
            listener(from_jid, stanza)
