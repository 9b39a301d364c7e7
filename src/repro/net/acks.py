"""End-to-end acknowledgements over the XMPP switchboard.

Section 4.6: "This message loss problem is recognized in the XMPP
community and although several extensions have been proposed [XEP-184,
XEP-198], these have yet to be implemented in popular server and client
libraries.  ...  We have implemented our own end-to-end acknowledgements
on top of XMPP to recover from message loss."

:class:`ReliableLink` provides exactly-once, in-order delivery of
*envelopes* between one (sender, receiver) pair in each direction:

* every outgoing envelope carries a sequence number; the sender retains
  it until cumulatively acknowledged;
* the receiver delivers in order, buffers out-of-order arrivals, and
  acknowledges cumulatively (acks are requested from the owner via a
  callback so the device side can piggyback them on its next batch
  rather than paying a radio tail for a bare ack);
* on reconnect (or a resend timer) the sender retransmits everything
  unacknowledged;
* if the sender ever has to abandon unacked envelopes (the 24-hour
  expiry), it advances an explicit ``base`` so the receiver skips the
  gap instead of stalling forever.

A link optionally carries a :class:`LinkObserver` (``link.observer``):
a passive tap the chaos invariant monitor uses to verify, from the
*outside*, that the guarantees above actually hold under fault load —
exactly-once, in-order delivery, monotone cumulative acks, and
conservation of every sequence number ever transmitted.  The hot path
pays one ``is None`` check per event when no observer is attached.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim.kernel import SECOND, Kernel
from ..core.envelope import Stanza

#: An unacked envelope is retransmitted only once it has been out this
#: long, so a flush right after the original send does not duplicate it.
RESEND_AFTER_MS = 30 * SECOND


class LinkObserver:
    """Passive per-link tap for protocol verification (no-op base).

    All callbacks receive the link so one observer instance can watch
    many links.  Overrides must not mutate link state — the monitor is a
    read-only witness; perturbing the protocol would invalidate the very
    run it is checking.
    """

    def on_transmit(self, link: "ReliableLink", seq: int, payload: Any, retransmit: bool) -> None:
        pass

    def on_deliver(self, link: "ReliableLink", seq: int, payload: Any) -> None:
        pass

    def on_duplicate(self, link: "ReliableLink", seq: int) -> None:
        pass

    def on_gap_skip(self, link: "ReliableLink", old_expected: int, base: int) -> None:
        pass

    def on_abandon(self, link: "ReliableLink", seqs: List[int]) -> None:
        pass

    def on_ack_received(self, link: "ReliableLink", ack: int) -> None:
        pass

    def on_ack_emitted(self, link: "ReliableLink", ack: int) -> None:
        pass


class ReliableLink:
    """Sender+receiver state for one peer."""

    __slots__ = (
        "kernel", "peer", "_send_raw", "_deliver", "_request_ack_send",
        "_next_seq", "_base_seq", "_unacked", "_sent_at",
        "_expected", "_out_of_order", "_ack_dirty", "sent", "resent", "delivered",
        "duplicates", "abandoned", "observer",
    )

    def __init__(
        self,
        kernel: Kernel,
        peer: str,
        send_raw: Callable[[dict], None],
        deliver: Callable[[Any], None],
        request_ack_send: Callable[[], None],
    ) -> None:
        self.kernel = kernel
        self.peer = peer
        self._send_raw = send_raw
        self._deliver = deliver
        self._request_ack_send = request_ack_send

        # Sender state.
        self._next_seq = 1
        self._base_seq = 1
        self._unacked: Dict[int, Any] = {}
        self._sent_at: Dict[int, float] = {}

        # Receiver state.
        self._expected = 1
        self._out_of_order: Dict[int, Any] = {}
        self._ack_dirty = False

        # Metrics.
        self.sent = 0
        self.resent = 0
        self.delivered = 0
        self.duplicates = 0
        self.abandoned = 0

        #: Optional protocol witness (see :class:`LinkObserver`).
        self.observer: Optional[LinkObserver] = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any) -> int:
        """Send a payload envelope; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = payload
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int, retransmit: bool = False) -> None:
        self.sent += 1
        self._sent_at[seq] = self.kernel.now
        if self.observer is not None:
            self.observer.on_transmit(self, seq, self._unacked[seq], retransmit)
        self._send_raw(self._envelope(seq))

    def _envelope(self, seq: int) -> dict:
        if self.observer is not None:
            # The piggybacked cumulative ack is an ack emission too.
            self.observer.on_ack_emitted(self, self._expected - 1)
        return Stanza(
            kind="env",
            seq=seq,
            base=self._base_seq,
            ack=self._expected - 1,
            payload=self._unacked[seq],
        )

    def resend_unacked(self, max_age_ms: Optional[float] = None) -> int:
        """Retransmit unacked envelopes (on reconnect / resend timer).

        With ``max_age_ms`` set, envelopes older than that are abandoned
        (the sender-side analogue of the 24-hour purge) and the base
        advances past them.
        """
        abandoned: List[int] = []
        if max_age_ms is not None:
            for seq, sent_at in list(self._sent_at.items()):
                if self.kernel.now - sent_at > max_age_ms:
                    abandoned.append(seq)
        for seq in abandoned:
            self._unacked.pop(seq, None)
            self._sent_at.pop(seq, None)
            self.abandoned += 1
        if abandoned:
            self._base_seq = max(self._base_seq, max(abandoned) + 1)
            if self.observer is not None:
                self.observer.on_abandon(self, sorted(abandoned))
        resent = 0
        for seq in sorted(self._unacked):
            if self.kernel.now - self._sent_at.get(seq, 0.0) >= RESEND_AFTER_MS:
                self._transmit(seq, retransmit=True)
                resent += 1
                self.resent += 1
        return resent

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_raw(self, stanza: dict) -> None:
        """Process an incoming stanza from the peer."""
        kind = stanza.get("kind")
        if kind == "env":
            self._on_envelope(stanza)
        elif kind == "ack":
            self._on_ack(int(stanza.get("ack", 0)))
        else:
            raise ValueError(f"unknown stanza kind: {kind!r}")

    def _on_envelope(self, stanza: dict) -> None:
        # Piggybacked ack for our own outgoing direction.
        self._on_ack(int(stanza.get("ack", 0)))
        seq = int(stanza["seq"])
        base = int(stanza.get("base", 1))
        if base > self._expected:
            # Sender abandoned a range; skip the gap.
            if self.observer is not None:
                self.observer.on_gap_skip(self, self._expected, base)
            for missing in list(self._out_of_order):
                if missing < base:
                    del self._out_of_order[missing]
            self._expected = base
        if seq < self._expected or seq in self._out_of_order:
            self.duplicates += 1
            if self.observer is not None:
                self.observer.on_duplicate(self, seq)
            self._ack_dirty = True
            self._request_ack_send()
            return
        self._out_of_order[seq] = stanza["payload"]
        while self._expected in self._out_of_order:
            payload = self._out_of_order.pop(self._expected)
            delivered_seq = self._expected
            self._expected += 1
            self.delivered += 1
            if self.observer is not None:
                self.observer.on_deliver(self, delivered_seq, payload)
            self._deliver(payload)
        self._ack_dirty = True
        self._request_ack_send()

    def _on_ack(self, ack: int) -> None:
        if self.observer is not None:
            self.observer.on_ack_received(self, ack)
        for seq in list(self._unacked):
            if seq <= ack:
                del self._unacked[seq]
                self._sent_at.pop(seq, None)

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    def make_ack(self) -> Optional[dict]:
        """Produce a bare ack stanza if one is owed (else ``None``)."""
        if not self._ack_dirty:
            return None
        self._ack_dirty = False
        if self.observer is not None:
            self.observer.on_ack_emitted(self, self._expected - 1)
        return Stanza(kind="ack", ack=self._expected - 1)
