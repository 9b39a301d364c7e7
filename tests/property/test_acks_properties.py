"""Property-based tests: ReliableLink under chaos-shaped schedules.

The chaos engine's whole premise is that drop/dup/reorder schedules at
the wire level never break the reliable layer's contract.  These
properties state that contract directly and let hypothesis hunt for a
schedule that breaks it:

* exactly-once, in-order delivery for any per-transmission fate drawn
  from {deliver, drop, duplicate, hold-for-reordering};
* cumulative acks emitted by a receiver never regress;
* abandoning expired envelopes advances ``base`` so the receiver skips
  the gap and the tail of the stream still delivers in order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.acks import LinkObserver, ReliableLink
from repro.sim import Kernel

DELIVER, DROP, DUP, HOLD = range(4)

#: A fate for each (re)transmission the wire carries.
fates = st.lists(
    st.sampled_from([DELIVER, DROP, DUP, HOLD]), min_size=1, max_size=60
)


class AckTap(LinkObserver):
    """Records every cumulative ack a link emits."""

    def __init__(self):
        self.emitted = []

    def on_ack_emitted(self, link, ack):
        self.emitted.append(ack)


class ChaosWire:
    """A one-directional wire applying a fate schedule per transmission.

    Held stanzas are released after later traffic (the reordering case);
    once the schedule is exhausted, the wire turns perfect so the
    resend machinery can finish the job — chaos then heal, exactly like
    a scenario's settle phase.
    """

    def __init__(self, schedule):
        self.kernel = Kernel()
        self.schedule = list(schedule)
        self.cursor = 0
        self.delivered = []
        self.sender = ReliableLink(
            self.kernel, "rx", self._carry, lambda payload: None, lambda: None,
        )
        self.receiver = ReliableLink(
            self.kernel, "tx", self._carry_back, self.delivered.append,
            request_ack_send=self._send_ack,
        )
        self.receiver_tap = AckTap()
        self.receiver.observer = self.receiver_tap

    def _fate(self):
        if self.cursor >= len(self.schedule):
            return DELIVER
        fate = self.schedule[self.cursor]
        self.cursor += 1
        return fate

    def _carry(self, stanza):
        fate = self._fate()
        if fate == DROP:
            return
        self.kernel.schedule(1.0, self.receiver.on_raw, stanza)
        if fate == DUP:
            self.kernel.schedule(1.0, self.receiver.on_raw, stanza)
        elif fate == HOLD:
            # A second copy arriving much later: the receiver must treat
            # the overtaken copy as a duplicate, never redeliver.
            self.kernel.schedule(5_000.0, self.receiver.on_raw, stanza)

    def _carry_back(self, stanza):
        self.kernel.schedule(1.0, self.sender.on_raw, stanza)

    def _send_ack(self):
        ack = self.receiver.make_ack()
        if ack is not None:
            self._carry_back(ack)

    def run(self, ms=10.0):
        self.kernel.run_until(self.kernel.now + ms)

    def settle(self, rounds=6):
        # Rounds count once the wire has healed (or nothing is left to
        # resend, so nothing can use the schedule up): a schedule ending
        # in seven drops used to eat the last send and all six resends.
        while rounds:
            if self.cursor >= len(self.schedule) or not self.sender.unacked_count:
                rounds -= 1
            self.run(40_000.0)
            self.sender.resend_unacked()
            self.run(10_000.0)


@given(fates, st.integers(1, 20))
@example([DELIVER] * 3 + [DROP] * 7, 4)  # the last send and six resends dropped
@settings(max_examples=150, deadline=None)
def test_exactly_once_in_order_under_any_schedule(schedule, n):
    wire = ChaosWire(schedule)
    for i in range(n):
        wire.sender.send({"n": i})
        wire.run(5.0)
    wire.settle()
    assert [m["n"] for m in wire.delivered] == list(range(n))
    assert wire.sender.unacked_count == 0


@given(fates, st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_cumulative_acks_never_regress(schedule, n):
    wire = ChaosWire(schedule)
    for i in range(n):
        wire.sender.send({"n": i})
        wire.run(5.0)
    wire.settle()
    emitted = wire.receiver_tap.emitted
    assert emitted == sorted(emitted)
    assert emitted[-1] == n


@given(
    st.integers(1, 8),   # envelopes lost then abandoned
    st.integers(1, 12),  # envelopes sent after the gap
)
@settings(max_examples=100, deadline=None)
def test_abandoned_gap_advances_base_and_tail_delivers(lost, after):
    wire = ChaosWire([DROP] * lost)
    for i in range(lost):
        wire.sender.send({"n": i})
        wire.run(5.0)
    assert wire.delivered == []
    # Age the unacked envelopes past the expiry: the sender abandons
    # them and advances base, exactly like the 24-hour purge.
    wire.run(100_000.0)
    abandoned = wire.sender.resend_unacked(max_age_ms=50_000.0)
    assert abandoned == 0 and wire.sender.unacked_count == 0
    for i in range(lost, lost + after):
        wire.sender.send({"n": i})
        wire.run(5.0)
    wire.settle()
    # The receiver skipped the abandoned gap and delivered the tail in order.
    assert [m["n"] for m in wire.delivered] == list(range(lost, lost + after))
    assert wire.sender.unacked_count == 0
    emitted = wire.receiver_tap.emitted
    assert emitted == sorted(emitted)
