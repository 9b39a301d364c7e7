"""Property-based tests for the broker (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broker import Broker

CHANNELS = ("wifi-scan", "battery", "locations", "clusters")

#: An operation is (kind, channel) where kind selects subscribe / publish
#: / release / renew / remove applied to a round-robin subscription.
operations = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "publish", "release", "renew", "remove"]),
        st.sampled_from(CHANNELS),
    ),
    max_size=60,
)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_broker_delivery_invariants(ops):
    """Whatever the op sequence: deliveries go only to live, active
    subscriptions on the published channel, and counters reconcile."""
    broker = Broker()
    subs = []
    received = {}  # sub.id -> list of (channel, message)
    expected_deliveries = 0

    for kind, channel in ops:
        if kind == "subscribe":
            def make_handler(box):
                return lambda message: box.append(message)

            box = []
            sub = broker.subscribe(channel, make_handler(box))
            received[sub.id] = box
            subs.append(sub)
        elif kind == "publish":
            active = [
                s for s in broker.subscriptions(channel)
            ]
            delivered = broker.publish(channel, {"via": channel})
            assert delivered == len(active)
            expected_deliveries += delivered
        elif subs:
            target = subs[len(ops) % len(subs)]
            if kind == "release":
                target.release()
            elif kind == "renew":
                target.renew()
            else:
                target.remove()

    assert broker.delivery_count == expected_deliveries
    assert sum(len(box) for box in received.values()) == expected_deliveries
    # Removed subscriptions are gone from every channel listing.
    for sub in subs:
        if sub.removed:
            assert sub not in broker.all_subscriptions()


@given(st.lists(st.sampled_from(["release", "renew"]), max_size=30))
@settings(max_examples=100, deadline=None)
def test_release_renew_sequences_end_in_consistent_state(sequence):
    broker = Broker()
    sub = broker.subscribe("ch", lambda m: None)
    for op in sequence:
        getattr(sub, op)()
    # Active iff the last state-changing op was renew (or none at all).
    expected = True
    for op in sequence:
        expected = op == "renew"
    if sequence:
        assert sub.active == expected
    assert broker.has_subscribers("ch") == sub.active
