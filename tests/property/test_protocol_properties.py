"""Property-based tests for messages, acks and the kernel (hypothesis)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import thaw_message
from repro.core.messages import from_json, message_size_bytes, to_json
from repro.net.acks import ReliableLink
from repro.sim import Kernel

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_trees)
@settings(max_examples=300)
def test_json_roundtrip_equals_copy(tree):
    assert from_json(to_json(tree)) == thaw_message(tree)


@given(json_trees)
@settings(max_examples=300)
def test_size_matches_encoding(tree):
    assert message_size_bytes(tree) == len(to_json(tree).encode("utf-8"))


@given(json_trees)
@settings(max_examples=200)
def test_copy_isolation(tree):
    clone = thaw_message(tree)
    assert json.dumps(clone, sort_keys=True) == json.dumps(
        thaw_message(tree), sort_keys=True
    )


# ---------------------------------------------------------------------------
# Reliable link under arbitrary loss
# ---------------------------------------------------------------------------


@given(
    st.lists(st.booleans(), min_size=1, max_size=40),  # per-send: delivered?
)
@settings(max_examples=150, deadline=None)
def test_acks_recover_any_loss_pattern(delivery_pattern):
    """Whatever subset of first transmissions is lost, periodic resends
    deliver everything exactly once, in order."""
    kernel = Kernel()
    delivered = []
    drop_next = {"flag": False}

    def send_a_to_b(stanza):
        if not drop_next["flag"]:
            kernel.schedule(1.0, b.on_raw, stanza)

    def send_b_to_a(stanza):
        kernel.schedule(1.0, a.on_raw, stanza)

    def ack_from_b():
        ack = b.make_ack()
        if ack is not None:
            send_b_to_a(ack)

    a = ReliableLink(kernel, "b", send_a_to_b, lambda p: None, lambda: None)
    b = ReliableLink(kernel, "a", send_b_to_a, delivered.append, ack_from_b)

    for n, deliver_first_try in enumerate(delivery_pattern):
        drop_next["flag"] = not deliver_first_try
        a.send({"n": n})
        kernel.run_until(kernel.now + 10.0)
    drop_next["flag"] = False

    # Drive resends until quiescent.
    for _ in range(len(delivery_pattern) + 2):
        kernel.run_until(kernel.now + 60_000.0)
        a.resend_unacked()
    kernel.run_until(kernel.now + 10_000.0)

    assert [m["n"] for m in delivered] == list(range(len(delivery_pattern)))
    assert a.unacked_count == 0


# ---------------------------------------------------------------------------
# Kernel ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
@settings(max_examples=200)
def test_kernel_fires_in_time_order_regardless_of_insertion(delays):
    kernel = Kernel()
    fired = []
    for delay in delays:
        kernel.schedule(delay, lambda d=delay: fired.append(d))
    kernel.run()
    assert fired == sorted(fired)
    assert kernel.events_executed == len(delays)
