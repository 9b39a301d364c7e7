"""Property-based tests: the envelope pipeline is observably equivalent
to the seed's legacy validate+copy+dumps path (hypothesis).

The legacy reference implementations are replicated inline, so these
properties keep holding even as the production code evolves: for every
generated message tree, the envelope's canonical JSON, wire size and
delivered shape must match what the seed's per-hop walks produced — and
subscriber-side mutation must never leak between deliveries.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broker import Broker
from repro.core.deployment import batch_op, pub_op, sub_change_op
from repro.core.envelope import Envelope, MessageError, canonical_json, thaw_message
from repro.core.messages import message_size_bytes, size_with_member, to_json
from repro.net.acks import ReliableLink
from repro.net.xmpp import LinkInterceptor, XmppServer
from repro.sim.kernel import Kernel

# ---------------------------------------------------------------------------
# Message-tree strategy
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

#: JSON-able message trees, tuples included (they normalize to lists).
messages = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def legacy_to_json(value):
    """The seed's serializer: a plain key-sorted compact json.dumps."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True, ensure_ascii=False)


def legacy_copy(value):
    """The seed's per-subscriber deep copy (tuples became lists)."""
    if isinstance(value, dict):
        return {key: legacy_copy(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [legacy_copy(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(messages)
@settings(max_examples=300, deadline=None)
def test_envelope_json_matches_legacy_serialization(tree):
    env = Envelope.wrap(tree)
    assert env.json == legacy_to_json(tree)
    # And the cached text round-trips to the normalized (tuple-free) tree.
    assert json.loads(env.json) == legacy_copy(tree)


@given(messages)
@settings(max_examples=300, deadline=None)
def test_wire_size_matches_legacy_accounting(tree):
    env = Envelope.wrap(tree)
    legacy_size = len(legacy_to_json(tree).encode("utf-8"))
    assert env.wire_size == legacy_size
    assert message_size_bytes(env) == legacy_size
    assert message_size_bytes(tree) == legacy_size


def _middleware_stanzas(env):
    """Every stanza shape the middleware builds around an envelope: a pub
    op, a batch of pubs, the reliable link's ``env`` wrapper around
    either, and the switch's ``_from``-stamped copy of each."""
    pub = pub_op("exp", "ch", env)
    batch = batch_op([pub, pub_op("exp", "other", {"n": 1}), sub_change_op("sub_renew", "exp", 4)])
    sent = []
    link = ReliableLink(Kernel(), "peer@pogo", sent.append, lambda payload: None, lambda: None)
    link.send(pub)
    link.send(batch)
    server = XmppServer(Kernel())
    stamped = []
    server.egress = lambda from_jid, to_jid, stanza: stamped.append(stanza)
    for stanza in sent:
        server.submit("device-1@pogo", "remote@pogo", stanza)
    return [{"kind": "env", "seq": 3, "payload": env}, pub, batch, *sent, *stamped]


class _Plan(LinkInterceptor):
    """The chaos seam's verdict, fixed: one extra latency per copy."""

    def __init__(self, plan):
        self.plan = plan

    def intercept(self, from_jid, to_jid, stanza):
        return list(self.plan)


#: Senders whose JIDs print otherwise in JSON: non-ASCII, and characters
#: the encoder escapes.
SENDERS = ["device-1@pogo", "gerät-ü@pogo", 'dev"ice\\1@pogo', "tab\there@pogo", "雪@pogo"]
ONLINE, OFFLINE = "online@pogo", "offline@pogo"


def _switchboard_sizes(stanzas, sender):
    """``(size, stanza)`` for every delivery the switchboard makes of
    ``stanzas`` from ``sender``: each submitted with the size a device's
    transport gives it, once plain, once duplicated, once held back past
    later traffic (reordered), each to a receiver online and to one
    offline until later (the offline queue); then each stamped copy as
    another shard hands it over (ingress, no size carried); and the
    presence the connects cause."""
    kernel = Kernel()
    server = XmppServer(kernel)
    seen = []

    def physical_rx(size, complete):
        seen.append((size, complete.stanza))
        complete(True)

    for jid in (sender, ONLINE, OFFLINE):
        server.register(jid)
    server.add_roster_pair(sender, ONLINE)
    server.add_roster_pair(sender, OFFLINE)
    server.connect(ONLINE, lambda stanza: None, physical_rx)
    server.connect(sender, lambda stanza: None, physical_rx)  # presence to ONLINE
    for plan in ([0.0], [0.0, 0.0], [3_000.0]):
        server.interceptor = _Plan(plan)
        for stanza in stanzas:
            for to_jid in (ONLINE, OFFLINE):
                server.submit(sender, to_jid, stanza, 0, message_size_bytes(stanza))
    server.interceptor = None
    for stanza in stanzas:
        server.ingress_at(sender, ONLINE, {**stanza, "_from": sender}, kernel.now + 80.0)
    kernel.run_until(10_000.0)
    server.connect(OFFLINE, lambda stanza: None, physical_rx)  # presence to sender
    kernel.run_until(20_000.0)
    assert len(seen) == 9 * len(stanzas) + 2
    return seen


@given(messages, st.one_of(st.sampled_from(SENDERS), st.text(min_size=1, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_middleware_stanzas_match_whole_tree_serialization(tree, sender):
    """A stanza embedding the envelope serializes to exactly what
    serializing the raw (thawed) stanza would have produced, and every
    size the switchboard uses for it — carried from the transport,
    derived for the stamped copy, kept through dup, reorder and the
    offline queue, or taken at cross-shard ingress — is that text's."""
    env = Envelope.wrap(tree)
    stanzas = _middleware_stanzas(env)
    for stanza in stanzas:
        raw = thaw_message(stanza)
        assert canonical_json(stanza) == legacy_to_json(raw)
        assert to_json(stanza) == legacy_to_json(raw)
        assert message_size_bytes(stanza) == len(legacy_to_json(raw).encode("utf-8"))
        stamped = {**raw, "_from": sender}
        assert size_with_member(
            stanza, message_size_bytes(stanza), "_from", sender
        ) == len(legacy_to_json(stamped).encode("utf-8"))
    for size, delivered in _switchboard_sizes(stanzas, sender):
        assert size == len(canonical_json(delivered).encode("utf-8"))


@given(messages)
@settings(max_examples=200, deadline=None)
def test_broker_delivery_equivalent_to_legacy_copy_path(tree):
    """Two subscribers observe exactly what the legacy copy path gave
    them, and the delivered view equals the envelope payload."""
    broker = Broker()
    first, second = [], []
    broker.subscribe("ch", first.append)
    broker.subscribe("ch", second.append)
    broker.publish("ch", tree)
    expected = legacy_copy(tree)
    assert first[0] == expected
    assert second[0] == expected
    assert first[0] is second[0]  # one shared frozen view, no copies


@given(
    st.dictionaries(st.text(max_size=8), messages, min_size=1, max_size=4),
    st.text(max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_subscriber_mutation_never_leaks(tree, key):
    """However a handler tries to mutate its delivery, either the attempt
    raises or it worked on a copy — the other subscriber's view and the
    wire representation are unchanged."""
    broker = Broker()
    first, second = [], []
    broker.subscribe("ch", first.append)
    broker.subscribe("ch", second.append)
    broker.publish("ch", tree)
    wire_before = to_json(second[0])

    try:
        first[0][key] = "tampered"
    except MessageError:
        pass
    mutable = first[0].copy()
    mutable[key] = "tampered"

    assert to_json(second[0]) == wire_before
    assert second[0] == legacy_copy(tree)
