"""Property-based tests for the fleet coordinator (hypothesis).

The coordinator's whole correctness claim: for ANY partition shape,
epoch length, seed, and duration, the K-way merged fleet report is
byte-identical to the same fleet run in a single shard.  The workers
run in-process here (same barrier protocol as the spawned form, no
fork cost), so hypothesis can afford real simulation runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import Handoff
from repro.fleet import run_fleet

# Keep the fleets small and the clock short: each example is a full
# discrete-event simulation, twice.
fleet_shapes = st.tuples(
    st.integers(min_value=1, max_value=6),          # devices
    st.integers(min_value=2, max_value=4),          # shards
    st.integers(min_value=0, max_value=999),        # seed
    st.sampled_from([0.05, 0.1, 0.2]),              # hours
    st.sampled_from([None, 5.0, 40.0, 79.0, 80.0]),  # epoch_ms
)


@given(fleet_shapes)
@settings(max_examples=12, deadline=None)
def test_merged_report_matches_single_shard(shape):
    devices, shards, seed, hours, epoch_ms = shape
    sharded = run_fleet(
        devices, shards, seed=seed, hours=hours, epoch_ms=epoch_ms,
        processes=False,
    )
    solo = run_fleet(devices, 1, seed=seed, hours=hours, processes=False)
    assert sharded.report_json == solo.report_json
    # The merged trace is deterministic for a layout (span ids are
    # per-shard, so it is not line-identical to the solo trace), and it
    # loses no routed stanza: every xmpp.route line of the solo run has
    # a counterpart.
    again = run_fleet(
        devices, shards, seed=seed, hours=hours, epoch_ms=epoch_ms,
        processes=False,
    )
    assert again.trace_jsonl == sharded.trace_jsonl
    assert sharded.trace_jsonl.count('"hop":"xmpp.route"') == solo.trace_jsonl.count(
        '"hop":"xmpp.route"'
    )


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=8, deadline=None)
def test_shard_count_never_changes_the_bytes(devices, seed):
    """More shards than devices, equal, fewer — all the same bytes."""
    reports = {
        run_fleet(
            devices, shards, seed=seed, hours=0.05, processes=False
        ).report_json
        for shards in (1, 2, devices + 1)
    }
    assert len(reports) == 1


# ---------------------------------------------------------------------------
# Wire codec: decode(encode(batch)) == batch for arbitrary batches
# ---------------------------------------------------------------------------

_jids = st.from_regex(r"[a-z][a-z0-9-]{0,12}@pogo", fullmatch=True)

# JSON-faithful message trees (string keys, scalar leaves) — what
# freeze_message admits into envelope payloads and what stanza wrappers
# normally look like.  NaN/inf excluded: NaN compares unequal to itself
# by design (documented), infinities are rejected by canonical JSON.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


def _stanzas():
    from repro.core.envelope import Envelope, Stanza, freeze_message

    def build(tree, envelope_fields):
        stanza = {"kind": "message", "body": tree}
        if envelope_fields is not None:
            trace_id, origin_ms, hop_span = envelope_fields
            envelope = Envelope(freeze_message({"v": 1}))
            envelope.trace_id = trace_id
            envelope.origin_ms = origin_ms
            envelope.hop_span = hop_span
            stanza["payload"] = envelope
        return Stanza(stanza)

    return st.builds(
        build,
        _trees,
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.floats(min_value=0, max_value=1e12, allow_nan=False),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
        ),
    )


_handoffs = st.builds(
    Handoff,
    st.floats(min_value=0, max_value=1e10, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
    _jids,
    _jids,
    _stanzas(),
)


@given(st.lists(_handoffs, max_size=12))
@settings(max_examples=200, deadline=None)
def test_wire_codec_round_trips_arbitrary_batches(batch):
    from repro.core.envelope import Envelope, Stanza
    from repro.fleet.wire import decode_batch, encode_batch

    out = decode_batch(encode_batch(batch))
    assert out == batch
    for original, decoded in zip(batch, out):
        assert isinstance(decoded.stanza, Stanza) == isinstance(
            original.stanza, Stanza
        )
        if "payload" in original.stanza:
            got, want = decoded.stanza["payload"], original.stanza["payload"]
            assert isinstance(got, Envelope)
            assert got.trace_id == want.trace_id
            assert got.origin_ms == want.origin_ms
            assert got.hop_span == want.hop_span


# The complement: a tuple or a non-string key *anywhere* in the wrapper
# tree would come back from JSON as something else (a list, a string
# key), so it must be refused — never encoded into a frame that decodes
# to a wrong-but-plausible Handoff.
_poison = st.one_of(
    st.lists(_scalars, max_size=3).map(tuple),
    st.dictionaries(
        st.one_of(st.integers(), st.booleans(), st.none()), _scalars,
        min_size=1, max_size=3,
    ),
)


def _graft(poisoned, siblings, index):
    items = list(siblings)
    items.insert(index % (len(items) + 1), poisoned)
    return items


_poisoned_trees = st.recursive(
    _poison,
    lambda children: st.one_of(
        st.builds(_graft, children, st.lists(_trees, max_size=3), st.integers(0, 3)),
        st.builds(
            lambda poisoned, siblings, key: {**siblings, key: poisoned},
            children,
            st.dictionaries(st.text(max_size=10), _trees, max_size=3),
            st.text(max_size=10),
        ),
    ),
    max_leaves=3,
)


@given(
    st.lists(_handoffs, max_size=4),
    _poisoned_trees,
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
    _jids,
)
@settings(max_examples=200, deadline=None)
def test_wire_codec_refuses_any_unfaithful_tree(batch, tree, as_stanza, seq, from_jid):
    import pytest

    from repro.core.envelope import Stanza
    from repro.fleet.wire import WireError, encode_batch

    body = {"kind": "message", "body": tree}
    bad = Handoff(1.0, seq, from_jid, "b@pogo", Stanza(body) if as_stanza else body)
    with pytest.raises(WireError) as excinfo:
        encode_batch(batch + [bad])
    assert from_jid in str(excinfo.value)
    assert f"seq {seq} " in str(excinfo.value)
