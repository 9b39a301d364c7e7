"""Property-based tests for the fleet coordinator (hypothesis).

The coordinator's whole correctness claim: for ANY partition shape,
epoch length, seed, and duration, the K-way merged fleet report is
byte-identical to the same fleet run in a single shard.  The workers
run in-process here (same barrier protocol as the spawned form, no
fork cost), so hypothesis can afford real simulation runs.
"""

import pickle
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import Handoff
from repro.fleet import fleet_spec, run_fleet
from repro.sim.kernel import HOUR

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
        fleet_spec(devices, seed=seed), shards, duration_ms=hours * HOUR,
        epoch_ms=epoch_ms, processes=False,
    )
    solo = run_fleet(
        fleet_spec(devices, seed=seed), 1, duration_ms=hours * HOUR,
        processes=False,
    )
    assert sharded.report_json == solo.report_json
    # The merged trace is deterministic for a layout (span ids are
    # per-shard, so it is not line-identical to the solo trace), and it
    # loses no routed stanza: every xmpp.route line of the solo run has
    # a counterpart.
    again = run_fleet(
        fleet_spec(devices, seed=seed), shards, duration_ms=hours * HOUR,
        epoch_ms=epoch_ms, processes=False,
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
            fleet_spec(devices, seed=seed), shards, duration_ms=0.05 * HOUR,
            processes=False,
        ).report_json
        for shards in (1, 2, devices + 1)
    }
    assert len(reports) == 1


# ---------------------------------------------------------------------------
# Wire codec: decode(encode(batch)) gives back the sender's objects
# ---------------------------------------------------------------------------

_jids = st.from_regex(r"[a-z][a-z0-9-]{0,12}@pogo", fullmatch=True)

# Message trees (string keys, scalar leaves) — what freeze_message admits
# into envelope payloads and what stanza wrappers normally look like.
# NaN excluded: it compares unequal to itself (tests/unit/test_wire.py
# checks it structurally).
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

# What JSON would not have given back: a tuple or a non-string key
# anywhere in the wrapper tree.  The frame carries it as it went.
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


def _stanzas():
    from repro.core.envelope import Envelope, freeze_message

    def build(tree, envelope_fields):
        stanza = {"kind": "message", "body": tree}
        if envelope_fields is not None:
            trace_id, origin_ms, hop_span = envelope_fields
            envelope = Envelope(freeze_message({"v": [1, {"w": 2}]}))
            envelope.trace_id = trace_id
            envelope.origin_ms = origin_ms
            envelope.hop_span = hop_span
            stanza["payload"] = envelope
        return stanza

    return st.builds(
        build,
        st.one_of(_trees, _poisoned_trees),
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


def _typed(value):
    """``value`` as nested ``(type, …)`` pairs: equal only when every node
    has the same type too (``==`` takes ``True`` for ``1`` and a
    ``FrozenDict`` for a dict) and every envelope the same trace fields."""
    from repro.core.envelope import Envelope

    if isinstance(value, Envelope):
        return (Envelope, _typed(value.payload),
                value.trace_id, value.origin_ms, value.hop_span)
    if isinstance(value, dict):
        return (type(value), [(_typed(k), _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    return (type(value), value)


@given(st.lists(_handoffs, max_size=12))
@settings(max_examples=200, deadline=None)
def test_wire_codec_round_trips_arbitrary_batches(batch):
    from repro.fleet.wire import decode_batch, encode_batch

    out = decode_batch(encode_batch(batch))
    assert _typed(out) == _typed(batch)


# The complement: a leaf the frame cannot carry back as it went (a
# generator, a lock, a local function), *anywhere* in the wrapper tree,
# is refused at encode — never framed into a wrong-but-plausible Handoff.
def _local_function():
    return lambda: None


_unpicklable = st.sampled_from(
    [lambda: (i for i in ()), threading.Lock, _local_function]
).map(lambda make: make())

_unfaithful_trees = st.recursive(
    _unpicklable,
    lambda children: st.one_of(
        st.builds(_graft, children, st.lists(_trees, max_size=3), st.integers(0, 3)),
        st.builds(
            lambda unfaithful, siblings, key: {**siblings, key: unfaithful},
            children,
            st.dictionaries(st.text(max_size=10), _trees, max_size=3),
            st.text(max_size=10),
        ),
    ),
    max_leaves=3,
)


@given(
    st.lists(_handoffs, max_size=4),
    _unfaithful_trees,
    st.integers(min_value=0, max_value=2**32 - 1),
    _jids,
)
@settings(max_examples=200, deadline=None)
def test_wire_codec_refuses_any_unfaithful_tree(batch, tree, seq, from_jid):
    import pytest

    from repro.fleet.wire import encode_batch

    bad = Handoff(1.0, seq, from_jid, "b@pogo", {"kind": "message", "body": tree})
    with pytest.raises((TypeError, AttributeError, pickle.PicklingError)):
        encode_batch(batch + [bad])
