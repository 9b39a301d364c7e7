"""Unit tests for lifecycle spans and the flight recorder."""

import json
import pickle

import pytest

from repro.core.envelope import Envelope
from repro.sim.spans import (
    Span,
    SpanRecorder,
    render_span_tree,
    span_rows,
    span_tree,
    spans_to_jsonl_lines,
)


# ---------------------------------------------------------------------------
# SpanRecorder: ids, ring, kill switch, histograms
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_record_and_query(self):
        recorder = SpanRecorder(clock=lambda: 42.0)
        hop = recorder.hop("buffer.dwell")
        span_id = hop.record(7, 3, 10.0, 50.0, {"bytes": 99})
        assert span_id == 1
        assert len(recorder) == 1
        (span,) = recorder.spans()
        assert span.hop == "buffer.dwell"
        assert span.trace_id == 7
        assert span.parent_id == 3
        assert span.duration_ms == 40.0
        assert recorder.spans(hop="other") == []
        assert [s for s in recorder.spans() if s.trace_id == 7] == [span]
        assert recorder.now() == 42.0

    def test_ring_evicts_and_counts_dropped(self):
        recorder = SpanRecorder(max_spans=3)
        hop = recorder.hop("publish")
        for i in range(5):
            hop.record(i + 1, 0, float(i), float(i))
        assert len(recorder) == 3
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        # Oldest first, most recent window kept.
        assert [s.trace_id for s in recorder.spans()] == [3, 4, 5]
        # Histograms aggregate the whole run, not just the ring.
        assert recorder.hop_histogram("publish").count == 5

    def test_pickles_the_ring_as_rows_and_comes_back_whole(self):
        recorder = SpanRecorder(max_spans=3)
        hop = recorder.hop("publish")
        for i in range(5):
            hop.record(i + 1, 0, float(i), i + 0.5, {"n": i})
        rows = recorder.__getstate__()["_ring"]
        assert rows == span_rows(recorder) and type(rows[0]) is tuple
        # Pickled together, as a shard pickles a component's pre-bound
        # handle and the recorder it records into.
        clone, clone_hop = pickle.loads(pickle.dumps((recorder, hop)))
        assert spans_to_jsonl_lines(clone) == spans_to_jsonl_lines(recorder)
        assert (clone.recorded, clone.dropped, clone.max_spans) == (5, 2, 3)
        assert clone.hop("publish") is clone_hop and clone_hop is not hop
        # The next span continues the id sequence, in a ring still bounded.
        assert clone_hop.record(9, 0, 9.0, 9.5) == hop.record(9, 0, 9.0, 9.5) == 6
        assert [span.span_id for span in clone] == [4, 5, 6]
        assert spans_to_jsonl_lines(clone) == spans_to_jsonl_lines(recorder)

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)

    def test_kill_switch(self):
        recorder = SpanRecorder(clock=lambda: 0.0)
        hop = recorder.hop("publish")
        recorder.disable()
        assert hop.record(1, 0, 0.0, 0.0) == 0
        assert recorder.tag(Envelope.wrap({"a": 1})) == 0
        assert len(recorder) == 0
        assert recorder.recorded == 0

    def test_tag_is_idempotent_and_monotonic(self):
        recorder = SpanRecorder()
        first = Envelope.wrap({"a": 1})
        second = Envelope.wrap({"b": 2})
        assert recorder.tag(first) == 1
        assert recorder.tag(first) == 1  # forwarded hop keeps its id
        assert first.trace_id == 1
        assert recorder.tag(second) == 2

    def test_hop_handles_are_cached(self):
        recorder = SpanRecorder()
        assert recorder.hop("x") is recorder.hop("x")
        assert recorder.hop_names() == ["x"]

    def test_latency_reports(self):
        recorder = SpanRecorder()
        recorder.hop("a").record(1, 0, 0.0, 10.0)
        recorder.hop("a").record(2, 0, 0.0, 30.0)
        recorder.hop("empty")  # zero-count hops are omitted
        table = recorder.latency_table()
        assert "a" in table and "empty" not in table
        snapshot = recorder.latency_snapshot()
        assert snapshot == {
            "a": {"count": 2, "mean_ms": 20.0, "min_ms": 10.0, "max_ms": 30.0}
        }

    def test_trace_ids_skip_node_scoped_spans(self):
        recorder = SpanRecorder()
        recorder.hop("node.flush").record(0, 0, 0.0, 0.0)
        recorder.hop("publish").record(recorder.tag(Envelope.wrap({})), 0, 0.0, 0.0)
        assert recorder.trace_ids() == [1]


# ---------------------------------------------------------------------------
# Span trees and serialization
# ---------------------------------------------------------------------------


def make_chain(recorder):
    """publish -> fanout -> dwell for trace 1, plus an unrelated trace."""
    root = recorder.hop("publish").record(1, 0, 0.0, 0.0, {"channel": "battery"})
    fanout = recorder.hop("broker.fanout").record(1, root, 0.0, 0.0)
    recorder.hop("buffer.dwell").record(1, fanout, 0.0, 500.0)
    recorder.hop("publish").record(2, 0, 5.0, 5.0)
    return root, fanout


class TestSpanTree:
    def test_tree_depths_follow_parent_links(self):
        recorder = SpanRecorder()
        make_chain(recorder)
        rows = span_tree(recorder.spans(), 1)
        assert [(depth, span.hop) for depth, span in rows] == [
            (0, "publish"),
            (1, "broker.fanout"),
            (2, "buffer.dwell"),
        ]

    def test_missing_parent_becomes_root(self):
        recorder = SpanRecorder()
        recorder.hop("buffer.dwell").record(1, 999, 0.0, 10.0)
        rows = span_tree(recorder.spans(), 1)
        assert rows[0][0] == 0

    def test_render(self):
        recorder = SpanRecorder()
        make_chain(recorder)
        text = render_span_tree(recorder.spans(), 1)
        assert text.startswith("trace #1")
        assert "channel=battery" in text
        assert "buffer.dwell" in text
        assert render_span_tree([], 9).endswith("no spans in the flight recorder")

    def test_dict_roundtrip(self):
        span = Span(4, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "x@pogo"})
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()
        assert clone.duration_ms == span.duration_ms

    def test_jsonl_lines_are_deterministic(self):
        recorder = SpanRecorder()
        make_chain(recorder)
        lines = spans_to_jsonl_lines(recorder.spans())
        assert len(lines) == 4
        assert all(line.startswith('{"attrs":') for line in lines)

    def test_mixed_type_attr_keys_fail_as_the_stock_encoder_fails(self):
        # Keys that are not all strings are the stock encoder's business,
        # including the ones it cannot sort: the writer must look at the
        # key types before it sorts anything itself.
        span = Span(1, 1, 0, "h", 0.0, 1.0, {1: "a", "b": 2})
        with pytest.raises(TypeError) as ours:
            spans_to_jsonl_lines([span])
        with pytest.raises(TypeError) as reference:
            json.dumps(span.to_dict(), sort_keys=True)
        assert str(ours.value) == str(reference.value)
        assert str(ours.traceback[-1].path).endswith("encoder.py")
        comparable = Span(1, 1, 0, "h", 0.0, 1.0, {2: "a", 1: "b"})
        assert '"attrs":{"1":"b","2":"a"}' in spans_to_jsonl_lines([comparable])[0]


def test_disable_swaps_hop_handles_to_noops():
    from repro.sim.spans import NullHopHandle, SpanRecorder

    recorder = SpanRecorder(clock=lambda: 0.0)
    hop = recorder.hop("transport.send")
    span = hop.record(1, 0, 0.0, 1.0)
    assert span != 0
    recorder.disable()
    # Pre-bound handles become the no-op class: record returns 0 with no
    # attribute-chain branching.
    assert type(hop) is NullHopHandle
    assert hop.record(1, 0, 0.0, 1.0) == 0
    # Hops created while disabled are born as no-ops.
    late = recorder.hop("late.hop")
    assert type(late) is NullHopHandle


def test_middleware_kill_switches_disable_both_planes():
    from repro.core.shard import Shard, ShardSpec
    from repro.sim.metrics import NullCounter
    from repro.sim.spans import NullHopHandle

    sim = Shard(ShardSpec(shard_id="sim", seed=1, spans=False, metrics=False))
    device = sim.add_device()
    sim.start()
    sim.run(minutes=5)
    assert not sim.kernel.spans.enabled
    assert not sim.kernel.metrics.enabled
    assert sim.kernel.spans.recorded == 0
    # Every pre-bound counter and hop handle is the no-op class.
    assert all(
        type(c) is NullCounter for c in sim.kernel.metrics._counters.values()
    )
    assert all(
        type(h) is NullHopHandle for h in sim.kernel.spans._hops.values()
    )
    assert device.phone.energy_joules > 0  # the simulation itself ran
