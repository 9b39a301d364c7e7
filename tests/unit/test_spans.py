"""Unit tests for lifecycle spans and the flight recorder."""

import json
import pickle

import pytest

from repro.core.envelope import Envelope
from repro.sim.metrics import MetricsRegistry, render_report
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
        recorder = SpanRecorder(MetricsRegistry(), clock=lambda: 42.0)
        hop = recorder.hop("buffer.dwell")
        span_id = hop.record(7, 3, 10.0, 50.0, ("bytes",), 99)
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
        metrics = MetricsRegistry()
        recorder = SpanRecorder(metrics, max_spans=3)
        hop = recorder.hop("publish")
        for i in range(5):
            hop.record(i + 1, 0, float(i), float(i))
        assert len(recorder) == 3
        assert recorder.recorded == 5
        assert recorder.dropped == 2
        # Oldest first, most recent window kept.
        assert [s.trace_id for s in recorder.spans()] == [3, 4, 5]
        # Histograms aggregate the whole run, not just the ring.
        assert metrics.histogram("hop.publish").count == 5
        assert metrics.snapshot()["spans.dropped"] == 2

    def test_pickles_the_ring_as_rows_and_comes_back_whole(self):
        recorder = SpanRecorder(MetricsRegistry(), max_spans=3)
        hop = recorder.hop("publish")
        for i in range(5):
            hop.record(i + 1, 0, float(i), i + 0.5, ("n",), i)
        # No conversion: what pickles is the recorder's own state, whose
        # ring already holds rows.
        rows = vars(recorder)["_ring"]
        assert list(rows) == span_rows(recorder) and type(rows[0]) is tuple
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
            SpanRecorder(MetricsRegistry(), max_spans=0)

    def test_kill_switch(self):
        recorder = SpanRecorder(MetricsRegistry(), clock=lambda: 0.0)
        recorder.hop("publish")
        recorder.disable()
        assert recorder.tag(Envelope.wrap({"a": 1})) == 0
        assert len(recorder) == 0
        assert recorder.recorded == 0

    def test_tag_is_idempotent_and_monotonic(self):
        recorder = SpanRecorder(MetricsRegistry())
        first = Envelope.wrap({"a": 1})
        second = Envelope.wrap({"b": 2})
        assert recorder.tag(first) == 1
        assert recorder.tag(first) == 1  # forwarded hop keeps its id
        assert first.trace_id == 1
        assert recorder.tag(second) == 2

    def test_hop_handles_are_cached(self):
        metrics = MetricsRegistry()
        recorder = SpanRecorder(metrics)
        assert recorder.hop("x") is recorder.hop("x")
        assert recorder.hop("x").histogram is metrics.histogram("hop.x")

    def test_latency_reports(self):
        # Hop latencies are registry histograms, reported by its writers.
        metrics = MetricsRegistry()
        recorder = SpanRecorder(metrics)
        recorder.hop("a").record(1, 0, 0.0, 10.0)
        recorder.hop("a").record(2, 0, 0.0, 30.0)
        recorder.hop("empty")  # zero-count hops are omitted
        table = render_report(metrics.nonzero())
        assert "hop.a" in table and "hop.empty" not in table
        assert metrics.nonzero() == {
            "hop.a": {"count": 2, "sum": 40.0, "mean": 20.0, "min": 10.0, "max": 30.0},
            "spans.recorded": 2,
        }

    def test_trace_ids_skip_node_scoped_spans(self):
        recorder = SpanRecorder(MetricsRegistry())
        recorder.hop("node.flush").record(0, 0, 0.0, 0.0)
        recorder.hop("publish").record(recorder.tag(Envelope.wrap({})), 0, 0.0, 0.0)
        assert recorder.trace_ids() == [1]

    def test_a_span_keeps_its_attrs_as_they_were_recorded(self):
        # The ring keeps the keys and values it was handed, so a dict the
        # caller took them from may change afterwards.
        recorder = SpanRecorder(MetricsRegistry())
        attrs = {"reason": "tail", "batches": 2}
        recorder.hop("node.flush").record(0, 0, 1.0, 1.0, tuple(attrs), *attrs.values())
        attrs["batches"] = 3
        attrs["late"] = True
        del attrs["reason"]
        (span,) = recorder.spans()
        assert span.attrs == {"reason": "tail", "batches": 2}
        assert '"attrs":{"batches":2,"reason":"tail"}' in spans_to_jsonl_lines(recorder)[0]

    def test_no_attrs_and_empty_attrs_are_one_span(self):
        recorder = SpanRecorder(MetricsRegistry())
        hop = recorder.hop("publish")
        hop.record(1, 0, 2.0, 3.0)
        hop.record(1, 0, 2.0, 3.0, ())
        first, second = spans_to_jsonl_lines(recorder)
        assert first.replace('"span":1', '"span":2') == second
        assert first.startswith('{"attrs":{},')
        one, two = recorder.spans()
        assert one.attrs == two.attrs == {}
        assert Span(1, 1, 0, "publish", 2.0, 3.0, None) == one

    def test_one_shape_of_attrs_shares_one_key_tuple(self):
        recorder = SpanRecorder(MetricsRegistry())
        hop = recorder.hop("buffer.dwell")
        for i in range(3):
            hop.record(1, 0, 0.0, 1.0, ("flush_span", "reason"), i, "tail")
        hop.record(1, 0, 0.0, 1.0, ("reason", "flush_span"), "tail", 9)
        rows = span_rows(recorder)
        assert rows[0][6] == ("flush_span", "reason")
        assert rows[0][6] is rows[1][6] is rows[2][6] is not rows[3][6]
        assert rows[3][6:] == (("reason", "flush_span"), "tail", 9)

    def test_keys_of_other_types_keep_their_own_type(self):
        # 1, 1.0 and True are one dict key but three JSON names: each
        # span keeps the key it was given.
        recorder = SpanRecorder(MetricsRegistry())
        hop = recorder.hop("h")
        for key in (True, 1, 1.0):
            hop.record(1, 0, 0.0, 1.0, (key,), "x")
        assert [span.attrs for span in recorder.spans()] == [{True: "x"}] * 3
        assert [type(next(iter(span.attrs))) for span in recorder] == [bool, int, float]
        assert [line[:18] for line in spans_to_jsonl_lines(recorder)] == [
            '{"attrs":{"true":"', '{"attrs":{"1":"x"}', '{"attrs":{"1.0":"x'
        ]

    def test_a_ring_row_costs_well_under_a_span_object_with_a_dict(self):
        # Bytes the ring retains per span of one 2-key shape, the span's
        # own ids and times included: 385.7 when the ring held a Span
        # object and the caller's attrs dict, 226.6 as one flat row.
        import tracemalloc

        recorder = SpanRecorder(MetricsRegistry())
        hop = recorder.hop("buffer.dwell")
        hop.record(1, 0, 0.0, 1.0, ("flush_span", "reason"), 0, "tail")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(10_000):
                hop.record(
                    i, i, i * 1.5, i * 1.5 + 2.25, ("flush_span", "reason"), 7, "tail"
                )
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recorder) == 10_001
        assert (after - before) / 10_000 < 300, (after - before) / 10_000


class TestSpanValues:
    def test_spans_compare_by_value(self):
        span = Span(4, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "x@pogo", "n": 1})
        assert span == Span(4, 2, 1, "xmpp.route", 1.25, 9.5, {"n": 1, "to": "x@pogo"})
        assert span != Span(4, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "y@pogo", "n": 1})
        assert span != Span(5, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "x@pogo", "n": 1})
        assert span != Span(4, 2, 1, "xmpp.route", 1.25, 9.0, {"to": "x@pogo", "n": 1})
        assert span != (4, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "x@pogo", "n": 1})
        assert Span(1, 1, 0, "h", 0.0, 0.0, None) == Span(1, 1, 0, "h", 0.0, 0.0, {})
        with pytest.raises(TypeError):
            hash(span)

    def test_two_reads_of_a_span_are_equal_objects(self):
        recorder = SpanRecorder(MetricsRegistry())
        recorder.hop("publish").record(1, 0, 0.0, 0.0, ("channel",), "battery")
        (first,) = recorder.spans()
        (second,) = list(recorder)
        assert first == second and first is not second
        assert first.attrs is not second.attrs
        first.attrs["channel"] = "changed"  # a read owns its attrs
        assert recorder.spans() == [second]

    def test_a_span_and_its_row_are_one_value(self):
        span = Span(4, 2, 1, "xmpp.route", 1.25, 9.5, {"to": "x@pogo", "n": 1})
        assert span.row == (4, 2, 1, "xmpp.route", 1.25, 9.5, ("to", "n"), "x@pogo", 1)
        assert Span(1, 1, 0, "h", 0.0, 0.0, None).row == (1, 1, 0, "h", 0.0, 0.0, ())
        assert span_rows([span]) == [span.row]


# ---------------------------------------------------------------------------
# Span trees and serialization
# ---------------------------------------------------------------------------


def make_chain(recorder):
    """publish -> fanout -> dwell for trace 1, plus an unrelated trace."""
    root = recorder.hop("publish").record(1, 0, 0.0, 0.0, ("channel",), "battery")
    fanout = recorder.hop("broker.fanout").record(1, root, 0.0, 0.0)
    recorder.hop("buffer.dwell").record(1, fanout, 0.0, 500.0)
    recorder.hop("publish").record(2, 0, 5.0, 5.0)
    return root, fanout


class TestSpanTree:
    def test_tree_depths_follow_parent_links(self):
        recorder = SpanRecorder(MetricsRegistry())
        make_chain(recorder)
        rows = span_tree(recorder.spans(), 1)
        assert [(depth, span.hop) for depth, span in rows] == [
            (0, "publish"),
            (1, "broker.fanout"),
            (2, "buffer.dwell"),
        ]

    def test_missing_parent_becomes_root(self):
        recorder = SpanRecorder(MetricsRegistry())
        recorder.hop("buffer.dwell").record(1, 999, 0.0, 10.0)
        rows = span_tree(recorder.spans(), 1)
        assert rows[0][0] == 0

    def test_render(self):
        recorder = SpanRecorder(MetricsRegistry())
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
        recorder = SpanRecorder(MetricsRegistry())
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


class TestTheWritersMemo:
    """Each distinct attrs object and time is formatted once per call:
    counted, not timed."""

    N, K = 600, 7
    TIMES = (80.0, 2900.0, 2980.5, 4130.125)

    def _recorder(self):
        recorder = SpanRecorder(MetricsRegistry())
        hops = [recorder.hop(name) for name in ("publish", "buffer.dwell", "xmpp.route")]
        for i in range(self.N):
            start = self.TIMES[i % 3]
            hops[i % 3].record(
                i, i // 2, start, self.TIMES[i % 4],
                ("device", "bytes"), f"device-{i % self.K}", 180,
            )
        return recorder

    @pytest.fixture
    def counted(self, monkeypatch):
        import repro.sim.spans as spans

        calls = {"attrs": 0, "round": 0}
        encode = spans._LineWriter.encode_attrs

        def counting_encode(writer, keys, values):
            calls["attrs"] += 1
            return encode(writer, keys, values)

        def counting_round(value, digits):
            calls["round"] += 1
            return round(value, digits)

        monkeypatch.setattr(spans._LineWriter, "encode_attrs", counting_encode)
        monkeypatch.setattr(spans, "round", counting_round, raising=False)
        return calls

    @pytest.mark.parametrize("given", ["recorder", "spans"])
    def test_k_attrs_objects_take_k_encodings_and_each_time_one_round(
        self, counted, given
    ):
        recorder = self._recorder()
        # Span objects make a new key tuple per row: the memo keys by value.
        spans = recorder if given == "recorder" else recorder.spans()
        first = spans_to_jsonl_lines(spans)
        assert len(first) == self.N
        assert counted == {"attrs": self.K, "round": len(self.TIMES)}
        # A second call starts with an empty memo, and writes the same bytes.
        assert spans_to_jsonl_lines(spans) == first
        assert counted == {"attrs": 2 * self.K, "round": 2 * len(self.TIMES)}
        assert first == [
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
            for span in recorder
        ]

    def test_values_that_compare_equal_keep_their_own_text(self, counted):
        recorder = SpanRecorder(MetricsRegistry())
        hop = recorder.hop("h")
        values = (1, 1.0, True, 0.0, -0.0, 0, False, 1, 0.0, -0.0)
        for value in values:
            hop.record(1, 0, value * 1.0, 2.0, ("v",), value)
        lines = spans_to_jsonl_lines(recorder)
        assert [json.loads(line)["attrs"]["v"] for line in lines] == list(values)
        assert [line[14:line.index("}")] for line in lines] == [
            "1", "1.0", "true", "0.0", "-0.0", "0", "false", "1", "0.0", "-0.0"
        ]
        assert [line.rsplit('"start_ms":', 1)[1].split(",")[0] for line in lines] == [
            "1.0", "1.0", "1.0", "0.0", "-0.0", "0.0", "0.0", "1.0", "0.0", "-0.0"
        ]
        # Nine encodings for ten spans: the second ``1`` is remembered, but
        # a zero float never is, since 0.0 == -0.0.
        assert counted["attrs"] == 9


def test_two_spans_from_one_call_site_share_one_key_tuple():
    # What a row costs rests on it: every call site of HopHandle.record
    # in the package passes one constant tuple of names, so a ring of
    # 65,536 spans holds a few dozen key tuples, not one per span.  A
    # short chaos run reaches the sites of most hops, chaos.impair's four
    # shapes included.
    from repro.chaos import run_scenario

    artifacts = {}
    run_scenario("mixed", seed=5, devices=6, minutes=8.0, artifacts=artifacts)
    rows = span_rows(artifacts["sim"].kernel.spans)
    objects = {}
    for row in rows:
        objects.setdefault((row[3], row[6]), set()).add(id(row[6]))
    assert sum(hop == "chaos.impair" for hop, _ in objects) == 4
    assert {"script.call", "xmpp.route", "transport.send"} <= {hop for hop, _ in objects}
    assert len(rows) > 1_000 and len(objects) < 40
    shared = {key: len(ids) for key, ids in objects.items() if len(ids) > 1}
    assert not shared, shared


def test_middleware_kill_switches_disable_both_planes():
    from repro.core.shard import Shard, ShardSpec
    from repro.sim.metrics import NullCounter

    sim = Shard(ShardSpec(shard_id="sim", seed=1, spans=False, metrics=False))
    device = sim.add_device()
    sim.start()
    sim.run(minutes=5)
    assert not sim.kernel.spans.enabled
    assert not sim.kernel.metrics.enabled
    assert sim.kernel.spans.recorded == 0
    # Every pre-bound counter is the no-op class.
    assert all(
        type(c) is NullCounter for c in sim.kernel.metrics._counters.values()
    )
    assert device.phone.energy_joules > 0  # the simulation itself ran


#: A collector that publishes to its device once, and a device script
#: that spins on it until the watchdog stops it: the two hop kinds the
#: chaos campaign and the scenario do not reach.
_SPIN = "def spin(message):\n    while True:\n        pass\nsubscribe('cmd', spin)\n"
_COMMAND = "setTimeout(lambda: publish('cmd', {'go': 1}), 120000)\n"


def _hop_counts_and_spans():
    """Every ``hop.*`` count and ``spans.recorded``, summed over a small
    chaos ``mixed`` campaign, a scenario shard and the spin shard."""
    from repro.chaos import run_scenario
    from repro.core.deployment import Experiment
    from repro.core.shard import DeviceSpec, Shard, ShardSpec
    from repro.fleet import run_fleet
    from repro.scenarios.presets import build_preset
    from repro.sim.kernel import HOUR

    artifacts = {}
    run_scenario("mixed", seed=5, devices=6, minutes=8.0, artifacts=artifacts)
    snapshots = [artifacts["sim"].kernel.metrics.snapshot()]
    scenario = build_preset("stadium-evening", scale=0.05)
    snapshots.append(run_fleet(
        scenario.compile(), 1, duration_ms=scenario.hours * HOUR,
        workload="scenario", workload_ctx={"scenario": scenario}, processes=False,
    ).metrics)
    shard = Shard(ShardSpec(seed=3, collectors=("lab",), devices=(DeviceSpec(),)))
    collector = shard.collectors["lab@pogo"]
    shard.start()
    shard.assign(collector, list(shard.devices.values()))
    collector.node.deploy(
        Experiment("spin", device_scripts={"spin": _SPIN}, collector_scripts={"go": _COMMAND}),
        sorted(shard.devices),
    )
    shard.run(minutes=5)
    snapshots.append(shard.kernel.metrics.snapshot())
    counts = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name.startswith("hop.") or name == "spans.recorded":
                counts[name] = counts.get(name, 0) + (
                    value["count"] if isinstance(value, dict) else value
                )
    return counts


#: Every hop kind a call site in the package records.
ALL_HOPS = {
    "broker.fanout", "buffer.dwell", "buffer.enqueue", "chaos.impair",
    "deliver.collector", "deliver.device", "node.flush", "publish",
    "scheduler.task", "script.call", "script.watchdog",
    "tailsync.decision", "transport.send", "xmpp.route",
}


def test_an_untraced_run_reaches_no_recorder_at_any_call_site(monkeypatch):
    # A disabled recorder's handles are the live class: each call site
    # checks ``spans.enabled`` before it records.  Traced, these runs
    # reach every hop kind; untraced, with metrics still on, no span is
    # recorded and no hop histogram observes anything.
    from repro.sim.kernel import Kernel

    traced = _hop_counts_and_spans()
    assert {name[4:] for name, count in traced.items() if name[:4] == "hop." and count} == ALL_HOPS
    original = Kernel.__init__

    def untraced(self):
        original(self)
        self.spans.disable()

    monkeypatch.setattr(Kernel, "__init__", untraced)
    counts = _hop_counts_and_spans()
    assert counts.pop("spans.recorded") == 0
    assert counts and not any(counts.values()), counts
