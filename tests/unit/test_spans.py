"""Unit tests for lifecycle spans, the flight recorder and the energy ledger."""

import json
import pickle

import pytest

from repro.core.envelope import Envelope
from repro.device.power import PowerRail
from repro.device.radio import KPN, Modem
from repro.sim.kernel import Kernel
from repro.sim.spans import (
    EnergyLedger,
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
        assert recorder.spans(trace_id=7) == [span]
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
        recorder.enable()
        assert hop.record(1, 0, 0.0, 0.0) == 1

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


# ---------------------------------------------------------------------------
# EnergyLedger: episodes, triggers, attribution, reconciliation
# ---------------------------------------------------------------------------


def make_radio():
    """A bare modem as the rail's only component: the rail's integral and
    the ledger's total must then agree exactly."""
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, KPN)
    ledger = EnergyLedger(kernel, modem)
    return kernel, rail, modem, ledger


def run_to_idle(kernel, modem, limit_ms=200_000.0):
    kernel.run_until(kernel.now + limit_ms)
    assert modem.state == "idle"


class TestEnergyLedger:
    def test_external_episode_is_unattributed(self):
        kernel, rail, modem, ledger = make_radio()
        modem.transfer(tx_bytes=5_000, label="email")
        run_to_idle(kernel, modem)
        ledger.finalize()
        assert ledger.episodes_closed == 1
        assert ledger.episodes_by_trigger["external"] == 1
        assert ledger.attributed_j == 0.0
        assert ledger.unattributed_j > 0.0
        # Exact piecewise-constant accounting: the ledger's total is the
        # rail's integral (the modem is the only component on the rail).
        assert ledger.total_j == pytest.approx(rail.energy_joules, rel=1e-9)
        assert ledger.reconciliation_delta() == 0.0

    def test_flush_triggered_episode_charges_pogo_in_full(self):
        kernel, rail, modem, ledger = make_radio()
        # Pogo flushes from idle: mark first, then the transfer ramps the
        # radio (the order DeviceNode.flush uses).
        ledger.on_flush(flush_span=11, riders=[(1, 400)], interface="3g",
                        radio_state=modem.state)
        modem.transfer(tx_bytes=400, label="pogo-flush")
        run_to_idle(kernel, modem)
        ledger.finalize()
        assert ledger.episodes_by_trigger["flush"] == 1
        # Self-initiated: ramp + transfer + both tails all belong to Pogo.
        assert ledger.attributed_j == pytest.approx(ledger.active_j)
        assert ledger.unattributed_j == pytest.approx(0.0)
        assert ledger.piggybacked_messages == 0
        (entry,) = ledger.recent
        assert entry.trace_id == 1
        assert entry.flush_span == 11
        assert not entry.piggybacked
        assert ledger.total_j == pytest.approx(rail.energy_joules, rel=1e-9)

    def test_piggybacked_flush_pays_only_marginal_transfer(self):
        kernel, rail, modem, ledger = make_radio()
        # The e-mail app wakes the radio...
        modem.transfer(tx_bytes=20_000, label="email")
        kernel.run_until(kernel.now + 3_000.0)
        assert modem.state == "dch"
        # ...and Pogo piggybacks while the channel is hot.
        ledger.on_flush(flush_span=22, riders=[(1, 400)], interface="3g",
                        radio_state=modem.state)
        modem.transfer(tx_bytes=400, label="pogo-flush")
        run_to_idle(kernel, modem)
        ledger.finalize()
        assert ledger.episodes_by_trigger["external"] == 1
        # Marginal cost only: the KPN minimum transfer slot at DCH power.
        expected = KPN.dch_w * KPN.min_transfer_ms / 1000.0
        assert ledger.attributed_j == pytest.approx(expected)
        assert ledger.piggybacked_messages == 1
        assert ledger.attributed_j < ledger.active_j
        assert ledger.total_j == pytest.approx(rail.energy_joules, rel=1e-9)
        assert ledger.reconciliation_delta() == 0.0

    def test_proration_by_bytes_and_control_share(self):
        kernel, rail, modem, ledger = make_radio()
        # One flush carrying a traced message (300 B), another traced
        # message (100 B) and an untraced control payload (100 B).
        ledger.on_flush(
            flush_span=5,
            riders=[(1, 300), (2, 100), (0, 100)],
            interface="3g",
            radio_state=modem.state,
        )
        modem.transfer(tx_bytes=500, label="pogo-flush")
        run_to_idle(kernel, modem)
        ledger.finalize()
        total = ledger.active_j
        # Shares split by wire bytes: 300/500, 100/500 to messages, the
        # control rider's 100/500 lands in control_j.
        assert ledger.attributed_j == pytest.approx(total * 400 / 500)
        assert ledger.control_j == pytest.approx(total * 100 / 500)
        assert ledger.messages_attributed == 2
        entries = list(ledger.recent)
        assert entries[0].joules == pytest.approx(3 * entries[1].joules)
        assert ledger.reconciliation_delta() == 0.0

    def test_settle_flush_clears_stale_marker(self):
        kernel, rail, modem, ledger = make_radio()
        # A flush whose transfer never reached the modem (link failure).
        ledger.on_flush(flush_span=9, riders=[(1, 400)], interface="3g",
                        radio_state=modem.state)
        ledger.settle_flush()
        # A later, unrelated wake-up must not inherit the trigger or riders.
        modem.transfer(tx_bytes=5_000, label="email")
        run_to_idle(kernel, modem)
        ledger.finalize()
        assert ledger.episodes_by_trigger["external"] == 1
        assert ledger.episodes_by_trigger["flush"] == 0
        assert ledger.attributed_j == 0.0

    def test_wifi_flush_costs_no_modem_energy(self):
        kernel, rail, modem, ledger = make_radio()
        ledger.on_flush(flush_span=3, riders=[(1, 750)], interface="wifi",
                        radio_state=modem.state)
        ledger.finalize()
        assert ledger.wifi_bytes == 750
        assert ledger.active_j == 0.0
        assert ledger.messages_attributed == 0

    def test_finalize_closes_open_episode(self):
        kernel, rail, modem, ledger = make_radio()
        modem.transfer(tx_bytes=1_000, label="email")
        kernel.run_until(kernel.now + 4_000.0)  # mid-tail, episode open
        assert modem.state == "dch"
        ledger.finalize()
        assert ledger.episodes_closed == 1
        assert ledger.total_j == pytest.approx(rail.energy_joules, rel=1e-9)

    def test_snapshot_shape(self):
        kernel, rail, modem, ledger = make_radio()
        modem.transfer(tx_bytes=1_000)
        run_to_idle(kernel, modem)
        ledger.finalize()
        snapshot = ledger.snapshot()
        assert snapshot["episodes"] == 1
        assert snapshot["total_j"] == pytest.approx(
            snapshot["active_j"] + snapshot["idle_j"]
        )


def test_disable_swaps_hop_handles_to_noops():
    from repro.sim.spans import HopHandle, NullHopHandle, SpanRecorder

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
    recorder.enable()
    assert type(hop) is HopHandle
    assert type(late) is HopHandle
    assert hop.record(1, span, 1.0, 2.0) != 0


def test_middleware_kill_switches_disable_both_planes():
    from repro.core.middleware import PogoSimulation
    from repro.sim.metrics import NullCounter
    from repro.sim.spans import NullHopHandle

    sim = PogoSimulation(seed=1, spans=False, metrics=False)
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
