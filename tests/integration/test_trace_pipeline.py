"""End-to-end lifecycle tracing: causal chains, energy books, determinism.

A seeded fleet runs the battery-telemetry experiment with tracing on (the
default), then the span stream is checked for the properties the tracer
exists to provide: every hop kind fires, each delivered message's spans
form one connected causal chain from ``publish`` to ``deliver.collector``,
the per-device energy ledgers reconcile against the integrated episode
energy, and two identical seeded runs export byte-identical JSONL.
"""

import pytest

from repro.analysis.export import spans_to_jsonl
from repro.apps import battery_monitor
from repro.core.shard import Shard, ShardSpec
from repro.sim.spans import span_tree


def run_fleet(seed=5, devices=3, hours=1.0, spans=True):
    sim = Shard(ShardSpec(shard_id="sim", seed=seed, spans=spans))
    collector = sim.add_collector("lab")
    fleet = [sim.add_device(with_email_app=True) for _ in range(devices)]
    sim.start()
    sim.assign(collector, fleet)
    collector.node.deploy(
        battery_monitor.build_experiment(), [d.jid for d in fleet]
    )
    sim.run(hours=hours)
    return sim, fleet


#: Every hop kind the battery pipeline must touch on a cellular fleet.
EXPECTED_HOPS = {
    "publish",
    "broker.fanout",
    "buffer.enqueue",
    "buffer.dwell",
    "tailsync.decision",
    "node.flush",
    "transport.send",
    "xmpp.route",
    "deliver.collector",
    "scheduler.task",
    "script.call",
}


def test_all_hop_kinds_recorded():
    sim, _ = run_fleet()
    recorder = sim.kernel.spans
    fired = {name for name in recorder.hop_names()
             if recorder.hop_histogram(name).count > 0}
    assert EXPECTED_HOPS <= fired
    assert recorder.recorded == len(recorder) + recorder.dropped
    assert sim.kernel.metrics.snapshot()["spans.recorded"] == recorder.recorded


def test_delivered_messages_have_connected_causal_chains():
    sim, _ = run_fleet()
    recorder = sim.kernel.spans
    delivered = recorder.spans(hop="deliver.collector")
    assert len(delivered) > 0
    all_spans = recorder.spans()
    checked = 0
    for deliver in delivered[-20:]:
        rows = span_tree(all_spans, deliver.trace_id)
        hops = {span.hop: depth for depth, span in rows}
        if "publish" not in hops:
            continue  # early spans may have been evicted from the ring
        checked += 1
        # One connected chain: publish is the root, delivery the deepest.
        assert hops["publish"] == 0
        assert hops["deliver.collector"] == max(depth for depth, _ in rows)
        order = [span.hop for _, span in rows]
        assert order.index("publish") < order.index("buffer.enqueue")
        assert order.index("buffer.enqueue") < order.index("buffer.dwell")
        assert order.index("buffer.dwell") < order.index("deliver.collector")
        # The e2e span runs from the origin publish to delivery.
        assert deliver.start_ms == rows[0][1].start_ms
        assert deliver.end_ms >= deliver.start_ms
    assert checked > 0


def test_flush_decisions_link_radio_side_spans():
    sim, _ = run_fleet()
    recorder = sim.kernel.spans
    decisions = {s.span_id for s in recorder.spans(hop="tailsync.decision")}
    flushes = recorder.spans(hop="node.flush")
    assert flushes and decisions
    assert any(f.parent_id in decisions for f in flushes)
    flush_ids = {f.span_id for f in flushes}
    sends = recorder.spans(hop="transport.send")
    assert sends
    assert any(s.parent_id in flush_ids for s in sends)
    # Dwell spans name the flush that drained them.
    dwells = recorder.spans(hop="buffer.dwell")
    assert dwells
    assert any(d.attrs["flush_span"] in flush_ids for d in dwells)


def test_energy_ledgers_reconcile_within_one_percent():
    sim, fleet = run_fleet()
    attributed = 0.0
    messages = 0
    for device in fleet:
        ledger = device.node.energy
        ledger.finalize()
        assert ledger.reconciliation_delta() < 0.01
        # Per episode nothing went missing, and with the idle share the
        # books add up to the rail's modem joules.
        parts = ledger.attributed_j + ledger.control_j + ledger.unattributed_j
        assert parts == pytest.approx(ledger.active_j, rel=1e-9)
        modem_j = device.phone.rail.energy_of(device.phone.modem.name)
        assert parts + ledger.idle_j == pytest.approx(modem_j, rel=1e-9)
        attributed += ledger.attributed_j
        messages += ledger.messages_attributed
    assert messages > 0
    assert attributed > 0.0


def test_kill_switch_records_nothing():
    sim, _ = run_fleet(spans=False)
    recorder = sim.kernel.spans
    assert recorder.recorded == 0
    assert len(recorder) == 0
    assert recorder.trace_ids() == []


def test_span_export_determinism():
    """Two identical seeded runs export byte-identical JSONL (CI pins this)."""
    first, _ = run_fleet(seed=11, devices=2, hours=0.5)
    second, _ = run_fleet(seed=11, devices=2, hours=0.5)
    text_a = spans_to_jsonl(first.kernel.spans)
    text_b = spans_to_jsonl(second.kernel.spans)
    assert text_a == text_b
    assert text_a.count("\n") == len(first.kernel.spans)
    # And a different fleet genuinely changes the stream (the check is
    # not vacuous).
    third, _ = run_fleet(seed=11, devices=3, hours=0.5)
    assert spans_to_jsonl(third.kernel.spans) != text_a
