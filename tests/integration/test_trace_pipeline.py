"""End-to-end lifecycle tracing: causal chains, energy books, determinism.

A seeded fleet runs the battery-telemetry experiment with tracing on (the
default), then the span stream is checked for the properties the tracer
exists to provide: every hop kind fires, each delivered message's spans
form one connected causal chain from ``publish`` to ``deliver.collector``,
each device's radio-episode record adds up to the rail's modem joules,
and two identical seeded runs export byte-identical JSONL.
"""

import pytest

from repro.analysis.energy import ModemStateLog
from repro.analysis.export import spans_to_jsonl
from repro.apps import battery_monitor
from repro.core.shard import Shard, ShardSpec
from repro.sim.spans import span_tree


def run_fleet(seed=5, devices=3, hours=1.0, spans=True):
    """Returns the shard and each device's radio-episode record."""
    sim = Shard(ShardSpec(shard_id="sim", seed=seed, spans=spans))
    collector = sim.add_collector("lab")
    fleet = [sim.add_device(with_email_app=True) for _ in range(devices)]
    records = {
        d.jid: ModemStateLog(sim.kernel, d.phone.modem, d.phone.rail) for d in fleet
    }
    sim.start()
    sim.assign(collector, fleet)
    collector.node.deploy(
        battery_monitor.build_experiment(), [d.jid for d in fleet]
    )
    sim.run(hours=hours)
    return sim, records


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
    fired = {name[len("hop."):] for name, value in sim.kernel.metrics.nonzero().items()
             if name.startswith("hop.")}
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
    sim, records = run_fleet()
    for jid, states in records.items():
        phone = sim.devices[jid].phone
        episodes = states.episodes(sim.kernel.now)
        # One episode per ramp-up, and tail sync wakes the radio for none:
        # every flush rode an episode the e-mail app opened (Figure 4).
        assert len(episodes) == phone.modem.rampup_count > 0
        assert states.episodes_by_trigger(sim.kernel.now)["flush"] == 0
        # The rail's readings between episodes plus the episodes' joules
        # are the rail's modem joules.
        idle_j = 0.0
        closed_j = 0.0
        for _, old, new, modem_j, _ in states.transitions:
            if old == "idle" and new == "ramp":
                idle_j += modem_j - closed_j
            elif new == "idle":
                closed_j = modem_j
        modem_j = phone.rail.energy_of(phone.modem.name)
        if phone.modem.state == "idle":
            idle_j += modem_j - closed_j
        active_j = sum(e.joules for e in episodes)
        assert active_j > 0.0
        assert active_j + idle_j == pytest.approx(modem_j, rel=1e-9)


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
