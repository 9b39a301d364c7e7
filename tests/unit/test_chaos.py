"""Unit tests for the chaos impairment primitives and the monitor's senses.

Each impairment is exercised in isolation against a bare XMPP
switchboard, asserting three things per primitive: the wire-level effect
(dropped / doubled / late / overtaken), the ``chaos.*`` metrics counter,
and the ``chaos.impair`` span annotation carrying the action and link.
"""

import pytest

from repro.chaos import ChaosEngine, ChaosInterceptor, Impairment, stanza_trace_ids
from repro.chaos.invariants import InvariantMonitor, _SchedulerWitness
from repro.core.envelope import Envelope
from repro.core.middleware import PogoSimulation
from repro.net.xmpp import XmppServer
from repro.sim import Kernel, RandomStreams


def make_pair(latency_ms=10.0):
    """A switchboard with a connected a->b pair and a chaos interceptor."""
    kernel = Kernel()
    server = XmppServer(kernel, latency_ms=latency_ms)
    for jid in ("a@x", "b@x"):
        server.register(jid)
    server.add_roster_pair("a@x", "b@x")
    inbox = []
    server.connect("b@x", inbox.append)
    interceptor = ChaosInterceptor(kernel, RandomStreams(7).stream("chaos/impairments"))
    server.interceptor = interceptor
    return kernel, server, interceptor, inbox


def impair_spans(kernel, action=None):
    spans = kernel.spans.spans(hop="chaos.impair")
    if action is None:
        return spans
    return [s for s in spans if s.attrs.get("action") == action]


def chaos_count(kernel, name):
    return kernel.metrics.counter(f"chaos.{name}").value


# ---------------------------------------------------------------------------
# Impairment primitives
# ---------------------------------------------------------------------------


def test_passthrough_without_rules_counts_passed():
    kernel, server, interceptor, inbox = make_pair()
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert [m["n"] for m in inbox] == [1]
    assert chaos_count(kernel, "passed") == 1
    assert chaos_count(kernel, "dropped") == 0
    assert impair_spans(kernel) == []


def test_drop_loses_the_stanza_and_annotates():
    kernel, server, interceptor, inbox = make_pair()
    interceptor.add_rule("a@x", "b@x", Impairment(drop=1.0))
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert inbox == []
    assert chaos_count(kernel, "dropped") == 1
    (span,) = impair_spans(kernel, "drop")
    assert span.attrs["link"] == "a@x->b@x"


def test_duplicate_delivers_twice():
    kernel, server, interceptor, inbox = make_pair()
    interceptor.add_rule("a@x", "b@x", Impairment(dup=1.0))
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert [m["n"] for m in inbox] == [1, 1]
    assert chaos_count(kernel, "duplicated") == 1
    assert len(impair_spans(kernel, "dup")) == 1


def test_delay_adds_latency_within_bounds():
    kernel, server, interceptor, inbox = make_pair(latency_ms=10.0)
    interceptor.add_rule("a@x", "b@x", Impairment(delay_ms=(100.0, 100.0)))
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run_until(105.0)
    assert inbox == []  # base latency alone would have delivered at 10ms
    kernel.run_until(120.0)
    assert [m["n"] for m in inbox] == [1]
    assert chaos_count(kernel, "delayed") == 1
    (span,) = impair_spans(kernel, "delay")
    assert span.attrs["extra_ms"] == 100.0
    assert kernel.metrics.histogram("chaos.extra_latency_ms").count == 1


def test_reorder_holds_a_stanza_past_later_traffic():
    kernel, server, interceptor, inbox = make_pair()
    interceptor.add_rule("a@x", "b@x", Impairment(reorder=1.0, hold_ms=(500.0, 500.0)))
    server.submit("a@x", "b@x", {"n": 1})
    interceptor.heal()  # second stanza travels clean
    server.submit("a@x", "b@x", {"n": 2})
    kernel.run()
    assert [m["n"] for m in inbox] == [2, 1]
    assert chaos_count(kernel, "reordered") == 1
    assert len(impair_spans(kernel, "reorder")) == 1


def test_partition_blocks_both_directions_until_healed():
    kernel, server, interceptor, inbox = make_pair()
    inbox_a = []
    server.connect("a@x", inbox_a.append)
    kernel.run()  # let a's presence land before the island forms
    data = lambda box: [m["n"] for m in box if "n" in m]
    interceptor.start_partition({"b@x"})
    server.submit("a@x", "b@x", {"n": 1})
    server.submit("b@x", "a@x", {"n": 2})
    kernel.run()
    assert data(inbox) == [] and data(inbox_a) == []
    assert chaos_count(kernel, "partition_dropped") == 2
    interceptor.end_partition({"b@x"})
    server.submit("a@x", "b@x", {"n": 3})
    kernel.run()
    assert data(inbox) == [3]


def test_first_matching_rule_wins_over_wildcard():
    kernel, server, interceptor, inbox = make_pair()
    interceptor.add_rule("a@x", "b@x", Impairment())  # clean, specific
    interceptor.add_rule("*", "*", Impairment(drop=1.0))
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert [m["n"] for m in inbox] == [1]
    assert chaos_count(kernel, "dropped") == 0


def test_impairment_rejects_bad_probability():
    with pytest.raises(ValueError):
        Impairment(drop=1.5)


def test_span_carries_trace_id_of_riding_envelope():
    kernel, server, interceptor, inbox = make_pair()
    interceptor.add_rule("a@x", "b@x", Impairment(drop=1.0))
    envelope = Envelope.wrap({"v": 3.7})
    envelope.trace_id = 0xBEEF
    stanza = {
        "kind": "env", "seq": 1, "base": 1, "ack": 0,
        "payload": {"op": "batch", "items": [
            {"op": "pub", "channel": "battery", "msg": envelope},
        ]},
    }
    server.submit("a@x", "b@x", stanza)
    kernel.run()
    (span,) = impair_spans(kernel, "drop")
    assert span.trace_id == 0xBEEF
    assert stanza_trace_ids(stanza) == [0xBEEF]


def test_stanza_trace_ids_ignores_control_traffic():
    assert stanza_trace_ids({"kind": "ack", "ack": 4}) == []
    assert stanza_trace_ids({"kind": "env", "seq": 1, "payload": {"op": "sub_add"}}) == []


# ---------------------------------------------------------------------------
# Server restart + transport recovery
# ---------------------------------------------------------------------------


def test_server_restart_kills_sessions_but_keeps_offline_storage():
    kernel, server, interceptor, inbox = make_pair()
    server.submit("a@x", "b@x", {"n": 1})
    kernel.run()
    assert len(inbox) == 1
    disconnected = server.restart()
    assert "b@x" in disconnected and server.restarts == 1
    server.submit("a@x", "b@x", {"n": 2})
    kernel.run()
    assert len(inbox) == 1  # not delivered: b's session died
    assert server.offline_count("b@x") == 1  # ...but stored, like Openfire's DB
    server.connect("b@x", inbox.append)
    kernel.run()
    assert [m["n"] for m in inbox] == [1, 2]


def test_engine_restart_reconnects_every_transport():
    sim = PogoSimulation(seed=3)
    collector = sim.add_collector("ops")
    device = sim.add_device()
    engine = ChaosEngine(sim)
    sim.start()
    sim.run(minutes=1)
    assert collector.node.transport.connected and device.node.transport.connected
    engine.server_restart(sim.kernel.now + 1_000.0)
    sim.run(minutes=1)
    assert sim.server.restarts == 1
    assert sim.kernel.metrics.counter("chaos.server_restarts").value == 1
    assert collector.node.transport.reconnects >= 1
    assert collector.node.transport.connected
    assert device.node.transport.connected


# ---------------------------------------------------------------------------
# The monitor's senses (violations must actually fire)
# ---------------------------------------------------------------------------


def make_monitored_sim():
    sim = PogoSimulation(seed=5)
    sim.add_collector("ops")
    sim.add_device()
    monitor = InvariantMonitor(sim)
    return sim, monitor


def test_scheduler_witness_flags_overlapping_serial_tasks():
    sim, monitor = make_monitored_sim()
    witness = _SchedulerWitness(monitor, "s")
    witness.task_started(None, "script-1")
    witness.task_started(None, "script-1")  # would mean two threads in one script
    assert any(v.invariant == "scheduler-serialization" for v in monitor.violations)


def test_scheduler_witness_accepts_sequential_tasks():
    sim, monitor = make_monitored_sim()
    witness = _SchedulerWitness(monitor, "s")
    for _ in range(3):
        witness.task_started(None, "script-1")
        witness.task_finished(None, "script-1")
    assert monitor.violations == []


def test_buffer_conservation_violation_detected():
    sim, monitor = make_monitored_sim()
    device = next(iter(sim.devices.values()))
    device.node.buffer.enqueued += 1  # forge a book-keeping hole
    sim.run(minutes=1)  # periodic check fires at 30s
    assert any(v.invariant == "buffer-conservation" for v in monitor.violations)
