"""Each fact is counted once, and the registry reports that one count.

A model attribute the reports read (``server.stanzas_routed``,
``buffer.enqueued``, ``detector.polls``, ...) is the count; the kernel's
metrics registry reads it when a snapshot is taken instead of keeping a
twin counter beside it.  Checked on a 20-device, 2-shard in-process
fleet, with the metrics plane on and off: every pulled registry count
equals its attribute summed over the shard's nodes, and no stanza count
shows up under two names in a telemetry sample, the totals line or the
Prometheus export.  A ``hop.*`` histogram is read for latency; its count
must be the model count it shadows, here and in a chaos campaign, so a
missed or doubled ``record`` call site shows.
"""

import json

import pytest

from repro.chaos import run_scenario
from repro.fleet import fleet_spec, run_fleet, worker
from repro.obs.prometheus import timeline_to_prometheus
from repro.obs.timeline import timeline_to_jsonl
from repro.sim.kernel import HOUR

STANZA_COUNTS = ("stanzas_routed", "stanzas_lost", "stanzas_stored_offline")


@pytest.fixture(scope="module", params=[True, False], ids=["metrics-on", "metrics-off"])
def fleet(request):
    shards = []

    def recording(shard, fleet_ctx=None):
        shards.append(shard)
        worker.setup_battery_monitor(shard, fleet_ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(worker.WORKLOADS, "battery-monitor", recording)
        result = run_fleet(
            fleet_spec(20, seed=7, metrics=request.param), 2,
            duration_ms=0.25 * HOUR, processes=False, telemetry=True,
        )
    return request.param, result, shards


@pytest.fixture(scope="module")
def chaos_mixed():
    """The registry after a small chaos ``mixed`` campaign, whose faults
    make flushes (179) and flush decisions (131) differ."""
    artifacts = {}
    run_scenario("mixed", seed=7, minutes=10, devices=6, artifacts=artifacts)
    return artifacts["sim"].kernel.metrics.snapshot()


def _attribute_counts(shard):
    """What the model itself counted on ``shard``, by registry name."""
    devices = [device.node for device in shard.devices.values()]
    nodes = devices + [collector.node for collector in shard.collectors.values()]
    brokers = [context.broker for node in nodes for context in node.contexts.values()]
    return {
        "kernel.events": shard.kernel.events_executed,
        "spans.recorded": shard.kernel.spans.recorded,
        "xmpp.stanzas_routed": shard.server.stanzas_routed,
        "xmpp.stanzas_lost": shard.server.stanzas_lost,
        "xmpp.stanzas_stored_offline": shard.server.stanzas_stored_offline,
        "buffer.enqueued": sum(node.buffer.enqueued for node in devices),
        "buffer.drained": sum(node.buffer.drained for node in devices),
        "buffer.expired": sum(node.buffer.expired for node in devices),
        "tailsync.polls": sum(node.detector.polls for node in devices),
        "tailsync.detections": sum(node.detector.detections for node in devices),
        "transport.stanzas_sent": sum(node.transport.stanzas_sent for node in nodes),
        "transport.send_failures": sum(node.transport.send_failures for node in devices),
        "node.flushes": sum(node.flush_count for node in devices),
        "broker.publishes": sum(broker.publish_count for broker in brokers),
        "broker.deliveries": sum(broker.delivery_count for broker in brokers),
    }


def test_every_pulled_count_is_its_attribute_summed_over_the_shard(fleet):
    metrics_on, result, shards = fleet
    assert [shard.shard_id for shard in shards] == ["fleet/0", "fleet/1"]
    samples = result.timeline.last_samples()
    for shard, sample in zip(shards, samples):
        snapshot = shard.kernel.metrics.snapshot()
        assert sample["metrics"] == snapshot
        expected = _attribute_counts(shard)
        assert {name: snapshot[name] for name in expected} == expected
        assert expected["xmpp.stanzas_routed"] and expected["tailsync.polls"]
        devices = [device.node for device in shard.devices.values()]
        batches = snapshot["node.batch_payloads"]
        if metrics_on:
            # Batches and payloads sent are the histogram's count and sum.
            assert batches["count"] == sum(node.batches_sent for node in devices) > 0
            assert batches["sum"] == sum(node.payloads_sent for node in devices)
        else:
            assert batches["count"] == snapshot["xmpp.bytes_delivered"] == 0


def _hop_pairs(snapshot):
    """``{hop: (its span count, the model count it shadows)}``."""
    decisions = sum(
        value for name, value in snapshot.items() if name.startswith("tailsync.flush.")
    )
    shadowed = {
        "hop.node.flush": snapshot["node.flushes"],
        "hop.buffer.enqueue": snapshot["buffer.enqueued"],
        "hop.publish": snapshot["broker.publishes"],
        "hop.broker.fanout": snapshot["broker.publishes"],
        "hop.tailsync.decision": decisions,
    }
    return {hop: (snapshot[hop]["count"], model) for hop, model in shadowed.items()}


def test_each_hop_count_is_the_model_count_it_shadows(fleet, chaos_mixed):
    metrics_on, _, shards = fleet
    for shard in shards:
        for hop, (spans, model) in _hop_pairs(shard.kernel.metrics.snapshot()).items():
            assert (spans == model > 0) if metrics_on else spans == 0, hop
    pairs = _hop_pairs(chaos_mixed)
    assert all(spans == model > 0 for spans, model in pairs.values()), pairs
    assert pairs["hop.node.flush"] != pairs["hop.tailsync.decision"]


def test_the_exact_duplicates_are_gone(fleet):
    _, result, _ = fleet
    for name in ("broker.copies_avoided", "transport.bytes_sent",
                 "node.batches_sent", "node.payloads_sent"):
        assert name not in result.metrics


def _keys(record, prefix=""):
    for key, value in record.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, prefix + key + "/")


def test_no_stanza_count_appears_under_two_names(fleet):
    _, result, _ = fleet
    records = [json.loads(line) for line in timeline_to_jsonl(result.timeline).splitlines()]
    samples = [record for record in records if record["kind"] == "sample"]
    (totals,) = [record for record in records if record["kind"] == "totals"]
    families = {
        line.split("{")[0].split(" ")[0]
        for line in timeline_to_prometheus(result.timeline).splitlines()
        if not line.startswith("#")
    }
    for count in STANZA_COUNTS:
        for sample in samples:
            assert [key for key in _keys(sample) if count in key] == [f"metrics/xmpp.{count}"]
        assert [key for key in _keys(totals) if count in key] == [f"metrics/xmpp.{count}"]
        assert sorted(name for name in families if count in name) == [
            f"pogo_fleet_xmpp_{count}", f"pogo_xmpp_{count}",
        ]
        assert totals["metrics"][f"xmpp.{count}"] == result.report["server"][count]
