"""Unit tests for the Shard abstraction: specs, pickling, the
cross-shard boundary, and the epoch-barrier hooks."""

import pickle

import pytest

from repro.analysis.export import spans_to_jsonl
from repro.apps import battery_monitor
from repro.core.deployment import Experiment
from repro.core.middleware import PogoSimulation
from repro.core.shard import DeviceSpec, Handoff, Shard, ShardSpec
from repro.net.xmpp import RoutingError
from repro.sim.kernel import MINUTE


def _spec(devices=2, **overrides):
    fields = dict(
        seed=11,
        collectors=("lab",),
        devices=tuple(DeviceSpec(with_email_app=True) for _ in range(devices)),
    )
    fields.update(overrides)
    return ShardSpec(**fields)


def _deploy(shard):
    collector = shard.collectors[sorted(shard.collectors)[0]]
    jids = sorted(shard.devices)
    shard.start()
    shard.assign(collector, [shard.devices[j] for j in jids])
    collector.node.deploy(battery_monitor.build_experiment(), jids)
    return collector


class TestShardSpec:
    def test_spec_is_picklable_and_hashable(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_spec_builds_roster(self):
        shard = Shard(_spec(devices=3))
        assert len(shard.devices) == 3
        assert len(shard.collectors) == 1
        assert sorted(shard.collectors)[0] == "lab@pogo"

    def test_spec_overrides_keyword_defaults(self):
        shard = Shard(_spec(), seed=999)
        assert shard.seed == 11  # the spec wins

    def test_facade_signature_unchanged(self):
        sim = PogoSimulation(seed=3, record_trace=True, spans=False, metrics=False)
        assert isinstance(sim, Shard)
        assert sim.trace is not None
        assert sim.seed == 3


class TestSnapshotRestore:
    def test_fresh_shard_round_trips(self):
        shard = Shard(_spec())
        clone = Shard.restore(shard.snapshot())
        assert sorted(clone.devices) == sorted(shard.devices)

    def test_mid_run_round_trip_is_byte_deterministic(self):
        shard = Shard(_spec())
        _deploy(shard)
        shard.run(minutes=7)
        clone = Shard.restore(shard.snapshot())
        # Spans are on: the flight recorder (pickled as rows) comes back
        # with the same bytes and goes on recording where it left off.
        recorded = shard.kernel.spans.recorded
        assert recorded > 0
        assert spans_to_jsonl(clone.kernel.spans) == spans_to_jsonl(shard.kernel.spans)
        shard.run(minutes=13)
        clone.run(minutes=13)
        assert clone.fleet_report_json() == shard.fleet_report_json()
        assert clone.kernel.spans.recorded == shard.kernel.spans.recorded > recorded
        assert spans_to_jsonl(clone.kernel.spans) == spans_to_jsonl(shard.kernel.spans)

    def test_restore_re_executes_a_looping_script_under_a_full_budget(self):
        """The restore re-exec is metered like any call: a top-level loop
        must not die on a stubbed or empty meter and leave ``handle``
        undefined in the restored namespace."""
        looping = (
            "squares = [n * n for n in range(50)]\n"
            "for n in range(50):\n"
            "    squares.append(-n)\n"
            "seen = []\n"
            "def handle(msg):\n"
            "    for key in sorted(msg):\n"
            "        seen.append(key)\n"
            "    publish('digest', {'n': len(seen)})\n"
            "subscribe('battery', handle, {'interval': 60000})\n"
        )
        experiment = Experiment(
            experiment_id="looping",
            device_scripts={"loop": looping},
            collector_scripts={"collect": "subscribe('digest', lambda m: log(json(m)))\n"},
        )
        shard = Shard(_spec())
        collector = shard.collectors["lab@pogo"]
        shard.start()
        shard.assign(collector, list(shard.devices.values()))
        collector.node.deploy(experiment, sorted(shard.devices))
        shard.run(minutes=7)
        for device in shard.devices.values():
            # As if the last call before the snapshot had used every step.
            device.node.contexts["looping"].scripts["loop"].watchdog.left = 0
        clone = Shard.restore(shard.snapshot())
        for side in (shard, clone):
            for device in side.devices.values():
                host = device.node.contexts["looping"].scripts["loop"]
                assert callable(host.namespace["handle"]) and not host.errors
                assert len(host.namespace["squares"]) == 100 and host.namespace["seen"]
        shard.run(minutes=13)
        clone.run(minutes=13)
        assert clone.fleet_report_json() == shard.fleet_report_json()
        assert spans_to_jsonl(clone.kernel.spans) == spans_to_jsonl(shard.kernel.spans)
        assert shard.kernel.spans.spans(hop="script.call")

    def test_restore_rejects_non_shard_blobs(self):
        with pytest.raises(TypeError):
            Shard.restore(pickle.dumps({"not": "a shard"}))

    def test_extras_survive_snapshot(self):
        shard = Shard(_spec())
        shard.extras["campaign"] = {"phase": 1}
        clone = Shard.restore(shard.snapshot())
        assert clone.extras["campaign"] == {"phase": 1}


class TestCrossShardBoundary:
    def test_unknown_jid_raises_when_boundary_closed(self):
        shard = Shard(_spec())
        shard.start()
        shard.run(minutes=1)
        with pytest.raises(RoutingError):
            shard.server.submit("lab@pogo", "nobody@elsewhere", {"type": "ping"})

    def test_egress_queues_remote_stanzas(self):
        shard = Shard(_spec())
        shard.open_boundary()
        shard.start()
        shard.run(minutes=1)
        shard.server.submit("lab@pogo", "device-1@other", {"type": "ping"})
        pending = shard.pending_cross_shard()
        assert len(pending) == 1
        handoff = pending[0]
        assert (handoff.from_jid, handoff.to_jid) == ("lab@pogo", "device-1@other")
        assert handoff.submit_ms == shard.kernel.now
        assert handoff.seq == 1
        assert handoff.stanza["type"] == "ping"
        assert handoff.stanza["_from"] == "lab@pogo"
        # The queue drains on read.
        assert shard.pending_cross_shard() == []
        assert shard.server.stanzas_egressed == 1

    def test_ingress_delivers_to_local_account(self):
        # b hosts one more device than a, so b's last JID is unknown to
        # a — the realistic partitioned-roster shape for PR 7.
        a = Shard(_spec(devices=2, shard_id="a"))
        b = Shard(_spec(devices=3, shard_id="b"))
        a.open_boundary()
        b.open_boundary()
        a.start()
        b.start()
        a.run(minutes=1)
        b.run(minutes=1)
        # a's collector addresses a JID only b hosts; the stanza crosses
        # via the egress queue and lands through b's normal routing.
        target = sorted(b.devices)[-1]
        a.server.submit("lab@pogo", target, {"kind": "ack", "ack": 0})
        handoffs = a.pending_cross_shard()
        assert b.ingress(handoffs) == 1
        before = b.server.stanzas_routed
        b.run(minutes=1)
        assert b.server.stanzas_routed == before + 1

    def test_ingress_rejects_jid_not_hosted_here(self):
        b = Shard(_spec())
        b.start()
        with pytest.raises(RoutingError):
            b.ingress([Handoff(b.kernel.now, 1, "x@a", "nobody@b", {"type": "ping"})])

    def test_run_until_epoch_returns_handoffs(self):
        shard = Shard(_spec())
        shard.open_boundary()
        shard.start()
        shard.run(minutes=1)
        shard.server.submit("lab@pogo", "peer@other", {"type": "ping"})
        handoffs = shard.run_until_epoch(shard.kernel.now + 5 * MINUTE)
        assert [h.to_jid for h in handoffs] == ["peer@other"]
        assert shard.kernel.now >= 6 * MINUTE


class TestTwoShardsOneProcess:
    def test_interleaved_shards_match_solo_runs(self):
        """Two seeded shards stepped in lockstep in one process must each
        be byte-identical to the same shard run alone — the no-global-
        state guarantee at the unit level."""
        solo = Shard(_spec())
        _deploy(solo)
        solo.run(minutes=30)
        expected = solo.fleet_report_json()

        left = Shard(_spec())
        right = Shard(_spec(seed=12))
        _deploy(left)
        _deploy(right)
        for _ in range(30):
            left.run(minutes=1)
            right.run(minutes=1)
        assert left.fleet_report_json() == expected
        assert right.fleet_report_json() != expected  # different seed really differs
