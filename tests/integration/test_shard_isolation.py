"""Cross-instance isolation and snapshot determinism, end to end.

Two regression families the Shard refactor must hold forever:

* **Interleaved isolation** — two seeded simulations stepped in lockstep
  inside one process each produce byte-identical artifacts to the same
  simulation run alone.  Any module-level mutable state (id counters,
  interned caches, swapped classes) breaks this immediately.
* **Snapshot determinism** — a chaos campaign pickled and restored at
  the midpoint of its fault window finishes with a byte-identical chaos
  report and span trace to an uninterrupted run.
"""

from repro.analysis.export import spans_to_jsonl
from repro.apps import battery_monitor, noise_map
from repro.chaos.scenarios import report_json, run_scenario
from repro.core.middleware import PogoSimulation
from repro.core.shard import DeviceSpec, Shard, ShardSpec


def _build(seed, devices=3):
    sim = PogoSimulation(seed=seed)
    collector = sim.add_collector("iso")
    fleet = [sim.add_device(with_email_app=True) for _ in range(devices)]
    sim.start()
    sim.assign(collector, fleet)
    collector.node.deploy(battery_monitor.build_experiment(), [d.jid for d in fleet])
    return sim


def _artifacts(sim):
    return sim.fleet_report_json(), spans_to_jsonl(sim.kernel.spans) or ""


class TestInterleavedIsolation:
    def test_two_interleaved_sims_match_solo_runs(self):
        solo7 = _build(7)
        solo7.run(minutes=45)
        expected7 = _artifacts(solo7)
        solo8 = _build(8)
        solo8.run(minutes=45)
        expected8 = _artifacts(solo8)

        # Same two fleets, built and stepped strictly interleaved in the
        # same process.
        a = _build(7)
        b = _build(8)
        for _ in range(45):
            a.run(minutes=1)
            b.run(minutes=1)
        assert _artifacts(a) == expected7
        assert _artifacts(b) == expected8

    def test_interleaved_construction_does_not_leak(self):
        # Construction itself interleaved too: enrollment counters,
        # session ids and stream derivations must all be per-shard.
        a = PogoSimulation(seed=7)
        b = PogoSimulation(seed=7)
        ca, cb = a.add_collector("iso"), b.add_collector("iso")
        fa = [a.add_device(with_email_app=True) for _ in range(2)]
        fb = [b.add_device(with_email_app=True) for _ in range(2)]
        for sim, c, f in ((a, ca, fa), (b, cb, fb)):
            sim.start()
            sim.assign(c, f)
            c.node.deploy(battery_monitor.build_experiment(), [d.jid for d in f])
        a.run(minutes=30)
        b.run(minutes=30)
        assert _artifacts(a) == _artifacts(b)


class TestChaosSnapshotDeterminism:
    def test_midpoint_snapshot_restores_byte_identical_campaign(self):
        plain_art, snap_art = {}, {}
        plain = run_scenario("flaky-3g", seed=7, minutes=6, artifacts=plain_art)
        snapped = run_scenario(
            "flaky-3g", seed=7, minutes=6, snapshot_midpoint=True,
            artifacts=snap_art,
        )
        assert report_json(snapped) == report_json(plain)
        assert (
            spans_to_jsonl(snap_art["sim"].kernel.spans)
            == spans_to_jsonl(plain_art["sim"].kernel.spans)
        )

    def test_midpoint_snapshot_with_churn_streams(self):
        # Churn draws from per-device named streams and schedules
        # disruption plans — the random-state-heavy path.
        plain = run_scenario("churn", seed=11, minutes=6)
        snapped = run_scenario("churn", seed=11, minutes=6, snapshot_midpoint=True)
        assert report_json(snapped) == report_json(plain)


class TestLazyStreamSnapshotDeterminism:
    """The sensors' random streams are seeded at their first draw; a
    snapshot taken on either side of that moment resumes identically."""

    MINUTES = 12

    @staticmethod
    def _noise_map_shard():
        shard = Shard(ShardSpec(
            seed=21, collectors=("lab",),
            devices=tuple(DeviceSpec(with_email_app=True) for _ in range(2)),
        ))
        collector = shard.collectors["lab@pogo"]
        jids = sorted(shard.devices)
        shard.start()
        shard.assign(collector, [shard.devices[jid] for jid in jids])
        collector.node.deploy(noise_map.build_experiment(), jids)
        return shard

    @staticmethod
    def _outcome(shard):
        return (
            shard.fleet_report_json(),
            spans_to_jsonl(shard.kernel.spans),
            {
                jid: shard.streams.stream(f"microphone/{jid}").getstate()
                for jid in sorted(shard.devices)
            },
        )

    def test_snapshot_before_and_after_the_first_draw(self):
        plain = self._noise_map_shard()
        plain.run(minutes=self.MINUTES)
        expected = self._outcome(plain)

        before = self._noise_map_shard()
        assert all(f"microphone/{jid}" not in before.streams for jid in before.devices)
        resumed = Shard.restore(before.snapshot())
        resumed.run(minutes=self.MINUTES)
        assert self._outcome(resumed) == expected

        after = self._noise_map_shard()
        after.run(minutes=5)
        assert all(f"microphone/{jid}" in after.streams for jid in after.devices)
        resumed = Shard.restore(after.snapshot())
        resumed.run(minutes=self.MINUTES - 5)
        assert self._outcome(resumed) == expected
