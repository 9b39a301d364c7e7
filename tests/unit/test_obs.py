"""Unit tests for the telemetry plane: sampler, timeline, aggregation,
Prometheus rendering, health verdicts, and the live progress view."""

import io
import json

import pytest

from repro.core.shard import DeviceSpec, Shard, ShardSpec
from repro.fleet.worker import ShardDriver
from repro.obs.live import LiveView
from repro.obs.prometheus import metric_name, timeline_to_prometheus
from repro.obs.telemetry import sample_shard
from repro.obs.timeline import (
    FleetTimeline,
    TimelineError,
    aggregate_totals,
    fleet_health,
    read_timeline,
    render_health,
    timeline_to_jsonl,
    totals_from_jsonl,
)


def _shard(seed=3, devices=2):
    spec = ShardSpec(
        seed=seed,
        collectors=("lab",),
        devices=tuple(DeviceSpec(with_email_app=True) for _ in range(devices)),
    )
    shard = Shard(spec)
    shard.start()
    return shard


class TestSampler:
    def test_sample_carries_every_section(self):
        shard = _shard()
        shard.run(minutes=10)
        sample = sample_shard(shard, 3, shard.kernel.now, 2, 5)
        assert sample["kind"] == "sample"
        assert sample["epoch"] == 3
        assert sample["shard"] == shard.shard_id
        assert sample["kernel"]["events"] == shard.kernel.events_executed
        assert sample["kernel"]["pending"] == shard.kernel.pending_events
        assert sample["handoffs"] == {"in": 2, "out": 5}
        assert sample["energy_uj"] > 0
        assert isinstance(sample["energy_uj"], int)
        assert set(sample["server"]) == {
            "stanzas_routed", "stanzas_lost", "stanzas_stored_offline",
        }
        assert sample["invariants"] is None
        assert "wall" not in sample  # wall only appears when passed in

    def test_wall_section_is_segregated_under_one_key(self):
        shard = _shard()
        wall = {"cpu_s": 1.5, "stall_s": 0.25, "rss_kb": 1024}
        sample = sample_shard(shard, 1, 80.0, wall=wall)
        assert sample["wall"] == wall

    def test_disabled_sampler_is_a_null_lane(self):
        # A dark driver takes no sample.
        spec = ShardSpec(
            seed=3, collectors=("lab",),
            devices=(DeviceSpec(with_email_app=True),),
        )
        for telemetry in (False, True):
            driver = ShardDriver(spec, "battery-monitor", None, telemetry)
            *_, sample = driver.advance(80.0, [])
            assert (sample is not None) is telemetry

    def test_sampling_never_perturbs_the_kernel(self):
        shard = _shard()
        pending = shard.kernel.pending_events
        executed = shard.kernel.events_executed
        sample_shard(shard, 1, shard.kernel.now)
        assert shard.kernel.pending_events == pending
        assert shard.kernel.events_executed == executed

    def test_invariant_monitor_is_reported_when_attached(self):
        shard = _shard()

        class FakeMonitor:
            violations = []

        shard.extras["invariant_monitor"] = FakeMonitor()
        assert sample_shard(shard, 1, 0.0)["invariants"] == {
            "ok": True, "violations": 0,
        }
        FakeMonitor.violations = ["boom"]
        assert sample_shard(shard, 2, 0.0)["invariants"] == {
            "ok": False, "violations": 1,
        }


def _frame_samples(barrier_ms, shards=2, events=10):
    samples = []
    for k in range(shards):
        samples.append({
            "kind": "sample",
            "epoch": 1,
            "barrier_ms": barrier_ms,
            "shard": f"f/{k}",
            "kernel": {"events": events + k, "pending": 3, "tombstones": 0,
                       "compactions": 0},
            "handoffs": {"in": 0, "out": 1},
            "server": {"stanzas_routed": k, "stanzas_lost": 0,
                       "stanzas_stored_offline": 0},
            "energy_uj": 1000 * (k + 1),
            "spans": {"recorded": 5, "dropped": 0},
            "hops": {"route": {"count": 2, "sum_ms": 4.0, "min_ms": 1.0,
                               "max_ms": 3.0}},
            "counters": {"broker.published": 4 + k},
            "invariants": None,
            "wall": {"cpu_s": 0.5 + k, "stall_s": 0.1, "rss_kb": 2048},
        })
    return samples


def _timeline(barriers=2):
    timeline = FleetTimeline("f", devices=4, shards=2)
    for i in range(1, barriers + 1):
        timeline.append(
            epoch=i,
            barrier_ms=80.0 * i,
            samples=_frame_samples(80.0 * i),
            handoffs=3,
            backlog=1,
            window_wall_s=0.01 * i,
        )
    return timeline


class TestTimeline:
    def test_totals_sum_additive_fields(self):
        totals = aggregate_totals(_timeline())
        assert totals["events"] == 21
        assert totals["energy_uj"] == 3000
        assert totals["spans_recorded"] == 10
        assert totals["server"]["stanzas_routed"] == 1
        assert totals["counters"]["broker.published"] == 9
        assert totals["hop_counts"]["route"] == 4
        assert totals["shards"] == 2

    def test_totals_of_empty_timeline_raise(self):
        with pytest.raises(TimelineError, match="no samples"):
            aggregate_totals(FleetTimeline("f", 0, 1))

    def test_totals_reject_mixed_barriers(self):
        mixed = _frame_samples(80.0) + _frame_samples(160.0, shards=1)
        with pytest.raises(TimelineError, match="different barriers"):
            aggregate_totals(mixed)

    def test_deterministic_export_strips_wall_everywhere(self):
        text = timeline_to_jsonl(_timeline(), deterministic=True)
        assert '"wall"' not in text
        records = [json.loads(line) for line in text.splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds.count("totals") == 1
        assert kinds[-1] == "totals"
        assert kinds.count("barrier") == 2
        assert kinds.count("sample") == 4

    def test_wall_mode_keeps_wall_sections(self):
        text = timeline_to_jsonl(_timeline(), deterministic=False)
        assert '"wall"' in text
        assert '"cpu_s"' in text
        assert '"window_s"' in text

    def test_export_round_trips_and_totals_parse(self, tmp_path):
        timeline = _timeline()
        path = tmp_path / "timeline.jsonl"
        path.write_text(timeline_to_jsonl(timeline), encoding="utf-8")
        records = read_timeline(str(path))
        assert len(records) == 7  # 4 samples + 2 barriers + 1 totals
        totals = totals_from_jsonl(str(path))
        expected = aggregate_totals(timeline)
        assert totals == json.loads(json.dumps(expected))

    def test_totals_from_export_without_totals_line_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TimelineError, match="no totals"):
            totals_from_jsonl(str(path))

    def test_empty_timeline_exports_empty_text(self):
        assert timeline_to_jsonl(FleetTimeline("f", 0, 1)) == ""


class TestHealth:
    def test_health_reads_wall_sections(self):
        health = fleet_health(_timeline())
        assert health["barriers"] == 2
        assert health["shards"]["f/0"]["cpu_s"] == 0.5
        assert health["shards"]["f/1"]["cpu_s"] == 1.5
        assert health["stall_s_total"] == pytest.approx(0.2)
        assert health["imbalance"] == 1.5
        assert health["window_s_max"] == 0.02

    def test_slow_shard_is_flagged(self):
        timeline = FleetTimeline("f", 4, 2)
        samples = _frame_samples(80.0)
        samples[1]["wall"]["cpu_s"] = 100.0
        timeline.append(1, 80.0, samples, 0, 0, 0.01)
        health = fleet_health(timeline)
        assert health["slow_shards"] == ["f/1"]
        verdict = render_health(health)
        assert "slow: f/1" in verdict

    def test_balanced_fleet_renders_balanced(self):
        timeline = FleetTimeline("f", 4, 2)
        samples = _frame_samples(80.0)
        for sample in samples:
            sample["wall"]["cpu_s"] = 1.0
        timeline.append(1, 80.0, samples, 0, 0, 0.01)
        assert "balanced" in render_health(fleet_health(timeline))

    def _health_for_cpus(self, cpus):
        timeline = FleetTimeline("f", 4, len(cpus))
        samples = _frame_samples(80.0, shards=len(cpus))
        for sample, cpu in zip(samples, cpus):
            sample["wall"]["cpu_s"] = cpu
        timeline.append(1, 80.0, samples, 0, 0, 0.01)
        return fleet_health(timeline)

    def test_exactly_at_slow_factor_is_not_slow(self):
        # cpu [3.0, 1.0]: mean 2.0, threshold 1.5x mean = 3.0 — the slow
        # flag requires strictly greater, so the boundary shard passes.
        health = self._health_for_cpus([3.0, 1.0])
        assert health["slow_shards"] == []
        # The same frame still trips the imbalance flag (1.5 > 1.25).
        assert "barrier imbalance" in render_health(health)

    def test_just_past_slow_factor_is_flagged(self):
        health = self._health_for_cpus([3.000003, 1.0])
        assert health["slow_shards"] == ["f/0"]

    def test_exactly_at_imbalance_flag_renders_balanced(self):
        # max/mean = 1.25/1.0 — the flag requires strictly greater.
        health = self._health_for_cpus([1.25, 0.75])
        assert health["imbalance"] == 1.25
        assert "balanced" in render_health(health)

    def test_just_past_imbalance_flag_is_reported(self):
        health = self._health_for_cpus([1.3, 0.7])
        assert health["imbalance"] == 1.3
        assert health["slow_shards"] == []  # imbalance alone, not slowness
        assert "barrier imbalance 1.30x" in render_health(health)

    def test_missing_rss_renders_as_zero(self):
        timeline = FleetTimeline("f", 4, 2)
        samples = _frame_samples(80.0)
        for sample in samples:
            sample["wall"]["rss_kb"] = None
        timeline.append(1, 80.0, samples, 0, 0, 0.01)
        health = fleet_health(timeline)
        assert health["shards"]["f/0"]["rss_kb"] == 0
        render_health(health)  # must not raise on formatting


class TestPrometheus:
    def test_metric_names_are_sanitized(self):
        assert metric_name("broker.published") == "pogo_broker_published"
        assert metric_name("9lives") == "pogo__9lives"

    def test_timeline_rendering_is_deterministic(self):
        a = timeline_to_prometheus(_timeline())
        b = timeline_to_prometheus(_timeline())
        assert a == b
        assert 'pogo_events_executed{shard="f/0"} 10' in a
        assert "pogo_fleet_events_executed 21" in a
        assert 'pogo_hop_latency_ms_count{hop="route",shard="f/0"} 2' in a
        assert "# TYPE pogo_events_executed counter" in a
        # one TYPE header per family, not per sample
        assert a.count("# TYPE pogo_events_executed counter") == 1

    def test_empty_timeline_renders_empty(self):
        assert timeline_to_prometheus(FleetTimeline("f", 0, 1)) == ""


class TestLiveView:
    def _frame(self, barrier_ms, epoch=1):
        return {
            "epoch": epoch,
            "barrier_ms": barrier_ms,
            "samples": _frame_samples(barrier_ms),
            "handoffs": 3,
            "backlog": 1,
            "wall": {"window_s": 0.01},
        }

    def test_non_tty_emits_one_line_summaries(self):
        stream = io.StringIO()
        view = LiveView(160.0, devices=4, shards=2, stream=stream, refresh_s=0.0)
        view(self._frame(80.0))
        view(self._frame(160.0, epoch=2))
        view.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "repro top" in lines[0]
        assert "events" in lines[0]
        assert "\x1b[" not in stream.getvalue()

    def test_tty_repaints_with_shard_bars(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        stream = FakeTty()
        view = LiveView(160.0, devices=4, shards=2, stream=stream, refresh_s=0.0)
        view(self._frame(80.0))
        view(self._frame(160.0, epoch=2))
        view.close()
        text = stream.getvalue()
        assert "f/0" in text and "f/1" in text
        assert "\x1b[" in text  # cursor-up repaint

    def test_refresh_throttle_skips_but_final_frame_paints(self):
        stream = io.StringIO()
        view = LiveView(160.0, devices=4, shards=2, stream=stream,
                        refresh_s=3600.0)
        view(self._frame(80.0))        # first paint (last_paint=0)
        view(self._frame(120.0))       # throttled
        view(self._frame(160.0, epoch=3))  # final: always paints
        assert view.frames_seen == 3
        assert len(stream.getvalue().splitlines()) == 2
