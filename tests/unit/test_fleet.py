"""Unit tests for the fleet subsystem: partitioner, merger, epoch
validation, ingress hardening, and worker-crash handling."""

import json

import pytest

from repro.analysis.export import spans_to_jsonl
from repro.core.shard import DeviceSpec, Handoff, Shard, ShardSpec
from repro.fleet import (
    FleetError,
    fleet_spec,
    merge_fleet_reports,
    merge_metrics,
    merge_trace_jsonl,
    plan_fleet,
    run_fleet,
)
from repro.fleet import coordinator
from repro.fleet.coordinator import FleetResult
from repro.fleet.merge import (
    MergeError, merge_span_rows, merge_trace_rows, report_to_json,
)
from repro.fleet.partition import PartitionError, device_jid
from repro.fleet.wire import seal, unseal
from repro.net.xmpp import RoutingError
from repro.sim.kernel import HOUR
from repro.sim.metrics import MetricsRegistry
from repro.sim.spans import Span, SpanRecorder, ordered_span_lines, span_rows


class TestPartitioner:
    def test_round_robin_assignment_is_deterministic(self):
        root = fleet_spec(10, seed=3)
        plan = plan_fleet(root, 4)
        assert plan.n_shards == 4
        # device-1 -> shard 0, device-2 -> shard 1, ... (index mod K)
        for index, jid in enumerate(plan.device_jids):
            assert plan.owner_of(jid) == index % 4
        again = plan_fleet(fleet_spec(10, seed=3), 4)
        assert again.owners == plan.owners

    def test_every_device_lands_on_exactly_one_shard(self):
        plan = plan_fleet(fleet_spec(7, seed=0), 3)
        seen = []
        for shard_spec in plan.shards:
            seen.extend(d.jid for d in shard_spec.devices)
        assert sorted(seen) == sorted(plan.device_jids)
        assert len(seen) == len(set(seen))

    def test_collectors_live_on_shard_zero(self):
        plan = plan_fleet(fleet_spec(4, seed=0), 2)
        assert plan.shards[0].collectors
        assert not plan.shards[1].collectors

    def test_shard_jids_are_pinned_globally(self):
        # Partitioned specs must pin the global JID numbering: shard 1 of
        # two holds device-2, device-4, ... not device-1, device-2, ...
        plan = plan_fleet(fleet_spec(4, seed=0), 2)
        assert [d.jid for d in plan.shards[1].devices] == [
            device_jid(1), device_jid(3),
        ]

    def test_rejects_bad_shard_counts(self):
        root = fleet_spec(4, seed=0)
        with pytest.raises(PartitionError):
            plan_fleet(root, 0)
        with pytest.raises(PartitionError):
            plan_fleet(root, -2)

    def test_owner_of_unknown_jid_raises(self):
        plan = plan_fleet(fleet_spec(2, seed=0), 2)
        with pytest.raises(PartitionError, match="nobody@pogo"):
            plan.owner_of("nobody@pogo")


class TestIngressHardening:
    def _shard(self, devices=2):
        spec = ShardSpec(
            seed=5,
            collectors=("lab",),
            devices=tuple(
                DeviceSpec(with_email_app=True) for _ in range(devices)
            ),
        )
        shard = Shard(spec)
        shard.start()
        return shard

    def test_unknown_recipient_names_the_jid_and_shard(self):
        shard = self._shard()
        with pytest.raises(RoutingError) as excinfo:
            shard.ingress(
                [Handoff(0.0, 1, "x@other", "ghost@pogo", {"type": "ping"})]
            )
        message = str(excinfo.value)
        assert "ghost@pogo" in message
        assert shard.shard_id in message

    def test_misroute_is_rejected_before_any_replay(self):
        # One good and one bad handoff: validation is all-or-nothing, so
        # the good one must NOT have been scheduled.
        shard = self._shard()
        target = sorted(shard.devices)[0]
        before = shard.kernel.pending_events
        with pytest.raises(RoutingError, match="wrong shard"):
            shard.ingress(
                [
                    Handoff(0.0, 1, "x@other", target, {"kind": "ack", "ack": 0}),
                    Handoff(0.0, 2, "x@other", "ghost@pogo", {"type": "ping"}),
                ]
            )
        assert shard.kernel.pending_events == before

    def test_late_handoff_is_a_barrier_violation(self):
        shard = self._shard()
        shard.run(minutes=5)
        target = sorted(shard.devices)[0]
        # Submitted long enough ago that submit+latency is in the past.
        stale = shard.kernel.now - shard.server.latency_ms - 1.0
        with pytest.raises(RoutingError, match="late cross-shard handoff"):
            shard.ingress(
                [Handoff(stale, 1, "x@other", target, {"kind": "ack", "ack": 0})]
            )


class TestEpochValidation:
    def test_epoch_above_min_latency_is_rejected(self):
        with pytest.raises(FleetError, match="epoch"):
            run_fleet(
                fleet_spec(2, seed=0), 2, duration_ms=0.01 * HOUR,
                epoch_ms=80.5, processes=False,
            )

    def test_epoch_zero_is_rejected(self):
        with pytest.raises(FleetError, match="epoch"):
            run_fleet(
                fleet_spec(2, seed=0), 2, duration_ms=0.01 * HOUR,
                epoch_ms=0.0, processes=False,
            )

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(FleetError, match="workload"):
            run_fleet(
                fleet_spec(2, seed=0), 2, duration_ms=0.01 * HOUR,
                workload="nope", processes=False,
            )

    def test_nonpositive_duration_is_rejected(self):
        with pytest.raises(FleetError, match="duration"):
            run_fleet(
                fleet_spec(2, seed=0), 2, duration_ms=0.0 * HOUR,
                processes=False,
            )


class TestMerger:
    def _report(self, shard_id, jids, events=10, routed=3):
        return {
            "collectors": {},
            "devices": {jid: {"energy_j": 1.0} for jid in jids},
            "events_executed": events,
            "now_ms": 1000.0,
            "seed": 7,
            "server": {
                "stanzas_lost": 0,
                "stanzas_routed": routed,
                "stanzas_stored_offline": 0,
            },
            "shard": shard_id,
        }

    def test_counters_sum_and_tables_union(self):
        merged = merge_fleet_reports(
            [self._report("f/0", ["a@p"]), self._report("f/1", ["b@p"])],
            fleet_id="f",
        )
        assert merged["events_executed"] == 20
        assert merged["server"]["stanzas_routed"] == 6
        assert sorted(merged["devices"]) == ["a@p", "b@p"]
        assert merged["shard"] == "f"

    def test_duplicate_device_is_an_error(self):
        with pytest.raises(MergeError, match="more than one shard"):
            merge_fleet_reports(
                [self._report("f/0", ["a@p"]), self._report("f/1", ["a@p"])],
                fleet_id="f",
            )

    def test_clock_disagreement_is_an_error(self):
        late = self._report("f/1", ["b@p"])
        late["now_ms"] = 999.0
        with pytest.raises(MergeError, match="clock"):
            merge_fleet_reports(
                [self._report("f/0", ["a@p"]), late], fleet_id="f"
            )

    def test_empty_merge_is_an_error(self):
        with pytest.raises(MergeError):
            merge_fleet_reports([], fleet_id="f")

    def test_metrics_histograms_recompute_mean(self):
        merged = merge_metrics(
            [
                {"n": 2, "h": {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}},
                {"n": 3, "h": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0}},
            ]
        )
        assert merged["n"] == 5
        assert merged["h"] == {
            "count": 3, "sum": 9.0, "min": 1.0, "max": 5.0, "mean": 3.0,
        }

    def test_empty_histograms_merge_cleanly(self):
        merged = merge_metrics(
            [{"h": {"count": 0, "sum": 0.0, "min": None, "max": None}}]
        )
        assert merged["h"]["mean"] == 0.0
        assert merged["h"]["min"] is None

    @staticmethod
    def _trace(*spans):
        """Per-shard trace text exactly as the exporter writes it."""
        return spans_to_jsonl(
            Span(span_id, 0, 0, "xmpp.route", start_ms, end_ms, {"to": "a@p"})
            for span_id, start_ms, end_ms in spans
        )

    def test_trace_lines_gain_shard_and_sort_totally(self):
        merged = merge_trace_jsonl(
            [("f/0", self._trace((1, 5.0, 6.0))), ("f/1", self._trace((1, 1.0, 2.0)))]
        )
        records = [json.loads(line) for line in merged.splitlines()]
        assert [r["shard"] for r in records] == ["f/1", "f/0"]
        assert [r["start_ms"] for r in records] == [1.0, 5.0]
        # The splice keeps the keys sorted, so the merged line is what a
        # key-sorted dump of the record would be.
        assert merged.splitlines()[0] == json.dumps(
            records[0], sort_keys=True, separators=(",", ":")
        )

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda line: line[:-12], id="truncated-tail"),
            pytest.param(
                lambda line: line.replace('"parent":0,"span":2', '"span":2,"parent":0'),
                id="keys-out-of-order",
            ),
            pytest.param(lambda line: line + " # x", id="trailing-garbage"),
        ],
    )
    def test_trace_merge_names_the_shard_and_line_of_a_malformed_line(self, damage):
        good = self._trace((1, 1.0, 2.0), (2, 3.0, 4.0), (3, 5.0, 6.0)).splitlines()
        bad = damage(good[1])
        assert bad != good[1]
        text = "\n".join([good[0], bad, good[2], ""])
        with pytest.raises(MergeError, match=r"shard 'f/1', line 2\b"):
            merge_trace_jsonl([("f/0", self._trace((1, 0.0, 0.0))), ("f/1", text)])

    def test_report_json_round_trips(self):
        report = self._report("f", ["a@p"])
        assert json.loads(report_to_json(report)) == report

    def test_zero_device_shard_report_merges_cleanly(self):
        # A partitioner may legitimately hand a worker zero devices (2
        # devices over 4 shards); its empty-table report must merge.
        merged = merge_fleet_reports(
            [self._report("f/0", ["a@p"]), self._report("f/1", [])],
            fleet_id="f",
        )
        assert sorted(merged["devices"]) == ["a@p"]
        assert merged["events_executed"] == 20

    def test_trace_merge_tolerates_a_shard_with_no_spans(self):
        merged = merge_trace_jsonl(
            [("f/0", self._trace((1, 5.0, 6.0))), ("f/1", self._trace())]
        )
        records = [json.loads(l) for l in merged.splitlines()]
        assert len(records) == 1
        assert records[0]["shard"] == "f/0"

    def test_trace_merge_of_all_empty_shards_is_empty(self):
        assert self._trace() == ""
        assert merge_trace_jsonl([("f/0", self._trace()), ("f/1", self._trace())]) == ""
        assert merge_trace_rows([([], []), ([], [])]) == ""

    def test_nan_timed_spans_fall_through_to_shard_then_span(self):
        # round() hands back a fresh NaN per span and no two NaN objects
        # compare equal, so a key holding one as is never ties: the rows
        # would stay in input order.  Both shards record their spans in
        # descending span-id order and arrive in descending shard order.
        nan = float("nan")
        shards = [
            (shard_id, [Span(span_id, 0, 0, "h", nan, nan, None) for span_id in (2, 1)])
            for shard_id in ("f/1", "f/0")
        ]
        expected = [("f/0", 1), ("f/0", 2), ("f/1", 1), ("f/1", 2)]
        for merged in (
            merge_span_rows(
                (shard_id, span_rows(spans)) for shard_id, spans in shards
            ),
            merge_trace_jsonl(
                [(shard_id, spans_to_jsonl(spans)) for shard_id, spans in shards]
            ),
        ):
            records = [json.loads(line) for line in merged.splitlines()]
            assert [(r["shard"], r["span"]) for r in records] == expected
            assert merged.count('"start_ms":NaN') == 4  # printed as it was

    def test_nan_times_sort_after_every_number(self):
        # A NaN has a place in the order (as +Infinity): where it lands
        # does not depend on which rows surround it in the input.
        times = [5.0, float("nan"), 1.0, float("inf"), 3.0]
        forward = [Span(i, 0, 0, "h", t, 0.0, None) for i, t in enumerate(times, 1)]
        for spans in (forward, forward[::-1]):
            merged = merge_trace_jsonl([("f/0", spans_to_jsonl(spans))])
            assert [json.loads(l)["span"] for l in merged.splitlines()] == [3, 5, 1, 2, 4]

    def test_rows_core_takes_runs_in_any_order(self):
        # Ordered runs are what the reader hands it, but the order is the
        # core's: a run in ring order (an exported file) comes out the same.
        spans = [Span(i, 0, 0, "h", float(10 - i), 0.0, None) for i in range(1, 6)]
        ordered = ordered_span_lines(span_rows(spans), "f/0")
        keys, lines = ordered
        assert keys == sorted(keys)
        shuffled = (keys[::-1], lines[::-1])
        assert merge_trace_rows([shuffled]) == merge_trace_rows([ordered])
        assert merge_trace_rows([ordered]) == "".join(line + "\n" for line in lines)


class TestCoordinatorSmoke:
    def test_more_shards_than_devices_matches_solo(self):
        # Round-robin leaves shards 2 and 3 with zero devices; the fleet
        # must still run and merge byte-identically to the solo report.
        sharded = run_fleet(
            fleet_spec(2, seed=6), 4, duration_ms=0.25 * HOUR, processes=False,
        )
        solo = run_fleet(
            fleet_spec(2, seed=6), 1, duration_ms=0.25 * HOUR, processes=False,
        )
        assert sharded.report_json == solo.report_json

    def test_single_shard_in_process_matches_plain_run(self):
        # Coordinator-solo against a shard nobody coordinates: the oracle
        # every sharded-equals-solo comparison ultimately rests on.
        from repro.fleet.worker import setup_battery_monitor

        result = run_fleet(
            fleet_spec(3, seed=4), 1, duration_ms=0.25 * HOUR, processes=False,
        )
        shard = Shard(fleet_spec(3, seed=4))
        setup_battery_monitor(shard)
        shard.run(hours=0.25)
        assert result.report_json == shard.fleet_report_json()

    def test_two_shards_in_process_match_single_shard(self):
        sharded = run_fleet(
            fleet_spec(4, seed=6), 2, duration_ms=0.25 * HOUR, processes=False,
        )
        solo = run_fleet(
            fleet_spec(4, seed=6), 1, duration_ms=0.25 * HOUR, processes=False,
        )
        assert sharded.report_json == solo.report_json
        assert sharded.trace_jsonl != ""  # merged trace rides along

    def test_merged_trace_holds_what_the_rings_held(self, monkeypatch):
        # One line per span still in a shard's ring: every shard evicts
        # on its own, and the merged counters are how a reader tells.
        from functools import partial

        import repro.sim.kernel as kernel

        monkeypatch.setattr(
            kernel, "SpanRecorder", partial(SpanRecorder, max_spans=40)
        )
        for shards in (1, 2):
            result = run_fleet(
                fleet_spec(4, seed=6), shards, duration_ms=0.25 * HOUR,
                processes=False,
            )
            metrics = result.metrics
            assert metrics["spans.dropped"] > 0
            assert result.trace_jsonl.count("\n") == 40 * shards == (
                metrics["spans.recorded"] - metrics["spans.dropped"]
            )


def _result(trace):
    """A ``FleetResult`` around ``trace``: the text, or the parts a run
    leaves in its place."""
    return FleetResult(
        report={}, report_json="", metrics={}, trace_jsonl=trace,
        shard_reports=(), devices=0, shards=1, epoch_ms=80.0, barriers=0,
        handoffs=0, wall_s=0.0,
    )


class TestTraceRowPath:
    """The fleet's own trace path: rows until somebody reads the trace,
    then one pass from row to merged line."""

    def test_fleet_never_reopens_a_line_it_wrote(self, monkeypatch):
        import repro.fleet.merge as merge
        import repro.sim.spans as spans

        def forbidden(line):
            raise AssertionError(f"the fleet path took a line apart: {line[:80]}")

        monkeypatch.setattr(spans, "split_span_line", forbidden)
        monkeypatch.setattr(merge, "split_span_line", forbidden)
        result = run_fleet(
            fleet_spec(4, seed=6), 2, duration_ms=0.25 * HOUR, processes=False,
        )
        assert result.trace_jsonl.count("\n") == result.metrics["spans.recorded"]
        with pytest.raises(AssertionError, match="took a line apart"):
            merge_trace_jsonl([("f/0", result.trace_jsonl)])  # the patch bites

    def test_a_trace_nobody_reads_is_never_written(self, monkeypatch):
        import repro.sim.spans as spans
        from repro.scenarios import ScenarioSpec, run_scenario_spec

        def forbidden(rows, shard=None):
            raise AssertionError("a span line was written")

        monkeypatch.setattr(spans, "span_lines", forbidden)
        results = [
            run_fleet(
                fleet_spec(4, seed=6), shards, duration_ms=0.25 * HOUR,
                processes=False,
            )
            for shards in (1, 2)
        ]
        smoke = ScenarioSpec(name="smoke", seed=5, devices=4, hours=0.25,
                             city_places=16)
        results.append(run_scenario_spec(smoke).fleet)
        for result in results:
            assert "trace_jsonl" not in repr(result)
            with pytest.raises(AssertionError, match="a span line was written"):
                result.trace_jsonl  # the patch bites

    def test_a_spawned_run_keeps_its_trace_frames_closed(self, monkeypatch):
        import repro.fleet.coordinator as coordinator

        opened = []

        def counting(frame):
            opened.append(len(frame))
            return unseal(frame)

        monkeypatch.setattr(coordinator, "unseal", counting)
        result = run_fleet(
            fleet_spec(4, seed=6), 3, duration_ms=0.25 * HOUR,
            barrier_timeout_s=120.0,
        )
        assert len(opened) == 2  # the artifacts of two workers, nothing else
        parts = vars(result)["trace_jsonl"]
        assert [shard_id for shard_id, _ in parts] == ["fleet/0", "fleet/1", "fleet/2"]
        # The hosted shard 0 hands over rows; each worker process, a frame.
        assert [type(part) for _, part in parts] == [list, bytes, bytes]
        assert "trace_jsonl" not in repr(result) and len(opened) == 2
        in_process = run_fleet(
            fleet_spec(4, seed=6), 3, duration_ms=0.25 * HOUR, processes=False,
        )
        assert result.trace_jsonl == in_process.trace_jsonl != ""
        assert opened[2:] == [len(frame) for _, frame in parts[1:]]  # by the read

    def test_the_text_is_written_once_and_replaces_the_parts(self):
        result = run_fleet(
            fleet_spec(4, seed=6), 2, duration_ms=0.25 * HOUR, processes=False,
        )
        assert all(type(rows) is list for _, rows in vars(result)["trace_jsonl"])
        text = result.trace_jsonl
        assert result.trace_jsonl is text is vars(result)["trace_jsonl"]
        assert _result("x\n").trace_jsonl == "x\n"  # text in, the same text out

    def test_del_drops_an_unread_trace(self, monkeypatch):
        import repro.sim.spans as spans

        result = run_fleet(
            fleet_spec(4, seed=5), 2, duration_ms=0.25 * HOUR, processes=False,
        )
        assert vars(result)["trace_jsonl"]  # the parts, held until a read

        def forbidden(rows, shard=None):
            raise AssertionError("a span line was written")

        monkeypatch.setattr(spans, "span_lines", forbidden)
        del result.trace_jsonl  # nothing written on the way out
        assert "trace_jsonl" not in vars(result)
        with pytest.raises(AttributeError, match="trace_jsonl"):
            result.trace_jsonl
        with pytest.raises(AttributeError, match="trace_jsonl"):
            del result.trace_jsonl
        result.trace_jsonl = "x\n"  # and the attribute can be set again
        assert result.trace_jsonl == "x\n"

    @pytest.mark.parametrize("sealed", [False, True], ids=["in-process", "sealed"])
    @pytest.mark.parametrize(
        "attrs, why",
        [
            pytest.param({"seen": {1}}, "set is not JSON serializable", id="set-value"),
            pytest.param({1: "a", "b": 2}, "'<' not supported", id="mixed-keys"),
        ],
    )
    def test_an_unwritable_span_is_named_where_the_trace_is_read(
        self, attrs, why, sealed
    ):
        # The worker hands over values; the first thing to meet the line
        # writer is the read, which therefore has to say whose span it was.
        rows = span_rows(
            [
                Span(4710, 7, 0, "broker.publish", 1.0, 2.0, {"ok": True}),
                Span(4711, 7, 4710, "buffer.dwell", 2.0, 3.0, attrs),
            ]
        )
        good = ("f/0", span_rows([Span(1, 1, 0, "xmpp.route", 0.0, 1.0, None)]))
        result = _result([good, ("f/1", seal(rows) if sealed else rows)])
        for _ in range(2):  # a failed read leaves the parts as they were
            with pytest.raises(
                MergeError,
                match=r"trace of shard 'f/1', span 4711 \(buffer\.dwell\): .*" + why,
            ) as excinfo:
                result.trace_jsonl
            assert type(excinfo.value.__cause__) is TypeError

    def test_merged_text_costs_under_three_times_its_size(self):
        # From the rows a worker hands over to the merged text in hand.
        # The lines and the text they are joined into make two copies;
        # the third is headroom for per-line object overhead and the sort
        # keys, which are dropped before the join.  Measured 2.3x on this
        # input; the text round trip PR 17 replaced (export, split,
        # re-join) took 4.4x.
        import tracemalloc

        recorder = SpanRecorder(MetricsRegistry())
        hops = [recorder.hop(name) for name in (
            "script.call", "broker.publish", "buffer.dwell", "xmpp.route",
        )]
        for i in range(20_000):
            start = (i * 37 % 9973) * 12.625  # not in trace order
            hops[i % 4].record(
                i // 3 + 1, i, start, start + (i % 7) * 80.0,
                ("device", "script", "bytes"), f"device-{i % 10 + 1}@pogo.example",
                "battery/monitor.py", 180 + i % 50,
            )
        tracemalloc.start()
        try:
            rows = span_rows(recorder)
            handed_over, _ = tracemalloc.get_traced_memory()
            result = _result([("fleet/0", rows)])
            tracemalloc.reset_peak()
            text = result.trace_jsonl
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 20_000
        assert text.isascii()  # so len() is its size in bytes
        assert peak - handed_over <= 3.0 * len(text), (peak, handed_over, len(text))
        # What a run pays when nobody reads: in-process the row tuples
        # (0.51x the text here; the attrs they point at were the ring's
        # already and now outlive it), spawned the sealed frame (376 KB
        # for these 20,000 spans; bound: 1 MB per 36,000).
        assert handed_over < len(text), (handed_over, len(text))
        assert len(seal(rows)) * 36_000 / 20_000 < 1_000_000


#: Where a two-shard crash test puts its crash, as the device whose shard
#: raises: device i lives on shard i % 2, and a process fleet runs shard 0
#: in the coordinator and shard 1 in a worker process.
HOSTED, IN_A_WORKER = 0, 1


def _mid_epoch_crash(processes, crash_device=HOSTED):
    """Run the scenario whose bomb detonates at t=1000 ms on the shard of
    ``crash_device``; return the WorkerCrashed it must surface as."""
    from repro.fleet.worker import WorkerCrashed
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec(name="crashy", seed=5, devices=4, hours=0.25,
                        city_places=16)
    with pytest.raises(WorkerCrashed) as excinfo:
        run_fleet(
            spec=spec.compile(), shards=2, duration_ms=0.25 * 3_600_000.0,
            workload="scenario-crash-mid-epoch",
            workload_ctx={"scenario": spec, "crash_device": crash_device},
            processes=processes, barrier_timeout_s=120.0,
        )
    return excinfo.value


def _setup_crash(processes, crash_device=None):
    """Run the canary that raises while building the shard of
    ``crash_device`` (every shard if ``None``); return its WorkerCrashed."""
    from repro.fleet.worker import WorkerCrashed

    with pytest.raises(WorkerCrashed) as excinfo:
        run_fleet(
            fleet_spec(2, seed=0), 2, duration_ms=0.01 * HOUR,
            processes=processes, workload="crash-canary",
            workload_ctx={"crash_device": crash_device},
            barrier_timeout_s=120.0,
        )
    return excinfo.value


class TestWorkerCrashDiagnostics:
    def test_in_process_setup_crash_carries_shard_and_cause(self):
        from repro.fleet.worker import WorkerCrashed

        with pytest.raises(WorkerCrashed) as excinfo:
            run_fleet(
                fleet_spec(2, seed=0), 2, duration_ms=0.01 * HOUR,
                processes=False, workload="crash-canary",
            )
        exc = excinfo.value
        assert exc.shard_id == "fleet/0"
        assert exc.cause == "RuntimeError: crash canary tripped"

    def test_spawned_setup_crash_carries_shard_and_cause(self, monkeypatch):
        # Shard 1, in a spawned worker process: the WorkerCrashed crosses
        # the pipe as an ("error", ...) message and is raised here.
        monkeypatch.setattr(coordinator, "START_METHOD", "spawn")
        exc = _setup_crash(processes=True, crash_device=IN_A_WORKER)
        assert exc.shard_id == "fleet/1"
        # One line, extracted from the child's traceback.
        assert exc.cause == "RuntimeError: crash canary tripped"
        assert "\n" not in exc.cause
        assert "Traceback" in str(exc)

    def test_in_process_mid_epoch_crash_is_stamped_with_barrier_progress(self):
        # The bomb detonates at t=1000 ms, several 80 ms epochs in — the
        # coordinator must stamp which barrier the fleet had reached, not
        # just that a worker died during setup.
        exc = _mid_epoch_crash(processes=False)
        assert exc.shard_id.endswith("/0")  # device-1 hosts the bomb
        assert exc.cause == "RuntimeError: scenario mid-epoch crash canary"
        assert "\n" not in exc.cause
        assert exc.barriers is not None and exc.barriers >= 1
        assert exc.barrier_ms is not None and exc.barrier_ms > 0.0

    def test_spawned_mid_epoch_crash_is_stamped_with_barrier_progress(
        self, monkeypatch
    ):
        monkeypatch.setattr(coordinator, "START_METHOD", "spawn")
        exc = _mid_epoch_crash(processes=True, crash_device=IN_A_WORKER)
        assert exc.shard_id.endswith("/1")
        assert exc.cause == "RuntimeError: scenario mid-epoch crash canary"
        assert exc.barriers is not None and exc.barriers >= 1
        assert exc.barrier_ms is not None and exc.barrier_ms > 0.0


class TestLatencyKnob:
    def test_spec_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError, match="latency_ms"):
            fleet_spec(2, latency_ms=0)
        with pytest.raises(ValueError, match="latency_ms"):
            fleet_spec(2, latency_ms=-5.0)

    def test_latency_is_copied_to_every_shard(self):
        plan = plan_fleet(fleet_spec(4, seed=0, latency_ms=120.0), 2)
        assert all(s.latency_ms == 120.0 for s in plan.shards)

    def test_latency_bounds_the_epoch(self):
        # The barrier window may not exceed the (now smaller) latency.
        with pytest.raises(FleetError, match="epoch"):
            run_fleet(
                fleet_spec(2, seed=0, latency_ms=40.0), 2,
                duration_ms=0.01 * HOUR, epoch_ms=41.0, processes=False,
            )

    def test_latency_is_physics_solo_and_sharded_agree(self):
        # A different latency changes the schedule itself — but changes
        # it identically for the solo and partitioned runs.
        solo = run_fleet(
            fleet_spec(4, seed=6, latency_ms=40.0), 1, duration_ms=0.25 * HOUR,
            processes=False,
        )
        sharded = run_fleet(
            fleet_spec(4, seed=6, latency_ms=40.0), 2, duration_ms=0.25 * HOUR,
            processes=False,
        )
        default = run_fleet(
            fleet_spec(4, seed=6), 1, duration_ms=0.25 * HOUR, processes=False,
        )
        assert sharded.report_json == solo.report_json
        assert sharded.epoch_ms == 40.0
        assert solo.report_json != default.report_json


class TestAdaptiveBarriers:
    def test_single_shard_collapses_to_one_barrier(self):
        # One shard can never egress (every JID is local), so the adaptive
        # horizon jumps straight to T: one window, same merged report.
        result = run_fleet(
            fleet_spec(3, seed=6), 1, duration_ms=0.5 * HOUR, processes=False,
        )
        assert result.barriers == 1
        assert result.handoffs == 0

    def test_fleet_without_cross_shard_edges_collapses(self):
        # One device + its collector both land on shard 0; shard 1 is
        # empty.  No shard holds a remote roster edge, so neither bounds
        # the window — yet the merged report must still match solo.
        sharded = run_fleet(
            fleet_spec(1, seed=6), 2, duration_ms=0.5 * HOUR, processes=False,
        )
        solo = run_fleet(
            fleet_spec(1, seed=6), 1, duration_ms=0.5 * HOUR, processes=False,
        )
        assert sharded.barriers == 1
        assert sharded.report_json == solo.report_json

    def test_capable_fleet_still_barriers_at_epoch_granularity(self):
        # Devices on shards 1.. talk to the collector on shard 0 and vice
        # versa: every shard keeps remote edges, so the adaptive horizon
        # changes nothing for the standard battery fleet.
        result = run_fleet(
            fleet_spec(6, seed=6), 3, duration_ms=0.25 * HOUR, processes=False,
        )
        assert result.barriers > 10
        assert result.handoffs > 0

    def test_incapable_egress_fails_loudly(self):
        # A shard that reported no remote edges and then egresses anyway
        # violates the capability contract; the coordinator must raise,
        # not silently mis-time the delivery.
        from repro.fleet.worker import WORKLOADS

        def rogue_setup(shard, fleet_ctx):
            WORKLOADS["battery-monitor"](shard, fleet_ctx)
            if shard.shard_id.endswith("/1"):
                shard.kernel.schedule_at(
                    100.0, shard._queue_egress,
                    "ghost@elsewhere", "device-1@pogo", {"kind": "message"},
                )

        WORKLOADS["rogue-egress"] = rogue_setup
        try:
            with pytest.raises(FleetError, match="egress-capability"):
                run_fleet(
                    fleet_spec(1, seed=0), 2, duration_ms=0.25 * HOUR,
                    processes=False, workload="rogue-egress",
                )
        finally:
            del WORKLOADS["rogue-egress"]


class TestWorkerCleanup:
    def test_spawned_run_leaves_no_workers(self):
        import multiprocessing

        run_fleet(
            fleet_spec(2, seed=0), 2, duration_ms=0.05 * HOUR, processes=True,
            barrier_timeout_s=120.0,
        )
        assert multiprocessing.active_children() == []

    def test_setup_crash_leaves_no_workers(self):
        import multiprocessing

        _setup_crash(processes=True, crash_device=IN_A_WORKER)
        assert multiprocessing.active_children() == []

    def test_mid_epoch_crash_leaves_no_workers(self):
        import multiprocessing

        _mid_epoch_crash(processes=True, crash_device=IN_A_WORKER)
        assert multiprocessing.active_children() == []

    def test_failed_spawn_closes_the_workers_already_started(self, monkeypatch):
        # Process.start() failing for worker k>0 (EMFILE, ENOMEM) must not
        # orphan workers 0..k-1 blocked in conn.recv().
        import multiprocessing

        import repro.fleet.coordinator as coordinator

        spawn = multiprocessing.get_context("spawn")
        started = []

        class Unstartable:
            def start(self):
                raise OSError(24, "Too many open files")

        def process(**kwargs):
            if started:
                return Unstartable()
            started.append(spawn.Process(**kwargs))
            return started[0]

        class Context:
            Pipe = staticmethod(spawn.Pipe)
            Process = staticmethod(process)

        monkeypatch.setattr(
            coordinator.multiprocessing, "get_context", lambda method: Context
        )
        with pytest.raises(OSError, match="Too many open files"):
            run_fleet(
                fleet_spec(4, seed=0), 3, duration_ms=0.05 * HOUR,
                processes=True,
            )
        assert len(started) == 1
        assert multiprocessing.active_children() == []


class TestProcessLayout:
    """K shards, K−1 worker processes: shard 0 runs in the coordinator."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_a_process_fleet_starts_one_process_fewer_than_its_shards(self, shards):
        import multiprocessing

        alive = []
        result = run_fleet(
            fleet_spec(8, seed=0), shards, duration_ms=0.05 * HOUR,
            barrier_timeout_s=120.0,
            observer=lambda frame: alive.append(len(multiprocessing.active_children())),
        )
        assert result.barriers == len(alive) > 0
        assert set(alive) == {shards - 1}
        assert multiprocessing.active_children() == []

    def test_the_hosted_shard_reports_its_wait_on_the_workers_as_stall(self):
        # Shard 0 blocks in the coordinator while the worker processes
        # finish their window; with every shard in-process nobody blocks.
        mixed = run_fleet(
            fleet_spec(8, seed=0), 2, duration_ms=0.05 * HOUR, telemetry=True,
            barrier_timeout_s=120.0,
        ).health["shards"]
        assert mixed["fleet/0"]["stall_s"] > 0.0 and mixed["fleet/1"]["stall_s"] > 0.0
        local = run_fleet(
            fleet_spec(8, seed=0), 2, duration_ms=0.05 * HOUR, telemetry=True,
            processes=False,
        ).health["shards"]
        assert [entry["stall_s"] for entry in local.values()] == [0.0, 0.0]

    @pytest.mark.parametrize("crash", [_setup_crash, _mid_epoch_crash],
                             ids=["setup", "mid-epoch"])
    @pytest.mark.parametrize("crash_device", [HOSTED, IN_A_WORKER],
                             ids=["hosted", "in-a-worker"])
    def test_a_crash_reads_the_same_hosted_and_in_a_worker_process(
        self, crash, crash_device
    ):
        # A crash in the hosted shard 0 and one in the worker process that
        # runs shard 1 each read as their in-process twin does, and
        # neither leaves a worker behind.
        import multiprocessing

        local = crash(processes=False, crash_device=crash_device)
        mixed = crash(processes=True, crash_device=crash_device)
        assert multiprocessing.active_children() == []
        assert mixed.shard_id.endswith(f"/{crash_device}")  # device i: shard i % 2
        assert (local.shard_id, local.cause, local.barriers, local.barrier_ms) == (
            mixed.shard_id, mixed.cause, mixed.barriers, mixed.barrier_ms,
        )
        assert str(local).splitlines()[0] == str(mixed).splitlines()[0]
        assert "crash canary" in local.cause

    def test_a_hung_hosted_shard_is_reported_like_a_hung_worker(self, monkeypatch):
        # A shard 0 that stalls past the timeout fails the run when its
        # step returns, as a worker process would have come back
        # "presumed hung".
        import time

        from repro.fleet.worker import WorkerCrashed

        wait_barrier, calls = coordinator._LocalWorker.wait_barrier, []

        def stalled_once(self):
            if not calls:
                time.sleep(1.0)
            calls.append(self.shard_id)
            return wait_barrier(self)

        monkeypatch.setattr(coordinator._LocalWorker, "wait_barrier", stalled_once)
        with pytest.raises(WorkerCrashed, match="presumed hung") as excinfo:
            run_fleet(
                fleet_spec(4, seed=0), 2, duration_ms=0.05 * HOUR,
                barrier_timeout_s=0.5,
            )
        assert excinfo.value.shard_id == "fleet/0"


class TestShardDriver:
    def test_stepped_by_hand_matches_run_fleet(self):
        # ready() -> advance() to the horizon -> finish(), no coordinator:
        # the artifacts are the ones run_fleet merges for the same spec.
        from repro.fleet.worker import ShardDriver, collect_artifacts

        root = fleet_spec(3, seed=4)
        plan = plan_fleet(root, 1)
        driver = ShardDriver(
            plan.shards[0], "battery-monitor",
            {"deploy_jids": plan.device_jids,
             "collector_jids": plan.collector_jids},
        )
        latency_ms, next_event, initial, capable = driver.ready()
        assert (latency_ms, initial, capable) == (80.0, [], False)
        assert next_event is not None
        out, next_event, capable, sample = driver.advance(0.25 * 3_600_000.0, [])
        assert (out, capable, sample) == ([], False, None)
        artifacts, rows = driver.finish()

        result = run_fleet(
            spec=root, shards=1, duration_ms=0.25 * HOUR, processes=False
        )
        assert artifacts["report"] == result.shard_reports[0]
        # The driver hands over the ring as rows, in ring order, beside
        # the artifacts; the reader's front-end and, for the standalone
        # export of the same shard, the text front-end reach the same bytes.
        assert "trace_jsonl" not in artifacts
        assert rows == span_rows(driver.shard.kernel.spans) and len(rows) > 0
        assert merge_span_rows([(artifacts["shard_id"], rows)]) == result.trace_jsonl
        exported = collect_artifacts(driver.shard)
        assert merge_trace_jsonl(
            [(exported["shard_id"], exported["trace_jsonl"])]
        ) == result.trace_jsonl
        assert artifacts["busy_s"] == driver.busy_s > 0.0

    def test_dark_telemetry_costs_nothing_per_barrier(self, monkeypatch):
        # The null lane throws the wall section away, so the driver must
        # not build it (a getrusage syscall per barrier).
        from repro.fleet import worker

        def forbidden():
            raise AssertionError("rss sampled with telemetry off")

        def drive(telemetry):
            driver = worker.ShardDriver(
                fleet_spec(2, seed=4), "battery-monitor", None,
                telemetry=telemetry,
            )
            return driver.advance(60_000.0, [], stall_s=0.25)[3]

        monkeypatch.setattr(worker, "_rss_kb", forbidden)
        assert drive(telemetry=False) is None
        monkeypatch.setattr(worker, "_rss_kb", lambda: 4242)
        sample = drive(telemetry=True)
        assert sample["wall"]["rss_kb"] == 4242
        assert sample["wall"]["stall_s"] == 0.25
        assert sample["wall"]["cpu_s"] > 0.0

    def test_crash_reads_the_same_in_process_and_spawned(self, monkeypatch):
        # The exception -> WorkerCrashed mapping is written once, in the
        # driver, so the transport cannot change how a crash reads: here,
        # shard 1 in a spawned worker process against shard 1 in-process.
        local = _mid_epoch_crash(processes=False, crash_device=IN_A_WORKER)
        monkeypatch.setattr(coordinator, "START_METHOD", "spawn")
        spawned = _mid_epoch_crash(processes=True, crash_device=IN_A_WORKER)
        assert spawned.shard_id.endswith("/1")
        assert (local.shard_id, local.cause) == (spawned.shard_id, spawned.cause)
        assert (local.barriers, local.barrier_ms) == (
            spawned.barriers, spawned.barrier_ms
        )
        assert str(local).splitlines()[0] == str(spawned).splitlines()[0]
        assert "Traceback" in str(local) and "Traceback" in str(spawned)
