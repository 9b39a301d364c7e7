"""Fleet coordinator determinism across real worker processes.

The tentpole claim, end to end: one battery-monitor fleet partitioned
across spawned worker processes produces a merged report byte-identical
to the single-shard run, and the spawned form is byte-identical to the
in-process form of the same coordinator (so the property suite, which
runs in-process for speed, covers the process path too).
"""

import pytest

from repro.fleet import run_fleet


@pytest.fixture(scope="module")
def runs():
    kwargs = dict(seed=7, hours=0.5)
    return {
        "spawned": run_fleet(6, 3, processes=True, **kwargs),
        "inproc": run_fleet(6, 3, processes=False, **kwargs),
        "solo": run_fleet(6, 1, processes=False, **kwargs),
    }


def test_spawned_merged_report_matches_single_shard(runs):
    assert runs["spawned"].report_json == runs["solo"].report_json
    assert '"events_executed"' in runs["solo"].report_json


def test_spawned_and_in_process_coordination_are_byte_identical(runs):
    assert runs["spawned"].report_json == runs["inproc"].report_json
    assert runs["spawned"].trace_jsonl == runs["inproc"].trace_jsonl
    assert runs["spawned"].barriers == runs["inproc"].barriers
    assert runs["spawned"].handoffs == runs["inproc"].handoffs


def test_cross_shard_traffic_actually_crossed(runs):
    # The equality above would be vacuous if the partition never
    # exchanged anything.
    assert runs["spawned"].handoffs > 0
    assert runs["spawned"].shards == 3
    assert runs["spawned"].trace_jsonl.count("\n") > 50


def test_wire_frames_are_accounted_only_where_a_pipe_exists(runs):
    assert runs["spawned"].handoff_bytes > 0
    assert runs["inproc"].handoff_bytes == 0  # nothing crosses a pipe


def test_500x4_seed7_merged_report_matches_solo():
    # The PR's acceptance run at reduced duration: the canonical
    # 500-device, 4-shard, seed-7 fleet merged byte-identically to the
    # single-shard reference (the CI fleet-dataplane job runs the full
    # hour via the CLI with cmp).
    kwargs = dict(seed=7, hours=0.05)
    sharded = run_fleet(500, 4, processes=True, **kwargs)
    solo = run_fleet(500, 1, processes=False, **kwargs)
    assert sharded.report_json == solo.report_json
    assert sharded.handoffs > 0


def test_merged_counters_are_conserved(runs):
    merged = runs["spawned"].report
    parts = runs["spawned"].shard_reports
    assert merged["events_executed"] == sum(
        part["events_executed"] for part in parts
    )
    for key in merged["server"]:
        assert merged["server"][key] == sum(
            part["server"][key] for part in parts
        )
