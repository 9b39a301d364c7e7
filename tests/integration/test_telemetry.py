"""Telemetry plane end to end: determinism, conservation, no-perturbation.

The plane's three contracts, exercised through real fleet runs:

* **Byte determinism** — two same-seed telemetry runs export identical
  timeline JSONL, and the spawned form matches the in-process form.
* **Conservation** — the additive totals of a K-shard timeline equal the
  solo run's totals exactly (same partitioning argument as the merged
  report).
* **No perturbation** — a telemetry-armed run produces the same merged
  report and trace as a dark run of the same seed; sampling is pull-only.
"""

import pytest

from repro.fleet import run_fleet
from repro.obs.timeline import aggregate_totals, timeline_to_jsonl


@pytest.fixture(scope="module")
def runs():
    kwargs = dict(seed=7, hours=0.5)
    return {
        "spawned": run_fleet(6, 3, processes=True, telemetry=True, **kwargs),
        "inproc": run_fleet(6, 3, processes=False, telemetry=True, **kwargs),
        "again": run_fleet(6, 3, processes=False, telemetry=True, **kwargs),
        "solo": run_fleet(6, 1, processes=False, telemetry=True, **kwargs),
        "dark": run_fleet(6, 3, processes=False, **kwargs),
    }


def test_same_seed_timelines_are_byte_identical(runs):
    a = timeline_to_jsonl(runs["inproc"].timeline)
    b = timeline_to_jsonl(runs["again"].timeline)
    assert a != ""
    assert a == b


def test_spawned_timeline_matches_in_process(runs):
    assert timeline_to_jsonl(runs["spawned"].timeline) == timeline_to_jsonl(
        runs["inproc"].timeline
    )


def test_fleet_totals_equal_solo_totals(runs):
    fleet = aggregate_totals(runs["spawned"].timeline)
    solo = aggregate_totals(runs["solo"].timeline)
    assert fleet.pop("shards") == 3
    assert solo.pop("shards") == 1
    assert fleet == solo


def test_telemetry_never_perturbs_the_simulation(runs):
    assert runs["inproc"].report_json == runs["dark"].report_json
    assert runs["spawned"].report_json == runs["solo"].report_json
    assert runs["inproc"].trace_jsonl == runs["dark"].trace_jsonl
    assert runs["inproc"].barriers == runs["dark"].barriers
    assert runs["inproc"].handoffs == runs["dark"].handoffs
    assert runs["dark"].timeline is None
    assert runs["dark"].health is None


def test_timeline_agrees_with_the_merged_report(runs):
    totals = aggregate_totals(runs["spawned"].timeline)
    report = runs["spawned"].report
    assert totals["events"] == report["events_executed"]
    for key, value in report["server"].items():
        assert totals["server"][key] == value


def test_wall_sections_exist_outside_deterministic_export(runs):
    samples = runs["spawned"].timeline.last_samples()
    assert len(samples) == 3
    for sample in samples:
        wall = sample["wall"]
        assert wall["cpu_s"] >= 0.0
        assert wall["stall_s"] >= 0.0
    health = runs["spawned"].health
    assert health["barriers"] == runs["spawned"].barriers
    assert set(health["shards"]) == {s["shard"] for s in samples}
