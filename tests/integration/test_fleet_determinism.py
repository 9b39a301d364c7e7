"""Fleet coordinator determinism across real worker processes.

The tentpole claim, end to end: one battery-monitor fleet partitioned
across worker processes produces a merged report byte-identical to the
single-shard run, and the process form is byte-identical to the
in-process form of the same coordinator (so the property suite, which
runs in-process for speed, covers the process path too).

Workers are forked on Linux and spawned elsewhere
(:data:`repro.fleet.coordinator.START_METHOD`).  The ``spawned`` runs
here force spawn through that constant, so the path other platforms take
— and the one that keeps every worker argument picklable — is held to
the same bytes on every host.
"""

import multiprocessing

import pytest

import repro.fleet.coordinator as coordinator
from repro.fleet import fleet_spec, run_fleet
from repro.sim.kernel import HOUR

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="this platform cannot fork",
)


@pytest.fixture(scope="module")
def runs():
    spec, kwargs = fleet_spec(6, seed=7), dict(duration_ms=0.5 * HOUR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator, "START_METHOD", "spawn")
        spawned = run_fleet(spec, 3, processes=True, **kwargs)
    return {
        "spawned": spawned,
        "processes": run_fleet(spec, 3, processes=True, **kwargs),  # this platform's way
        "inproc": run_fleet(spec, 3, processes=False, **kwargs),
        "solo": run_fleet(spec, 1, processes=False, **kwargs),
    }


def test_spawned_merged_report_matches_single_shard(runs):
    assert runs["spawned"].report_json == runs["solo"].report_json
    assert '"events_executed"' in runs["solo"].report_json


def test_spawned_and_in_process_coordination_are_byte_identical(runs):
    assert runs["spawned"].report_json == runs["inproc"].report_json
    assert runs["spawned"].trace_jsonl == runs["inproc"].trace_jsonl
    assert runs["spawned"].barriers == runs["inproc"].barriers
    assert runs["spawned"].handoffs == runs["inproc"].handoffs


def test_the_start_method_changes_no_byte(runs):
    # Forked or spawned, a worker runs the same loop over the same pipe:
    # even the pickled handoff frames are the same size.
    native, spawned = runs["processes"], runs["spawned"]
    assert native.report_json == spawned.report_json
    assert native.trace_jsonl == spawned.trace_jsonl
    assert (native.barriers, native.handoffs, native.handoff_bytes) == (
        spawned.barriers, spawned.handoffs, spawned.handoff_bytes
    )


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
    # single-shard reference (the CI fleet-determinism job runs the full
    # hour via the CLI with cmp).
    spec, kwargs = fleet_spec(500, seed=7), dict(duration_ms=0.05 * HOUR)
    sharded = run_fleet(spec, 4, processes=True, **kwargs)
    solo = run_fleet(spec, 1, processes=False, **kwargs)
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


# ---------------------------------------------------------------------------
# The merged trace, byte for byte
# ---------------------------------------------------------------------------

#: SHA-256 of ``FleetResult.trace_jsonl`` per shard count (the ``shard``
#: member makes each count its own text), taken at the commit before the
#: trace became a pull — when every worker still wrote its own lines —
#: on the two fixtures PR 17 compared: a 40-device battery fleet and the
#: stadium preset at scale 0.1.  However the rows travel and whoever
#: writes them, these are the bytes.
TRACE_SHA256 = {
    "battery": {
        1: "132c38e2f81d7798dd4e0a7140ed75fac04a3f982c448e5154312b8228c0d785",
        2: "5934389b3f9d2ba0cc45bbc0e2bc894984da44e83eb4744fa9f2d82d495f4c8b",
        4: "41d86999cf2d99c1cf75100a70447d3fd43f8603da2d5bd9d27c8b58a10e91d9",
    },
    "stadium": {
        1: "853bd54cf86d087640c8f4322ebf7b5f18e444a613fddf3067f4230821d17da1",
        2: "6376083682c138bbcf850ea5b77f9d098da111bebb9b94993c34271bd4ee00ee",
        4: "4666c6c07be06f3748416365e016e6635cfc1a89de0f27e5fef49c4ccaf74601",
    },
}


@pytest.mark.parametrize(
    "shards, start_method",
    [
        pytest.param(1, None, id="solo"),
        pytest.param(2, None, id="2-in-process"),
        pytest.param(2, "spawn", id="2-spawned"),
        pytest.param(2, "fork", id="2-forked", marks=fork_only),
        pytest.param(4, None, id="4-in-process"),
        pytest.param(4, "spawn", id="4-spawned"),
        pytest.param(4, "fork", id="4-forked", marks=fork_only),
    ],
)
def test_merged_trace_bytes_are_pinned(shards, start_method, monkeypatch):
    import hashlib

    from repro.scenarios import build_preset, run_scenario_spec

    processes = start_method is not None
    if processes:
        monkeypatch.setattr(coordinator, "START_METHOD", start_method)
    stadium = build_preset("stadium-evening", scale=0.1)
    traces = {
        "battery": run_fleet(
            fleet_spec(40, seed=7), shards, duration_ms=0.5 * HOUR,
            processes=processes,
        ).trace_jsonl,
        "stadium": run_scenario_spec(
            stadium, shards=shards, processes=processes
        ).fleet.trace_jsonl,
    }
    for fixture, text in traces.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == TRACE_SHA256[fixture][shards], fixture
