"""Smoke test of the ruler itself (outside ``testpaths``; not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/pogobench/test_smoke.py -q

Drives ``--smoke`` — every workload ~10x below full size, one
repetition, traced — and checks the shape of what comes out, not the
timings.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from benchmarks.pogobench import metrics
from benchmarks.pogobench.tracing import LAYERS, PHASES
from benchmarks.pogobench.workloads import MODEL_COUNTS, SIZES, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Phases must account for the traced wall to within this share of it.
TOLERANCE = 0.02
#: Layer self times partition what cProfile timed; against the span around
#: the profiled call they fall short by the profiler's own untimed hook
#: work — under 2 % except on the call-heaviest workload (table4_user3, ~8 %).
MIN_COVERAGE = 0.90


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("pogobench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.pogobench", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_manifest_matches_the_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == list(WORKLOADS.values())
    assert manifest["end_to_end"] == metrics.END_TO_END
    assert manifest["per_layer"] == metrics.PER_LAYER
    assert manifest["paths"] == ["benchmarks/pogobench"]
    for size in SIZES.values():
        assert size["stadium_x2"] == size["stadium_solo"]


def test_every_named_metric_is_present_with_its_unit(smoke):
    results, printed = smoke
    assert list(results["workloads"]) == list(WORKLOADS)
    named = (
        [f"{layer}.calls" for layer in LAYERS]
        + [f"{layer}.self_s" for layer in LAYERS]
        + [f"phase.{phase}_s" for phase in PHASES]
        + list(MODEL_COUNTS)
        + ["phase.residual_s", "host.gc_s", "host.gc_gen2", "host.gc_share",
           "fleet.barriers", "fleet.handoffs", "fleet.handoff_bytes",
           "fleet.critical_path_s", "fleet.worker_cpu_s", "fleet.stall_s",
           "fleet.shard_imbalance", "fleet.overhead_s",
           "fleet.overhead_per_barrier_us", "fleet.fixed_cost_s",
           "fleet.slowdown_x", "wire.encode_us_per_handoff",
           "wire.decode_us_per_handoff", "wire.bytes_per_handoff",
           "shard.snapshot_s", "shard.restore_s", "shard.snapshot_bytes",
           "kernel.dispatch_ns", "kernel.repeating_ns", "trace_overhead_x"]
    )
    for name, row in results["workloads"].items():
        for metric in (*metrics.END_TO_END, metrics.PAPER_ERR, metrics.FAILED_SHARE):
            entry = row["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert f"  {metric['name']}" in printed
        assert set(named) <= set(row["per_layer"]), name
        assert set(row["per_layer"]) == {m["name"] for m in metrics.PER_LAYER}
        assert (HERE / "out" / f"trace_{name}.jsonl").stat().st_size > 0


def test_no_check_failed(smoke):
    results, _ = smoke
    for name, row in results["workloads"].items():
        share = row["end_to_end"]["failed_share"]
        # Includes: pinned event counts and report hashes, zero invariant
        # violations, stadium_x2 == stadium_solo, and the staged traced
        # drives ("spans:", "profile:") reproducing the untraced bytes.
        assert share["failures"] == [], name
        assert share["attempted"] >= 9, name
    solo = results["workloads"]["stadium_solo"]["counts"]
    x2 = results["workloads"]["stadium_x2"]["counts"]
    assert {k: v for k, v in x2.items() if not k.startswith("fleet.")} == {
        k: v for k, v in solo.items() if not k.startswith("fleet.")
    }
    assert solo["fleet.barriers"] == 1 and solo["fleet.handoffs"] == 0
    assert x2["fleet.barriers"] > 1 and x2["fleet.handoffs"] > 0


def test_phases_and_layers_account_for_the_time(smoke):
    results, _ = smoke
    for name, row in results["workloads"].items():
        layer = row["per_layer"]
        phases = sum(layer[f"phase.{phase}_s"] for phase in PHASES)
        assert abs(layer["phase.residual_s"]) <= TOLERANCE * phases, name
        assert MIN_COVERAGE <= layer["profile.coverage"] <= 1.0 + TOLERANCE, name
        assert layer["python.calls"] > 0 and layer["sim.kernel.self_s"] > 0


def test_layers_land_where_the_readme_says(smoke):
    results, _ = smoke
    layer = {name: row["per_layer"] for name, row in results["workloads"].items()}
    assert layer["table3_fleet"]["fleet.calls"] == 0
    assert layer["stadium_x2"]["fleet.calls"] > 0
    assert layer["chaos_mixed"]["chaos.calls"] > layer["table3_fleet"]["chaos.calls"]
    assert layer["table4_user3"]["analysis.calls"] > 0
    assert layer["stadium_solo"]["world.calls"] > 0
    assert layer["table3_instrumented"]["phase.collect_s"] > layer["table3_fleet"]["phase.collect_s"]
    assert layer["table3_fleet"]["kernel.dispatch_ns"] > 0
    assert layer["stadium_x2"]["wire.bytes_per_handoff"] > 0
