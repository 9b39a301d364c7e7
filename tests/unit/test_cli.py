"""Unit tests for the command-line interface."""

import pathlib

import pytest

from repro.chaos import SCENARIOS
from repro.cli import main
from repro.device.radio import CARRIERS

ROOT = pathlib.Path(__file__).parent.parent.parent


def test_tail_trace(capsys):
    assert main(["tail-trace"]) == 0
    out = capsys.readouterr().out
    assert "tail b->d 59.5 s" in out
    assert "█" in out  # the ASCII trace rendered


def test_table3_prints_the_benchmarks_joules(capsys):
    # The verb and benchmarks/test_table3_power.py run one recipe
    # (repro.apps.energy_study.table3_hour): at the benchmark's seed the
    # verb prints the committed table's rows.
    assert main(["--seed", "3", "table3"]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    committed = (ROOT / "benchmarks" / "out" / "table3_power.txt").read_text()
    rows = [
        words[:6] for words in map(str.split, committed.splitlines())
        if words and words[0] in CARRIERS
    ]
    assert len(rows) == len(CARRIERS)
    assert printed == rows


def test_anonytl_task_file(tmp_path, capsys):
    task_file = tmp_path / "task.atl"
    task_file.write_text("(Task 5)\n(Report (SSIDs) (Every 10 Minutes))\n")
    assert main(["anonytl", str(task_file), "--hours", "1"]) == 0
    out = capsys.readouterr().out
    assert "task 5" in out
    assert "reports on 'anonytl-reports'" in out


def test_power_report_rows_add_up_to_the_rail_total(capsys):
    assert main(["--seed", "7", "power-report", "--hours", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("script"))
    table = lines[header + 1:]
    rows = {line.rsplit(None, 5)[0]: float(line.split()[-1]) for line in table[:-1]}
    assert set(rows) == {
        "localization/scan", "localization/clustering", "localization/collect",
        "battery-monitor/collect", "(shared)", "(no scripts)",
    }
    label, total = table[-1].rsplit(None, 1)
    assert label == "rail total"
    # Each printed figure is rounded to 0.005 J at most.
    assert sum(rows.values()) == pytest.approx(float(total), abs=0.005 * (len(rows) + 1))


def test_trace(capsys):
    assert main(["--seed", "3", "trace", "--devices", "2", "--hours", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "metrics (nonzero; hop.* are per-hop latencies):" in out
    assert "transport.stanzas_sent" in out
    # The simulated half hour must actually move the counters.
    (publishes,) = [line for line in out.splitlines()
                    if line.startswith("broker.publishes ")]
    assert int(publishes.split()[-1].replace(",", "")) > 0
    assert "hop.buffer.dwell" in out
    assert "deliver.collector" in out
    assert "radio episodes" in out
    assert "woken by a Pogo flush" in out


def test_trace_json_and_export(tmp_path, capsys):
    import json

    path = tmp_path / "spans.jsonl"
    assert main(["--seed", "3", "trace", "--devices", "2", "--hours", "0.5",
                 "--json", "--export", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["devices"] == 2
    assert report["spans"]["recorded"] > 0
    # The full registry snapshot, zero-valued names and hop latencies
    # included.
    snapshot = report["metrics"]
    assert snapshot["broker.publishes"] > 0
    assert snapshot["node.batch_payloads"]["count"] > 0
    assert snapshot["hop.publish"]["count"] > 0
    assert 0 in snapshot.values()
    energy = report["energy"]
    assert set(energy) == {"active_j", "episodes", "idle_j", "total_j"}
    assert energy["episodes"]["flush"] == 0
    assert energy["episodes"]["external"] > 0
    assert energy["active_j"] + energy["idle_j"] == pytest.approx(energy["total_j"])

    lines = path.read_text().splitlines()
    assert len(lines) == report["spans"]["in_ring"]
    first = json.loads(lines[0])
    assert set(first) == {"span", "trace", "parent", "hop", "start_ms",
                          "end_ms", "attrs"}


def test_fleet_telemetry_and_prom_exports(tmp_path, capsys):
    import json

    timeline = tmp_path / "timeline.jsonl"
    prom = tmp_path / "snapshot.prom"
    assert main(["--seed", "5", "fleet", "--devices", "4", "--shards", "2",
                 "--hours", "0.25", "--in-process",
                 "--telemetry", str(timeline), "--prom", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "health:" in out
    assert "telemetry timeline ->" in out
    records = [json.loads(line) for line in
               timeline.read_text(encoding="utf-8").splitlines()]
    assert records[-1]["kind"] == "totals"
    assert '"wall"' not in timeline.read_text(encoding="utf-8")
    assert "# TYPE pogo_kernel_events counter" in prom.read_text(
        encoding="utf-8")


def test_fleet_says_when_a_flight_recorder_evicted_spans(capsys, monkeypatch):
    import re
    from functools import partial

    import repro.sim.kernel as kernel
    from repro.sim.spans import DEFAULT_MAX_SPANS

    argv = ["--seed", "5", "fleet", "--devices", "4", "--shards", "2",
            "--hours", "0.25", "--in-process"]
    assert main(argv) == 0
    assert "spans:" not in capsys.readouterr().out  # silent while rings hold
    # No public entry point sizes the ring, so shrink it under the kernel.
    monkeypatch.setattr(
        kernel, "SpanRecorder", partial(kernel.SpanRecorder, max_spans=50)
    )
    assert main(argv) == 0
    match = re.search(
        r"^  spans: 100 kept, ([0-9,]+) evicted \(ring of ([0-9,]+) per shard\)$",
        capsys.readouterr().out, re.MULTILINE,
    )
    assert match, "two full rings of 50, and a line saying so"
    assert int(match[1].replace(",", "")) > 0
    assert match[2] == f"{DEFAULT_MAX_SPANS:,}"  # what every real run has


def test_fleet_latency_flag_changes_physics_and_rejects_junk(capsys):
    assert main(["--seed", "5", "fleet", "--devices", "2", "--shards", "2",
                 "--hours", "0.1", "--in-process", "--latency-ms", "40",
                 "--json"]) == 0
    forty = capsys.readouterr().out
    assert main(["--seed", "5", "fleet", "--devices", "2", "--shards", "2",
                 "--hours", "0.1", "--in-process", "--json"]) == 0
    eighty = capsys.readouterr().out
    assert forty != eighty  # latency is simulated physics, not a knob

    rc = main(["fleet", "--devices", "2", "--shards", "2", "--hours", "0.1",
               "--in-process", "--latency-ms", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "latency_ms" in captured.err


@pytest.mark.parametrize("shards", ["0", "-1"])
@pytest.mark.parametrize(
    "verb, label",
    [
        (["fleet", "--devices", "4"], "fleet"),
        (["fleet", "--devices", "4", "--live"], "fleet"),
        (["scenarios", "--preset", "stadium-evening"], "scenarios"),
    ],
)
def test_nonpositive_shard_count_prints_one_line_and_exits_1(
    capsys, verb, label, shards
):
    rc = main(verb + ["--shards", shards])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        f"{label}: shard count must be >= 1, got {shards}"
    ]
    assert "Traceback" not in captured.err


BAD_INPUT = [
    (["power-report", "--hours", "0"], "--hours must be positive, got 0"),
    (["trace", "--hours", "0"], "--hours must be positive, got 0"),
    (["anonytl", "task.atl", "--hours", "0"], "--hours must be positive, got 0"),
    (["chaos", "--minutes", "-3"], "--minutes must not be negative, got -3"),
    (["chaos", "--scenario", "nope"],
     f"unknown scenario 'nope' (choose from {sorted(SCENARIOS)})"),
    (["table4", "--scale", "0"], "--scale must be positive, got 0"),
    (["table4", "--scale", "-1"], "--scale must be positive, got -1"),
    (["table4", "--scale", "1.5"], "--scale must not exceed 1, got 1.5"),
    (["scenarios", "--scale", "0"], "--scale must be positive, got 0"),
    (["fleet", "--hours", "0"], "--hours must be positive, got 0"),
    (["chaos", "--devices", "-3", "--minutes", "1", "--json"],
     "--devices must not be negative, got -3"),
    (["trace", "--devices", "-1"], "--devices must not be negative, got -1"),
    (["fleet", "--devices", "-1"], "--devices must not be negative, got -1"),
    (["chaos", "--devices", "0", "--inject-bug", "skip-retransmit"],
     "--inject-bug needs a device to break, got --devices 0"),
]


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(argv, message, id=" ".join(argv)) for argv, message in BAD_INPUT],
)
def test_a_bad_length_or_name_prints_one_line_and_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{argv[0]}: {message}"]
    assert captured.out == ""


def test_fleet_quotes_bytes_per_handoff_only_when_there_are_handoffs(capsys):
    # Empty frames still cross the worker pipes, so a fleet with nothing
    # to hand off reports wire bytes — and no per-handoff figure for them.
    assert main(["fleet", "--devices", "0", "--shards", "2",
                 "--hours", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "0 cross-shard handoffs" in out
    assert "handoff wire bytes" in out
    assert "B/handoff" not in out

    assert main(["--seed", "5", "fleet", "--devices", "4", "--shards", "2",
                 "--hours", "0.1"]) == 0
    assert "B/handoff pickled)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, workers", [([], 2), (["--in-process"], 0)], ids=["processes", "in-process"]
)
def test_fleet_says_how_many_shards_ran_in_worker_processes(capsys, extra, workers):
    assert main(["--seed", "5", "fleet", "--devices", "4", "--shards", "3",
                 "--hours", "0.05", *extra]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"4 devices across 3 shard(s) ({workers} in worker processes), "
        f"0.05 h simulated (seed 5):"
    )


def test_fleet_live_prints_health_and_the_view_on_stderr(capsys):
    assert main(["--seed", "5", "fleet", "--devices", "4", "--shards", "2",
                 "--hours", "0.25", "--in-process", "--live"]) == 0
    captured = capsys.readouterr()
    assert "health:" in captured.out
    assert "repro fleet" in captured.err  # the live view writes to stderr
    assert "repro fleet" not in captured.out


def test_fleet_worker_crash_prints_one_line_and_exits_1(capsys, monkeypatch):
    import repro.fleet.coordinator as coordinator
    from repro.fleet.worker import WORKLOADS, WorkerCrashed

    # Route the CLI's fixed battery-monitor workload to the crash canary
    # so the in-process fleet dies during setup.
    monkeypatch.setitem(
        WORKLOADS, "battery-monitor", WORKLOADS["crash-canary"]
    )
    rc = main(["fleet", "--devices", "4", "--shards", "2",
               "--hours", "0.1", "--in-process"])
    captured = capsys.readouterr()
    assert rc == 1
    err = captured.err.strip()
    assert err.splitlines() == [
        "fleet: worker fleet/0 crashed: RuntimeError: crash canary tripped"
    ]
    assert "Traceback" not in captured.err


def test_unknown_command_rejected():
    for command in ("frobnicate", "bench"):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2


def test_docstring_parser_and_dispatch_table_name_the_same_verbs():
    import argparse
    import re

    from repro import cli

    listing = cli.__doc__.split("--------\n", 1)[1]
    documented = set(re.findall(r"^([a-z][a-z0-9-]*)\s", listing, re.MULTILINE))
    (subparsers,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert documented == set(subparsers.choices) == set(cli._COMMANDS)


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
