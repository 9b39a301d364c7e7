"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def test_quickstart(capsys):
    assert main(["--seed", "3", "quickstart", "--devices", "2", "--hours", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "readings from 2 devices" in out
    assert "device-1@pogo" in out


def test_tail_trace(capsys):
    assert main(["tail-trace"]) == 0
    out = capsys.readouterr().out
    assert "tail b->d 59.5 s" in out
    assert "█" in out  # the ASCII trace rendered


def test_roguefinder(capsys):
    assert main(["--seed", "21", "roguefinder", "--hours", "2"]) == 0
    out = capsys.readouterr().out
    assert "geofenced scans" in out


def test_anonytl_task_file(tmp_path, capsys):
    task_file = tmp_path / "task.atl"
    task_file.write_text("(Task 5)\n(Report (SSIDs) (Every 10 Minutes))\n")
    assert main(["anonytl", str(task_file), "--hours", "1"]) == 0
    out = capsys.readouterr().out
    assert "task 5" in out
    assert "reports on 'anonytl-reports'" in out


def test_localization_short(capsys):
    assert main(["--seed", "11", "localization", "--days", "1"]) == 0
    out = capsys.readouterr().out
    assert "dwell sessions" in out


def test_metrics(capsys):
    assert main(["--seed", "3", "metrics", "--devices", "2", "--hours", "1"]) == 0
    out = capsys.readouterr().out
    assert "broker.publishes" in out
    assert "transport.stanzas_sent" in out
    # The simulated hour must actually move the counters.
    for line in out.splitlines():
        if line.startswith("broker.publishes"):
            assert int(line.split()[-1].replace(",", "")) > 0


def test_metrics_json(capsys):
    import json

    assert main(["--seed", "3", "metrics", "--devices", "2", "--hours", "0.5",
                 "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["broker.publishes"] > 0
    assert snapshot["node.batch_payloads"]["count"] > 0


def test_trace(capsys):
    assert main(["--seed", "3", "trace", "--devices", "2", "--hours", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "per-hop latency:" in out
    assert "buffer.dwell" in out
    assert "deliver.collector" in out
    assert "per-message energy attribution" in out
    assert "reconciliation delta" in out


def test_trace_json_and_export(tmp_path, capsys):
    import json

    path = tmp_path / "spans.jsonl"
    assert main(["--seed", "3", "trace", "--devices", "2", "--hours", "0.5",
                 "--json", "--export", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["devices"] == 2
    assert report["spans"]["recorded"] > 0
    assert "publish" in report["hops"]
    assert report["energy"]["reconciliation_delta"] < 0.01

    lines = path.read_text().splitlines()
    assert len(lines) == report["spans"]["in_ring"]
    first = json.loads(lines[0])
    assert set(first) == {"span", "trace", "parent", "hop", "start_ms",
                          "end_ms", "attrs"}


def test_metrics_output_file_redirects_the_report(tmp_path, capsys):
    path = tmp_path / "metrics.txt"
    assert main(["--seed", "3", "metrics", "--devices", "2", "--hours", "0.5",
                 "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""  # redirected, nothing on stdout
    text = path.read_text(encoding="utf-8")
    assert "metrics after 0.5 h with 2 device(s)" in text
    assert "broker.publishes" in text


def test_trace_output_file(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    assert main(["--seed", "3", "trace", "--devices", "2", "--hours", "0.5",
                 "--json", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["devices"] == 2


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
    assert "# TYPE pogo_events_executed counter" in prom.read_text(
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
        (["top", "--devices", "4"], "fleet"),
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
    assert "B/handoff framed+compressed)" in capsys.readouterr().out


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


def test_top_runs_and_prints_health(capsys):
    assert main(["--seed", "5", "top", "--devices", "4", "--shards", "2",
                 "--hours", "0.25", "--in-process"]) == 0
    captured = capsys.readouterr()
    assert "health:" in captured.out
    assert "repro top" in captured.err  # the live view writes to stderr


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
