"""Command-line interface: run the reproduction's experiments directly.

    python -m repro <command> [options]

Commands
--------
tail-trace       Figure 3: one transmission's power trace (ASCII)
table3           Table 3: hourly energy per carrier, with/without Pogo
table4           Table 4: the full deployment study (slow; supports --scale)
anonytl          parse/compile/run an AnonyTL task file (Listing 1 format)
power-report     per-script joules, measured by leaving each script out
metrics          kernel metrics plane report after a simulated run
trace            message lifecycle tracing: per-hop latency, span tree,
                 per-message energy attribution (supports --json/--export)
chaos            deterministic fault injection + invariant verdict
                 (scenario presets, --report JSON, --inject-bug canary)
scenarios        generative city-scale workload presets (commuter surge,
                 stadium crowds, contact tracing, noise-map campaigns);
                 runs solo or sharded under the invariant monitor and
                 emits a canonical byte-deterministic report
fleet            one simulation partitioned across shard worker
                 processes; the merged report is byte-identical to the
                 single-shard run (--shards 1 is that run); --telemetry
                 exports the per-barrier time-series, --prom a
                 Prometheus snapshot, --live a progress view
top              live fleet progress: sim-time, events/s, per-shard lag
                 bars and handoff backlog refreshed at every barrier,
                 with a health verdict at the end

Every command accepts ``--seed`` and prints a deterministic report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import chaos as _chaos


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Pogo, a Middleware for Mobile Phone Sensing'",
    )
    parser.add_argument("--seed", type=int, default=7, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tail-trace", help="Figure 3 power trace (ASCII)")

    sub.add_parser("table3", help="Table 3 energy comparison")

    table4 = sub.add_parser("table4", help="Table 4 deployment study")
    table4.add_argument("--scale", type=float, default=1.0,
                        help="shrink session lengths proportionally")

    anonytl = sub.add_parser("anonytl", help="run an AnonyTL task file")
    anonytl.add_argument("task_file", help="path to task text (Listing 1 format)")
    anonytl.add_argument("--hours", type=float, default=12.0)

    power = sub.add_parser("power-report", help="per-script joules, measured")
    power.add_argument("--hours", type=float, default=6.0)

    metrics = sub.add_parser("metrics", help="kernel metrics plane report")
    metrics.add_argument("--devices", type=int, default=3)
    metrics.add_argument("--hours", type=float, default=1.0)
    metrics.add_argument("--all", action="store_true",
                         help="include zero-valued counters")
    metrics.add_argument("--json", action="store_true",
                         help="machine-readable snapshot instead of text")
    metrics.add_argument("--output", metavar="FILE",
                         help="write the report to FILE instead of stdout "
                              "('-' keeps stdout)")

    trace = sub.add_parser(
        "trace", help="message lifecycle tracing: per-hop latency & energy"
    )
    trace.add_argument("--devices", type=int, default=50)
    trace.add_argument("--hours", type=float, default=1.0)
    trace.add_argument("--json", action="store_true",
                       help="machine-readable summary instead of text")
    trace.add_argument("--export", metavar="PATH",
                       help="write the flight recorder's spans as JSONL")
    trace.add_argument("--output", metavar="FILE",
                       help="write the report to FILE instead of stdout "
                            "('-' keeps stdout)")

    chaos = sub.add_parser(
        "chaos", help="deterministic fault injection + invariant verdict"
    )
    chaos.add_argument("--scenario", default="mixed",
                       help="preset name (see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list the scenario presets and exit")
    chaos.add_argument("--minutes", type=float, default=None,
                       help="fault-window length (default: per scenario)")
    chaos.add_argument("--devices", type=int, default=3)
    chaos.add_argument("--report", metavar="PATH",
                       help="write the full report as canonical JSON")
    chaos.add_argument("--json", action="store_true",
                       help="print the canonical JSON report instead of text")
    chaos.add_argument("--inject-bug", choices=list(_chaos.BUGS), default=None,
                       help="deliberately break the middleware to prove the "
                            "monitor catches it")

    scenarios = sub.add_parser(
        "scenarios", help="generative city-scale workload presets"
    )
    scenarios.add_argument("--preset", default="commuter-surge",
                           help="preset name (see --list)")
    scenarios.add_argument("--list", action="store_true",
                           help="list the scenario presets and exit")
    scenarios.add_argument("--scale", type=float, default=1.0,
                           help="shrink devices/hours proportionally "
                                "(0.25 = quarter size)")
    scenarios.add_argument("--shards", type=int, default=1,
                           help="partition across this many shard workers "
                                "(the report is byte-identical to --shards 1)")
    scenarios.add_argument("--in-process", action="store_true",
                           help="run every shard in this process (no worker "
                                "processes; byte-identical results)")
    scenarios.add_argument("--report", metavar="PATH",
                           help="write the canonical report JSON to PATH")
    scenarios.add_argument("--json", action="store_true",
                           help="print the canonical JSON report instead of "
                                "text")
    scenarios.add_argument("--telemetry", metavar="FILE",
                           help="sample every shard at each barrier and write "
                                "the timeline as deterministic JSONL")
    scenarios.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                           help="experiment seed (also accepted before the "
                                "subcommand)")

    fleet = sub.add_parser(
        "fleet", help="partitioned multiprocess run with a merged report"
    )
    _add_fleet_args(fleet)
    fleet.add_argument("--report", metavar="PATH",
                       help="write the merged fleet report as canonical JSON")
    fleet.add_argument("--json", action="store_true",
                       help="print the merged report JSON instead of text")
    fleet.add_argument("--telemetry", metavar="FILE",
                       help="sample every shard at each barrier and write "
                            "the timeline as deterministic JSONL (same-seed "
                            "runs are byte-identical)")
    fleet.add_argument("--prom", metavar="FILE",
                       help="write a Prometheus text-exposition snapshot of "
                            "the final barrier (implies telemetry)")
    fleet.add_argument("--live", action="store_true",
                       help="show the repro-top live progress view on "
                            "stderr while the fleet runs")

    top = sub.add_parser(
        "top", help="live fleet progress view (refreshed at each barrier)"
    )
    _add_fleet_args(top)
    # ``top`` is ``fleet --live`` with no telemetry export.
    top.set_defaults(live=True, telemetry=None, prom=None)

    return parser


def _add_fleet_args(parser) -> None:
    """The fleet shape and physics, shared by ``fleet`` and ``top``."""
    parser.add_argument("--devices", type=int, default=500,
                        help="fleet size (default 500)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count (default 4; shard 0 runs in "
                             "this process, the rest in worker processes; "
                             "1 = the reference single-shard run)")
    parser.add_argument("--hours", type=float, default=1.0,
                        help="simulated hours (default 1.0)")
    parser.add_argument("--epoch-ms", type=float, default=None,
                        help="barrier window length; must not exceed the "
                             "minimum cross-shard latency (the default)")
    parser.add_argument("--latency-ms", type=float, default=80.0,
                        help="switchboard base stanza latency (default 80; "
                             "simulated physics — changing it changes the "
                             "schedule itself, identically for solo and "
                             "sharded runs; must be > 0)")
    parser.add_argument("--in-process", action="store_true",
                        help="run every shard in this process behind the "
                             "same barrier protocol (no worker processes; "
                             "byte-identical results)")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="experiment seed (also accepted before the "
                             "subcommand)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_battery_fleet(args, record_radio: bool):
    """Table 3's fleet — one collector, ``args.devices`` phones running
    the e-mail app, the battery monitor deployed to all of them — run for
    ``args.hours``.  With ``record_radio`` each phone's modem gets a
    :class:`~repro.analysis.energy.ModemStateLog` before the fleet starts.
    Returns ``(sim, devices, records)``."""
    from .analysis.energy import ModemStateLog
    from .apps import battery_monitor
    from .core.middleware import PogoSimulation

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    devices = [sim.add_device(with_email_app=True) for _ in range(args.devices)]
    records = [
        ModemStateLog(sim.kernel, d.phone.modem, d.phone.rail)
        for d in devices
        if record_radio
    ]
    sim.start()
    sim.assign(collector, devices)
    collector.node.deploy(battery_monitor.build_experiment(), [d.jid for d in devices])
    sim.run(hours=args.hours)
    return sim, devices, records


def cmd_tail_trace(args) -> int:
    from .analysis.plotting import render_series
    from .apps.energy_study import EMAIL_CHECK_AFTER_MS, figure3_trace
    from .device.radio import KPN

    samples, states = figure3_trace(args.seed)
    seg = states.segment_tail(KPN, after_ms=EMAIL_CHECK_AFTER_MS)
    if seg is None:
        print("no transmission found", file=sys.stderr)
        return 1
    print(
        f"tail b->d {seg.tail_duration_ms/1000:.1f} s, {seg.tail_energy_j:.2f} J "
        f"(transfer itself {seg.transfer_energy_j:.2f} J)\n"
    )
    print(
        render_series(
            samples,
            start_ms=seg.a_ramp_start_ms - 20_000.0,
            end_ms=seg.d_fach_end_ms + 20_000.0,
            height=8,
            annotations=[
                (seg.a_ramp_start_ms, "a"),
                (seg.b_transfer_end_ms, "b"),
                (seg.c_dch_end_ms, "c"),
                (seg.d_fach_end_ms, "d"),
            ],
        )
    )
    return 0


def cmd_table3(args) -> int:
    from .analysis.energy import percent_increase
    from .apps.energy_study import table3_hour
    from .device.radio import CARRIERS

    print(f"{'Carrier':<10} {'Without':>10} {'With':>10} {'Increase':>9}")
    for name, carrier in CARRIERS.items():
        base = table3_hour(carrier, False, args.seed).joules
        pogo = table3_hour(carrier, True, args.seed).joules
        print(
            f"{name:<10} {base:>8.2f} J {pogo:>8.2f} J "
            f"{percent_increase(base, pogo):>8.2f}%"
        )
    return 0


def cmd_table4(args) -> int:
    import dataclasses

    from .apps.deployment_study import DEFAULT_SESSIONS, format_table, run_session

    results = []
    for index, spec in enumerate(DEFAULT_SESSIONS):
        if args.scale < 0.999:
            spec = dataclasses.replace(spec, days=max(3, round(spec.days * args.scale)))
        result = run_session(spec, seed=args.seed + index)
        results.append(result)
        print(result.row(), flush=True)
    print()
    print(format_table(results))
    return 0


def cmd_anonytl(args) -> int:
    from .anonytl import REPORT_CHANNEL, deploy_task, parse_task
    from .core.middleware import PogoSimulation

    with open(args.task_file, "r", encoding="utf-8") as handle:
        text = handle.read()
    task = parse_task(text)
    print(f"task {task.task_id}: {len(task.reports)} report statement(s)")

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    device = sim.add_device(world_days=max(1, int(args.hours // 24) + 1), with_email_app=True)
    sim.start()
    context, accepted = deploy_task(collector.node, sim.admin, task)
    print(f"deployed to: {accepted}")
    sim.run(hours=args.hours)
    reports = context.scripts["collect"].namespace["reports"]
    print(f"{len(reports)} reports on '{REPORT_CHANNEL}' after {args.hours} h")
    return 0


def cmd_power_report(args) -> int:
    from functools import partial

    from .apps import battery_monitor, localization
    from .apps.energy_study import power_run
    from .core.power_model import joules_table, script_joules

    run = partial(power_run, seed=args.seed, hours=args.hours)
    experiments = [localization.build_experiment(), battery_monitor.build_experiment()]
    print(f"per-script joules after {args.hours} h, each script measured by leaving it out:")
    print(joules_table(*script_joules(run, experiments)))
    return 0


def cmd_metrics(args) -> int:
    from .analysis.export import write_text

    sim, _, _ = _run_battery_fleet(args, record_radio=False)
    if args.json:
        import json

        metrics = sim.kernel.metrics
        snapshot = metrics.snapshot() if args.all else metrics.nonzero()
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    else:
        text = (
            f"metrics after {args.hours} h with {args.devices} device(s) "
            f"(seed {args.seed}):\n"
            + sim.kernel.metrics.report(include_zero=args.all)
            + "\n"
        )
    write_text(args.output, text)
    return 0


def cmd_trace(args) -> int:
    """A seeded fleet run viewed through the message lifecycle tracer."""
    import json

    from .sim.spans import render_span_tree

    sim, devices, records = _run_battery_fleet(args, record_radio=True)
    spans = sim.kernel.spans

    # Fleet-wide radio episodes: who woke each modem (Figure 4's claim is
    # that Pogo wakes it for none of them) and the rail's modem joules.
    episodes = {"flush": 0, "external": 0}
    active = 0.0
    for record in records:
        for episode in record.episodes(sim.kernel.now):
            episodes[episode.trigger] += 1
            active += episode.joules
    total = sum(d.phone.rail.energy_of(d.phone.modem.name) for d in devices)

    from .analysis.export import write_text

    if args.export:
        from .analysis.export import spans_to_jsonl

        spans_to_jsonl(spans, args.export)

    if args.json:
        text = json.dumps(
            {
                "devices": args.devices,
                "hours": args.hours,
                "seed": args.seed,
                "spans": {
                    "recorded": spans.recorded,
                    "in_ring": len(spans),
                    "dropped": spans.dropped,
                },
                "hops": spans.latency_snapshot(),
                "energy": {
                    "active_j": round(active, 6),
                    "episodes": episodes,
                    "idle_j": round(total - active, 6),
                    "total_j": round(total, 6),
                },
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
        write_text(args.output, text)
        return 0

    lines = [
        f"trace of {args.hours} h with {args.devices} device(s) (seed {args.seed}): "
        f"{spans.recorded:,} spans recorded, {len(spans):,} in flight recorder, "
        f"{spans.dropped:,} dropped",
        "",
        "per-hop latency:",
        spans.latency_table(),
    ]

    # One complete lifecycle, as a causal tree: pick the last message that
    # reached the collector and is still fully inside the ring.
    delivered = spans.spans(hop="deliver.collector")
    if delivered:
        lines.append("")
        lines.append(render_span_tree(spans, delivered[-1].trace_id))

    lines.extend([
        "",
        "radio episodes (3G modem, fleet total):",
        f"  woken by a Pogo flush   {episodes['flush']:>12,}",
        f"  woken by anything else  {episodes['external']:>12,}",
        f"  radio-active total      {active:>12.2f} J",
        f"  idle baseline           {total - active:>12.2f} J",
        f"  modem total             {total:>12.2f} J",
    ])
    write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_chaos(args) -> int:
    if args.list:
        for name in sorted(_chaos.SCENARIOS):
            scenario = _chaos.SCENARIOS[name]
            print(f"{name:<16} {scenario.default_minutes:>4.0f} min  {scenario.description}")
        return 0
    if args.scenario not in _chaos.SCENARIOS:
        print(
            f"chaos: unknown scenario {args.scenario!r} "
            f"(choose from {sorted(_chaos.SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    report = _chaos.run_scenario(
        args.scenario,
        seed=args.seed,
        minutes=args.minutes,
        devices=args.devices,
        inject_bug=args.inject_bug,
    )
    if args.report:
        from .analysis.export import write_text

        write_text(args.report, _chaos.report_json(report))
    if args.json:
        print(_chaos.report_json(report), end="")
    else:
        print(_chaos.render_report(report))
    return 1 if report["violation_count"] else 0


def cmd_scenarios(args) -> int:
    import dataclasses

    from . import scenarios as _scenarios

    if args.list:
        for name in _scenarios.preset_names():
            spec = _scenarios.build_preset(name)
            tag = " (long)" if name in _scenarios.LONG_PRESETS else ""
            print(
                f"{name:<20} {spec.devices:>4} devices {spec.hours:>6.1f} h  "
                f"{len(spec.surges)} surge(s), "
                f"{len(spec.campaigns)} campaign(s){tag}"
            )
        return 0
    try:
        spec = _scenarios.build_preset(args.preset, scale=args.scale)
    except KeyError:
        print(
            f"scenarios: unknown preset {args.preset!r} "
            f"(choose from {_scenarios.preset_names()})",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"scenarios: {exc}", file=sys.stderr)
        return 2
    if args.seed != spec.seed:
        spec = dataclasses.replace(spec, seed=args.seed)
        spec.validate()
    result = _fleet_call(
        "scenarios", None, _scenarios.run_scenario_spec,
        spec,
        shards=args.shards,
        processes=not args.in_process,
        telemetry=bool(args.telemetry),
    )
    if result is None:
        return 1
    from .analysis.export import write_text

    if args.telemetry:
        from .obs.timeline import timeline_to_jsonl

        write_text(args.telemetry, timeline_to_jsonl(result.fleet.timeline))
    if args.report:
        write_text(args.report, result.report_json)
    if args.json:
        print(result.report_json, end="")
    else:
        print(_scenarios.render_report(result.report))
        evicted = _evicted_line(result.fleet.metrics)
        if evicted:
            print(evicted)
        if args.telemetry:
            print(f"  telemetry timeline -> {args.telemetry}")
        if args.report:
            print(f"  canonical report -> {args.report}")
    return 1 if result.report["invariants"]["violation_count"] else 0


def _crash_line(exc) -> str:
    """One line a human can act on, instead of a pasted traceback."""
    shard = exc.shard_id if exc.shard_id is not None else "?"
    where = ""
    if exc.barriers is not None:
        sim_ms = exc.barrier_ms if exc.barrier_ms is not None else 0.0
        where = f" at epoch {exc.barriers:,} (t={sim_ms:,.0f} ms sim)"
    cause = exc.cause or str(exc).splitlines()[0]
    return f"fleet: worker {shard} crashed{where}: {cause}"


def _fleet_call(label: str, live, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or ``None`` after printing the one-line
    diagnosis of a fleet failure (the caller exits 1).  ``live``, if
    any, is closed either way."""
    from .fleet import FleetError, WorkerCrashed
    from .fleet.partition import PartitionError

    try:
        return fn(*args, **kwargs)
    except WorkerCrashed as exc:
        print(_crash_line(exc), file=sys.stderr)
    except (FleetError, PartitionError) as exc:
        print(f"{label}: {exc}", file=sys.stderr)
    finally:
        if live is not None:
            live.close()
    return None


def _evicted_line(metrics) -> Optional[str]:
    """``spans: N kept, M evicted (…)`` when any shard's flight recorder
    overflowed, else ``None``.

    Every shard has a ring of its own, so one shard can evict spans that
    the same fleet over more shards keeps: the first place a sharded
    run's trace stops matching the solo run's, and nothing else says so.
    """
    from .sim.spans import DEFAULT_MAX_SPANS

    dropped = int(metrics.get("spans.dropped", 0))
    if not dropped:
        return None
    kept = int(metrics["spans.recorded"]) - dropped
    return (
        f"  spans: {kept:,} kept, {dropped:,} evicted "
        f"(ring of {DEFAULT_MAX_SPANS:,} per shard)"
    )


def cmd_fleet(args) -> int:
    """``fleet``, and ``top``: the same run with the live view on and
    only the health verdict printed."""
    from .fleet import fleet_spec, run_fleet
    from .sim.kernel import HOUR

    try:
        spec = fleet_spec(
            args.devices, seed=args.seed, latency_ms=args.latency_ms
        )
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 1
    live = None
    if args.live:
        from .obs.live import LiveView

        live = LiveView(args.hours * HOUR, args.devices, args.shards)
    result = _fleet_call(
        "fleet", live, run_fleet,
        spec,
        args.shards,
        duration_ms=args.hours * HOUR,
        epoch_ms=args.epoch_ms,
        processes=not args.in_process,
        telemetry=bool(args.telemetry or args.prom),
        observer=live,
    )
    if result is None:
        return 1
    if args.command == "top":
        from .obs.timeline import render_health

        print(
            f"{result.devices} devices / {result.shards} shard(s): "
            f"{result.events:,} events, {result.barriers:,} barriers, "
            f"{result.handoffs:,} handoffs in {result.wall_s:.2f} s wall"
        )
        print(render_health(result.health))
        return 0
    from .analysis.export import write_text

    if args.telemetry:
        from .obs.timeline import timeline_to_jsonl

        write_text(args.telemetry, timeline_to_jsonl(result.timeline))
    if args.prom:
        from .obs.prometheus import timeline_to_prometheus

        write_text(args.prom, timeline_to_prometheus(result.timeline))
    if args.report:
        write_text(args.report, result.report_json)
    if args.json:
        print(result.report_json, end="")
        return 0
    in_workers = 0 if args.in_process else result.shards - 1  # not shard 0
    print(
        f"{result.devices} devices across {result.shards} shard(s) "
        f"({in_workers} in worker processes), "
        f"{args.hours} h simulated (seed {args.seed}):"
    )
    print(
        f"  {result.events:,} events in {result.wall_s:.2f} s wall "
        f"({result.events / result.wall_s:,.0f} ev/s aggregate)"
    )
    print(
        f"  {result.barriers:,} barriers at epoch {result.epoch_ms:.0f} ms, "
        f"{result.handoffs:,} cross-shard handoffs"
    )
    if result.handoff_bytes:
        # Empty frames still cross the pipes: bytes without handoffs
        # have no per-handoff figure.
        per_handoff = (
            f" ({result.handoff_bytes / result.handoffs:,.0f} B/handoff "
            f"pickled)" if result.handoffs else ""
        )
        print(
            f"  {result.handoff_bytes:,} handoff wire bytes on the worker "
            f"pipes{per_handoff}"
        )
    server = result.report["server"]
    print(
        f"  {server['stanzas_routed']:,} stanzas routed, "
        f"{server['stanzas_lost']:,} lost, "
        f"{server['stanzas_stored_offline']:,} stored offline"
    )
    evicted = _evicted_line(result.metrics)
    if evicted:
        print(evicted)
    if result.health is not None:
        from .obs.timeline import render_health

        print("  " + render_health(result.health).replace("\n", "\n  "))
    if args.telemetry:
        print(f"  telemetry timeline -> {args.telemetry}")
    if args.prom:
        print(f"  prometheus snapshot -> {args.prom}")
    if args.report:
        print(f"  merged report -> {args.report}")
    return 0


_COMMANDS = {
    "tail-trace": cmd_tail_trace,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "anonytl": cmd_anonytl,
    "power-report": cmd_power_report,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "chaos": cmd_chaos,
    "scenarios": cmd_scenarios,
    "fleet": cmd_fleet,
    "top": cmd_fleet,
}


def _bad_length(args) -> Optional[str]:
    """What is wrong with the run's length, scale or size, if anything:
    the simulation would raise on it, or (``table4 --scale``, a negative
    ``--devices``) quietly run something else.  A fault window
    (``chaos --minutes``) and a fleet may be empty; a bug injection may
    not, since the bug needs a victim."""
    for name in ("hours", "scale"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            return f"--{name} must be positive, got {value:g}"
    minutes = getattr(args, "minutes", None)
    if minutes is not None and minutes < 0:
        return f"--minutes must not be negative, got {minutes:g}"
    devices = getattr(args, "devices", None)
    if devices is not None and devices < 0:
        return f"--devices must not be negative, got {devices}"
    if devices == 0 and getattr(args, "inject_bug", None):
        return "--inject-bug needs a device to break, got --devices 0"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    problem = _bad_length(args)
    if problem:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
