"""Command-line interface: run the reproduction's experiments directly.

    python -m repro <command> [options]

Commands
--------
quickstart       battery telemetry across a small simulated fleet
localization     the Section 4.1 app for N days on one phone
roguefinder      Listing 2's geofenced scanning for one day
tail-trace       Figure 3: one transmission's power trace (ASCII)
table3           Table 3: hourly energy per carrier, with/without Pogo
table4           Table 4: the full deployment study (slow; supports --scale)
anonytl          parse/compile/run an AnonyTL task file (Listing 1 format)
power-report     per-script resource estimates after a simulated run
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
from .sim.kernel import MINUTE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Pogo, a Middleware for Mobile Phone Sensing'",
    )
    parser.add_argument("--seed", type=int, default=7, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser("quickstart", help="battery telemetry quickstart")
    quickstart.add_argument("--devices", type=int, default=3)
    quickstart.add_argument("--hours", type=float, default=1.0)

    localization = sub.add_parser("localization", help="the Section 4.1 application")
    localization.add_argument("--days", type=int, default=2)

    roguefinder = sub.add_parser("roguefinder", help="Listing 2's geofenced scanning")
    roguefinder.add_argument("--hours", type=float, default=24.0)

    sub.add_parser("tail-trace", help="Figure 3 power trace (ASCII)")

    sub.add_parser("table3", help="Table 3 energy comparison")

    table4 = sub.add_parser("table4", help="Table 4 deployment study")
    table4.add_argument("--scale", type=float, default=1.0,
                        help="shrink session lengths proportionally")

    anonytl = sub.add_parser("anonytl", help="run an AnonyTL task file")
    anonytl.add_argument("task_file", help="path to task text (Listing 1 format)")
    anonytl.add_argument("--hours", type=float, default=12.0)

    power = sub.add_parser("power-report", help="per-script power estimates")
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
    parser.add_argument("--latency-ms", type=float, default=None,
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


def _run_battery_fleet(args):
    """Table 3's fleet — one collector, ``args.devices`` phones running
    the e-mail app, the battery monitor deployed to all of them — run for
    ``args.hours``.  Returns ``(sim, devices, context)``."""
    from .apps import battery_monitor
    from .core.middleware import PogoSimulation

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    devices = [sim.add_device(with_email_app=True) for _ in range(args.devices)]
    sim.start()
    sim.assign(collector, devices)
    context = collector.node.deploy(
        battery_monitor.build_experiment(), [d.jid for d in devices]
    )
    sim.run(hours=args.hours)
    return sim, devices, context


def cmd_quickstart(args) -> int:
    _, devices, context = _run_battery_fleet(args)
    readings = context.scripts["collect"].namespace["readings"]
    print(f"{len(readings)} readings from {args.devices} devices in {args.hours} h")
    for device in devices:
        print(
            f"  {device.jid}: {device.node.payloads_sent} payloads / "
            f"{device.node.batches_sent} batches, {device.phone.energy_joules:.1f} J"
        )
    return 0


def cmd_localization(args) -> int:
    from .apps import localization
    from .core.middleware import PogoSimulation
    from .core.services import GeolocationBridge
    from .world.geolocation import GeolocationService

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    device = sim.add_device(world_days=args.days, with_email_app=True)
    service = GeolocationService()
    for group in device.user_world.places.values():
        for place in group:
            service.register_all(place.access_points)
    collector.node.add_service(GeolocationBridge(service))
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(localization.build_experiment(), [device.jid])
    sim.run(days=args.days)
    database = context.scripts["collect"].namespace["database"]
    print(f"{len(database)} dwell sessions over {args.days} days:")
    for cluster in database:
        hours = cluster["entry"] / 3_600_000.0
        print(
            f"  day {int(hours // 24)} {hours % 24:5.2f}h  "
            f"{cluster['samples']:4d} scans  place={'yes' if cluster['place'] else 'no'}"
        )
    return 0


def cmd_roguefinder(args) -> int:
    from .apps import roguefinder
    from .core.middleware import PogoSimulation
    from .world.geometry import to_latlon

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    device = sim.add_device(world_days=max(1, int(args.hours // 24) + 1), with_email_app=True)
    office = device.user_world.places["office"][0]
    polygon = [
        to_latlon(office.center.offset(dx, dy))
        for dx, dy in ((-150, -150), (150, -150), (150, 150), (-150, 150))
    ]
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(roguefinder.build_experiment(polygon), [device.jid])
    sim.run(hours=args.hours)
    scans = context.scripts["collect"].namespace["scans"]
    sensor = device.node.sensor_manager.sensors["wifi-scan"]
    print(f"{len(scans)} geofenced scans reported in {args.hours} h")
    print(f"scanner performed {sensor.completed_scans} scans (duty-cycled by location)")
    return 0


def cmd_tail_trace(args) -> int:
    from .analysis.energy import segment_tail_from_state_trace
    from .analysis.plotting import render_series
    from .core.middleware import PogoSimulation
    from .device.power import PowerMeter
    from .device.radio import KPN

    sim = PogoSimulation(seed=args.seed, carrier=KPN, record_trace=True)
    device = sim.add_device(with_email_app=True, simulate_paging=True)
    meter = PowerMeter(sim.kernel, device.phone.rail, interval_ms=50.0)
    meter.start()
    sim.start()
    sim.run(duration_ms=7 * MINUTE)
    seg = segment_tail_from_state_trace(
        sim.trace, device.phone.modem.name, KPN, after_ms=4 * MINUTE
    )
    if seg is None:
        print("no transmission found", file=sys.stderr)
        return 1
    print(
        f"tail b->d {seg.tail_duration_ms/1000:.1f} s, {seg.tail_energy_j:.2f} J "
        f"(transfer itself {seg.transfer_energy_j:.2f} J)\n"
    )
    print(
        render_series(
            meter.samples,
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
    from .apps import battery_monitor
    from .core.middleware import PogoSimulation
    from .device.radio import CARRIERS

    def run_hour(carrier, with_pogo):
        sim = PogoSimulation(seed=args.seed, carrier=carrier)
        collector = sim.add_collector("cli")
        device = sim.add_device(with_email_app=True)
        sim.start()
        sim.assign(collector, [device])
        if with_pogo:
            collector.node.deploy(battery_monitor.build_experiment(), [device.jid])
        sim.run(duration_ms=10 * MINUTE)
        device.phone.rail.reset_energy()
        sim.run(hours=1)
        return device.phone.rail.energy_joules

    print(f"{'Carrier':<10} {'Without':>10} {'With':>10} {'Increase':>9}")
    for name, carrier in CARRIERS.items():
        base = run_hour(carrier, False)
        pogo = run_hour(carrier, True)
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
    from .apps import battery_monitor, localization
    from .core.middleware import PogoSimulation
    from .core.power_model import ScriptPowerModel
    from .core.services import GeolocationBridge
    from .world.geolocation import GeolocationService

    sim = PogoSimulation(seed=args.seed)
    collector = sim.add_collector("cli")
    device = sim.add_device(world_days=1, with_email_app=True)
    service = GeolocationService()
    for group in device.user_world.places.values():
        for place in group:
            service.register_all(place.access_points)
    collector.node.add_service(GeolocationBridge(service))
    sim.start()
    sim.assign(collector, [device])
    collector.node.deploy(localization.build_experiment(), [device.jid])
    collector.node.deploy(battery_monitor.build_experiment(), [device.jid])
    sim.run(hours=args.hours)
    print(ScriptPowerModel(device.node).report())
    return 0


def cmd_metrics(args) -> int:
    from .analysis.export import write_text

    sim, _, _ = _run_battery_fleet(args)
    if args.json:
        import json

        snapshot = sim.kernel.metrics.snapshot()
        if not args.all:
            snapshot = {
                name: value
                for name, value in snapshot.items()
                if not (isinstance(value, (int, float)) and value == 0)
                and not (isinstance(value, dict) and not value.get("count"))
            }
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

    sim, devices, _ = _run_battery_fleet(args)
    spans = sim.kernel.spans
    ledgers = [d.node.energy for d in devices]
    for ledger in ledgers:
        ledger.finalize()

    # Fleet-wide energy attribution totals (the Table 3 accounting, summed
    # per message instead of per hour).
    attributed = sum(ledger.attributed_j for ledger in ledgers)
    control = sum(ledger.control_j for ledger in ledgers)
    unattributed = sum(ledger.unattributed_j for ledger in ledgers)
    idle = sum(ledger.idle_j for ledger in ledgers)
    active = sum(ledger.active_j for ledger in ledgers)
    messages = sum(ledger.messages_attributed for ledger in ledgers)
    piggybacked = sum(ledger.piggybacked_messages for ledger in ledgers)
    delta = (
        abs((attributed + control + unattributed) - active) / active if active else 0.0
    )

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
                    "attributed_j": round(attributed, 6),
                    "control_j": round(control, 6),
                    "unattributed_j": round(unattributed, 6),
                    "idle_j": round(idle, 6),
                    "active_j": round(active, 6),
                    "total_j": round(active + idle, 6),
                    "messages_attributed": messages,
                    "piggybacked_messages": piggybacked,
                    "reconciliation_delta": round(delta, 9),
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
        "per-message energy attribution (3G modem, fleet total):",
        f"  messages attributed     {messages:>12,} ({piggybacked:,} piggybacked)",
        f"  attributed to messages  {attributed:>12.2f} J",
        f"  control/ack overhead    {control:>12.2f} J",
        f"  other apps' radio use   {unattributed:>12.2f} J",
        f"  radio-active total      {active:>12.2f} J",
        f"  idle baseline           {idle:>12.2f} J",
        f"  modem total             {active + idle:>12.2f} J",
        f"  reconciliation delta    {delta * 100:>11.4f} %  "
        f"(attributed+control+other vs active)",
    ])
    write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_chaos(args) -> int:
    if args.list:
        for name in sorted(_chaos.SCENARIOS):
            scenario = _chaos.SCENARIOS[name]
            print(f"{name:<16} {scenario.default_minutes:>4.0f} min  {scenario.description}")
        return 0
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
        processes=(False if args.in_process else None),
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
    from .fleet import run_fleet

    live = None
    telemetry = bool(args.telemetry or args.prom)
    if args.live:
        from .obs.live import LiveView
        from .sim.kernel import HOUR

        live = LiveView(args.hours * HOUR, args.devices, args.shards)
    result = _fleet_call(
        "fleet", live, run_fleet,
        args.devices,
        args.shards,
        seed=args.seed,
        hours=args.hours,
        epoch_ms=args.epoch_ms,
        latency_ms=args.latency_ms,
        processes=not args.in_process,
        telemetry=telemetry,
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
            f"framed+compressed)" if result.handoffs else ""
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
    "quickstart": cmd_quickstart,
    "localization": cmd_localization,
    "roguefinder": cmd_roguefinder,
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


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
