"""Fleet-scale benchmark harness: canonical, machine-comparable numbers.

``python -m repro bench --json`` measures the kernel hot path on the
Table 3 workload (battery telemetry, one collector) at several fleet
sizes and emits ``BENCH_kernel.json`` — one artifact that a CI job, a
future PR, or a laptop run can diff against the committed copy.

Two kinds of fields live in the artifact, and they are compared
differently:

* **Structural fields** — workload, seed, per-fleet *event counts* and
  the determinism hashes (SHA-256 of the seeded trace export and chaos
  reports).  These are machine-independent: regenerating the artifact
  anywhere must reproduce them byte-for-byte, and CI fails when they
  drift.
* **Timing fields** — wall seconds, events/s, simulated-vs-wall
  speedup.  These depend on the machine and are recorded for trend
  tracking, never gated on.

The measured configuration is the production shape (``spans=False``,
``metrics=False``): the point of the no-op fast lanes is that the
instrumentation planes cost nothing when off, so the benchmark measures
the middleware, not the tracer.  ``instrumented=True`` rows are
available for comparison via :func:`run_fleet`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

#: Artifact schema identifier; bump when the layout changes.
SCHEMA = "bench_kernel/1"

#: Fleet sizes measured by default (the ROADMAP's 5 -> 500 scaling axis,
#: extended with the partitioned 5000x4 row from the fleet coordinator).
#: An entry is either ``devices`` (single process) or ``(devices, shards)``.
DEFAULT_FLEETS = (5, 50, 500, (5000, 4))

#: The wall-clock-gated large row: measured only when the 5000-device row
#: projects it to finish inside LARGE_BUDGET_S (or REPRO_BENCH_LARGE=1
#: forces it) — a laptop should never stall on `repro bench`.
LARGE_FLEET = (50_000, 8)
LARGE_BUDGET_S = 300.0

#: Benchmark seed.  Distinct from the determinism seed (7) so the two
#: planes of the artifact cannot be confused.
BENCH_SEED = 9


def _build_fleet(seed: int, devices: int, spans: bool, metrics: bool):
    from .apps import battery_monitor
    from .core.middleware import PogoSimulation

    sim = PogoSimulation(seed=seed, spans=spans, metrics=metrics)
    collector = sim.add_collector("bench")
    fleet = [sim.add_device(with_email_app=True) for _ in range(devices)]
    sim.start()
    sim.assign(collector, fleet)
    collector.node.deploy(
        battery_monitor.build_experiment(), [d.jid for d in fleet]
    )
    return sim


def run_fleet(
    devices: int,
    seed: int = BENCH_SEED,
    hours: float = 1.0,
    repeats: int = 1,
    spans: bool = False,
    metrics: bool = False,
    shards: int = 1,
) -> Dict[str, Any]:
    """Measure one fleet size; returns a result row.

    ``wall_s`` is the best (minimum) of ``repeats`` full builds+runs —
    the standard robust estimator for a noisy-neighbour CI box; the mean
    rides along for context.  Event counts are asserted identical across
    repeats: a benchmark that perturbs the simulation is lying.

    With ``shards > 1`` the run goes through the fleet coordinator
    (spawned worker processes, epoch-barrier handoff); ``events`` is then
    the merged fleet total and ``events_per_s`` the aggregate rate.
    """
    walls: List[float] = []
    crits: List[float] = []
    events: Optional[int] = None
    fleet_stats: Optional[Dict[str, Any]] = None
    sim_ms = hours * 3_600_000.0
    for _ in range(max(1, repeats)):
        if shards > 1:
            from .fleet import run_fleet as run_partitioned

            t0 = time.perf_counter()
            result = run_partitioned(
                devices, shards, seed=seed, hours=hours,
                collector="bench", spans=spans, metrics=metrics,
            )
            walls.append(time.perf_counter() - t0)
            crits.append(result.critical_path_s)
            executed = result.events
            # Barrier and handoff counts are structural (same on every
            # machine, gated like event counts); wire bytes depend on
            # the zlib build and stay timing-plane.
            stats = {
                "barriers": result.barriers,
                "handoffs": result.handoffs,
                "handoff_bytes": result.handoff_bytes,
            }
            if fleet_stats is None:
                fleet_stats = stats
            elif (fleet_stats["barriers"], fleet_stats["handoffs"]) != (
                stats["barriers"], stats["handoffs"]
            ):
                raise AssertionError(
                    f"non-deterministic benchmark: barrier/handoff counts "
                    f"drifted across repeats ({fleet_stats} vs {stats})"
                )
        else:
            t0 = time.perf_counter()
            sim = _build_fleet(seed, devices, spans, metrics)
            sim.run(hours=hours)
            walls.append(time.perf_counter() - t0)
            executed = sim.kernel.events_executed
        if events is None:
            events = executed
        elif events != executed:
            raise AssertionError(
                f"non-deterministic benchmark: {events} vs {executed} events"
            )
    best = min(walls)
    row = {
        "devices": devices,
        "shards": shards,
        "events": events,
        "wall_s": round(best, 6),
        "wall_s_mean": round(sum(walls) / len(walls), 6),
        "events_per_s": round(events / best, 1),
        "speedup": round((sim_ms / 1000.0) / best, 1),
    }
    if crits:
        # The busiest worker's advance time: with one core per worker the
        # fleet finishes in this wall time, so events/critical-path is the
        # aggregate rate the shard layout supports (``events_per_s`` above
        # is what *this* machine's core count delivered).
        crit = min(crits)
        row["critical_path_s"] = round(crit, 6)
        row["events_per_s_parallel"] = parallel_rate(executed, crit)
    if fleet_stats is not None:
        row.update(fleet_stats)
    return row


#: Below this critical path (in seconds) a parallel rate is noise, not a
#: measurement — ``process_time`` resolution on a near-empty window.
MIN_CRITICAL_PATH_S = 1e-6


def parallel_rate(events: int, critical_path_s: float) -> Optional[float]:
    """``events / critical_path_s``, or ``None`` when the denominator is
    zero or too small to mean anything.

    A degenerate run (zero devices, a sub-resolution window) used to
    divide by ~0 and report an absurd or infinite rate; ``null`` in the
    JSON artifact is honest and keeps downstream tooling from plotting
    garbage.
    """
    if critical_path_s is None or critical_path_s < MIN_CRITICAL_PATH_S:
        return None
    return round(events / critical_path_s, 1)


# ---------------------------------------------------------------------------
# Determinism plane
# ---------------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def determinism_hashes(seed: int = 7) -> Dict[str, str]:
    """SHA-256 of the seeded trace export and chaos reports.

    These are the same artifacts pinned byte-for-byte in
    ``tests/golden/``; hashing them into the benchmark artifact makes
    "the fast kernel changed behaviour" visible in the same diff as
    "the fast kernel changed speed".
    """
    from . import chaos as _chaos

    hashes: Dict[str, str] = {}
    for name, scenario in (("chaos_flaky3g", "flaky-3g"), ("chaos_reorder", "reorder-storm")):
        report = _chaos.run_scenario(scenario, seed=seed)
        hashes[f"{name}_seed{seed}"] = _sha256(_chaos.report_json(report).encode("utf-8"))

    from .analysis.export import spans_to_jsonl
    from .apps import battery_monitor
    from .core.middleware import PogoSimulation

    sim = PogoSimulation(seed=seed)
    collector = sim.add_collector("cli")
    fleet = [sim.add_device(with_email_app=True) for _ in range(3)]
    sim.start()
    sim.assign(collector, fleet)
    collector.node.deploy(battery_monitor.build_experiment(), [d.jid for d in fleet])
    sim.run(hours=0.5)
    handle, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    try:
        spans_to_jsonl(sim.kernel.spans, path)
        with open(path, "rb") as fh:
            hashes[f"trace_seed{seed}_d3_h05"] = _sha256(fh.read())
    finally:
        os.unlink(path)
    return hashes


#: Scenario-engine presets baked into the artifact's structural plane,
#: run at SCENARIO_SCALE so the benchmark stays laptop-fast while still
#: pinning the generative-workload event counts and report bytes.
SCENARIO_ROWS = ("commuter-surge", "contact-tracing")
SCENARIO_SCALE = 0.25


def run_scenario_rows(
    names: Sequence[str] = SCENARIO_ROWS,
    scale: float = SCENARIO_SCALE,
    progress=None,
) -> List[Dict[str, Any]]:
    """Run each scenario preset solo and distill it to a structural row.

    ``report_sha256`` hashes the canonical report — the same bytes the
    golden-gated conformance suite pins — so a behaviour change in the
    scenario engine surfaces in the benchmark diff, not just in CI.
    ``wall_s`` is timing-plane only and excluded from the structural
    view.
    """
    from .scenarios import build_preset, run_scenario_spec, report_json

    rows: List[Dict[str, Any]] = []
    for name in names:
        if progress is not None:
            progress(f"scenario {name} @ x{scale} ...")
        spec = build_preset(name, scale=scale)
        t0 = time.perf_counter()
        result = run_scenario_spec(spec)
        wall = time.perf_counter() - t0
        report = result.report
        rows.append(
            {
                "scenario": name,
                "devices": spec.devices,
                "hours": spec.hours,
                "events": report["fleet"]["events_executed"],
                "violations": report["invariants"]["violation_count"],
                "report_sha256": _sha256(
                    report_json(report).encode("utf-8")
                ),
                "wall_s": round(wall, 6),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Artifact
# ---------------------------------------------------------------------------

#: Fields CI gates on.  Everything else (timings, environment) may vary
#: between machines and runs.
STRUCTURAL_FIELDS = ("schema", "workload", "seed", "hours", "config", "determinism")


def fleet_key(devices: int, shards: int) -> str:
    """The row's identity in ``events_by_fleet``: ``"500"`` for a single
    process, ``"5000x4"`` for a partitioned row — devices alone would
    collide if the same size is measured at two shard counts."""
    return str(devices) if shards <= 1 else f"{devices}x{shards}"


def run_benchmark(
    fleets: Sequence[Any] = DEFAULT_FLEETS,
    seed: int = BENCH_SEED,
    hours: float = 1.0,
    repeats: int = 3,
    progress=None,
    large: Optional[bool] = None,
) -> Dict[str, Any]:
    """The full benchmark: fleet scaling rows + determinism hashes.

    ``fleets`` entries are ``devices`` or ``(devices, shards)``.  The
    :data:`LARGE_FLEET` row is appended when ``large`` is True, skipped
    when False, and wall-clock-gated when None: it runs only if the
    largest measured row projects it to finish inside
    :data:`LARGE_BUDGET_S` (linear extrapolation on devices/shards).
    """
    import platform

    rows = []
    for entry in fleets:
        devices, shards = entry if isinstance(entry, tuple) else (entry, 1)
        # The big fleets take seconds per run; one repeat is plenty there.
        n = repeats if devices <= 50 else 1
        if progress is not None:
            progress(f"fleet {fleet_key(devices, shards):>7} x{n} ...")
        rows.append(
            run_fleet(devices, seed=seed, hours=hours, repeats=n, shards=shards)
        )
    if large is None and rows:
        anchor = max(rows, key=lambda row: row["devices"])
        scale = (LARGE_FLEET[0] / anchor["devices"]) * (
            max(1, anchor["shards"]) / LARGE_FLEET[1]
        )
        large = anchor["wall_s"] * scale <= LARGE_BUDGET_S
    if large:
        devices, shards = LARGE_FLEET
        if progress is not None:
            progress(f"fleet {fleet_key(devices, shards):>7} x1 ...")
        row = run_fleet(devices, seed=seed, hours=hours, shards=shards)
        # Wall-clock-gated rows are trend data, not part of the
        # machine-independent structural plane — whether they ran at all
        # depends on how fast the box is.
        row["gated"] = True
        rows.append(row)
    scenario_rows = run_scenario_rows(progress=progress)
    if progress is not None:
        progress("determinism hashes ...")
    hashes = determinism_hashes()
    events_by_fleet = {
        fleet_key(row["devices"], row["shards"]): row["events"]
        for row in rows
        if not row.get("gated")
    }
    return {
        "schema": SCHEMA,
        "workload": "battery_monitor fleet hour (Table 3 workload)",
        "seed": seed,
        "hours": hours,
        "config": {"spans": False, "metrics": False},
        "fleets": rows,
        "scenarios": scenario_rows,
        "determinism": {"events_by_fleet": events_by_fleet, **hashes},
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
    }


def canonical_dumps(report: Dict[str, Any]) -> str:
    """The artifact's on-disk form: sorted keys, two-space indent, LF."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def structural_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The machine-independent subset CI diffs against the committed copy."""
    view = {key: report[key] for key in STRUCTURAL_FIELDS if key in report}
    # ``handoff_bytes`` stays out of the structural view on purpose: the
    # frame bytes depend on the zlib build (e.g. zlib-ng compresses
    # differently), so only the counts are machine-independent.
    view["fleets"] = [
        {
            "devices": row["devices"],
            "shards": row.get("shards", 1),
            "events": row["events"],
            **{
                key: row[key]
                for key in ("barriers", "handoffs")
                if key in row
            },
        }
        for row in report.get("fleets", ())
        if not row.get("gated")
    ]
    view["scenarios"] = [
        {key: value for key, value in row.items() if key != "wall_s"}
        for row in report.get("scenarios", ())
    ]
    return view


def render_report(report: Dict[str, Any]) -> str:
    lines = [
        f"kernel benchmark — {report['workload']} (seed {report['seed']})",
        f"config: spans={report['config']['spans']} metrics={report['config']['metrics']}",
        "",
        f"{'devices':>8} {'shards':>7} {'events':>12} {'wall (s)':>10} "
        f"{'events/s':>12} {'speedup':>12}",
    ]
    for row in report["fleets"]:
        notes = []
        if "events_per_s_parallel" in row:
            rate = row["events_per_s_parallel"]
            notes.append(
                f"parallel {rate:,.0f} ev/s" if rate is not None
                else "parallel rate n/a (critical path ~0)"
            )
        if "barriers" in row:
            notes.append(
                f"{row['barriers']:,} barriers / {row['handoffs']:,} handoffs"
            )
        if "handoff_bytes" in row:
            notes.append(f"{row['handoff_bytes']:,} B wire")
        if row.get("gated"):
            notes.append("wall-clock gated")
        lines.append(
            f"{row['devices']:>8} {row.get('shards', 1):>7} "
            f"{row['events']:>12,} {row['wall_s']:>10.3f} "
            f"{row['events_per_s']:>12,.0f} {row['speedup']:>11,.0f}x"
            + (f"  ({', '.join(notes)})" if notes else "")
        )
    if report.get("scenarios"):
        lines.append("")
        lines.append("scenario presets (structural rows, solo run):")
        for row in report["scenarios"]:
            lines.append(
                f"  {row['scenario']:<18} {row['devices']:>4} devices "
                f"{row['hours']:>6.2f} h {row['events']:>10,} events "
                f"{row['violations']} violations "
                f"sha256:{row['report_sha256'][:16]}..."
            )
    lines.append("")
    lines.append("determinism (must be identical on every machine):")
    for name, value in sorted(report["determinism"].items()):
        if name == "events_by_fleet":
            continue
        lines.append(f"  {name:<24} sha256:{value[:16]}...")
    return "\n".join(lines)


def parse_fleets(value: Any, source: str = "--fleets") -> List[Any]:
    """Parse a comma-separated fleet-size list, rejecting junk loudly.

    A token is ``N`` (single process) or ``NxK`` (N devices partitioned
    across K shard workers), e.g. ``"5,500,5000x4"``.  ``source`` names
    where the value came from (flag or env var) so the error tells the
    user which knob to fix.
    """
    fleets: List[Any] = []
    for part in str(value).split(","):
        part = part.strip()
        if not part:
            continue
        size_text, sep, shard_text = part.partition("x")
        try:
            size = int(size_text)
            shards = int(shard_text) if sep else 1
        except ValueError:
            raise ValueError(
                f"{source}: {part!r} is not a fleet size (want N or NxK)"
            ) from None
        if size <= 0 or shards <= 0:
            raise ValueError(f"{source}: fleet sizes must be positive, got {part!r}")
        fleets.append((size, shards) if sep else size)
    if not fleets:
        raise ValueError(f"{source}: no fleet sizes found in {value!r}")
    return fleets


def resolve_fleets(flag_value: Optional[str], env=None) -> List[Any]:
    """Fleet sizes from ``--fleets``, else the env vars, else the default.

    ``REPRO_BENCH_FLEETS`` (list) is consulted before the older singular
    ``REPRO_BENCH_FLEET``.  Malformed values raise instead of being
    silently ignored.
    """
    if flag_value is not None:
        return parse_fleets(flag_value, "--fleets")
    environ = os.environ if env is None else env
    for var in ("REPRO_BENCH_FLEETS", "REPRO_BENCH_FLEET"):
        raw = environ.get(var)
        if raw is not None and raw.strip():
            return parse_fleets(raw, var)
    return list(DEFAULT_FLEETS)


def main(args) -> int:
    """``python -m repro bench`` entry point (wired in cli.py)."""
    try:
        fleets = resolve_fleets(args.fleets)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    shards = getattr(args, "shards", None)
    if shards is not None:
        if shards <= 0:
            print(f"bench: --shards must be positive, got {shards}", file=sys.stderr)
            return 2
        # The --shards axis: re-measure every plain fleet size partitioned
        # across K workers (NxK tokens keep their own shard counts).
        fleets = [
            entry if isinstance(entry, tuple) else (entry, shards)
            for entry in fleets
        ]
    large = None
    if os.environ.get("REPRO_BENCH_LARGE", "").strip():
        large = os.environ["REPRO_BENCH_LARGE"].strip() not in ("0", "no", "off")
    report = run_benchmark(
        fleets=fleets,
        hours=args.hours,
        repeats=args.repeats,
        progress=(None if args.json else lambda note: print(note, file=sys.stderr)),
        large=large,
    )
    text = canonical_dumps(report)
    if args.out:
        from .analysis.export import write_text

        write_text(args.out, text)
    if args.json:
        print(text, end="")
    else:
        print(render_report(report))
    return 0
