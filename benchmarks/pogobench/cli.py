"""The driver: one process that spawns every repetition and adds it up.

Three ways in, one set of parts:

* ``--workload W --seed N --seconds S --trace 0|1`` — the one-workload
  run ``BENCHMARK.json`` names: repeat ``W`` in fresh children for ``S``
  seconds (never fewer than :data:`MIN_REPEATS`), print one JSON object
  as the last line of stdout.
* no ``--workload`` — the suite: every workload, ``--repeats`` fresh
  children each, interleaved round-robin, a table per workload and a
  results file that ``--compare`` reads.
* ``--compare A.json B.json`` — classify every (end-to-end metric,
  workload) pair and list exact counts that differ.

The driver is one process and runs one child at a time; ``stadium_x2``'s
two workers are the only extra processes, so load never exceeds two.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import END_TO_END, EXACT, FAILED_SHARE, PAPER_ERR, PER_LAYER, UNITS
from .workloads import SIZES, WORKLOADS, table4_error_points

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"
DEFAULT_OUT = HERE / "out" / "results.json"

SCHEMA = "pogobench/1"
#: The seed ``pins.json`` holds event counts and report hashes for.
PIN_SEED = 9
#: If the time cap forces a cut, run length goes last and repetitions
#: never fall below this.
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

INVARIANT_CHECKED = frozenset({"stadium_solo", "stadium_x2", "chaos_mixed"})
HAS_PAPER_REFERENCE = frozenset({"table3_fleet", "table3_instrumented", "table4_user3"})
SHARDS = {"stadium_x2": 2}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> Dict[str, Any]:
    return {
        "cpus": cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Children, and the host-speed calibration of their times
# ---------------------------------------------------------------------------

#: What one :class:`~benchmarks.pogobench.tracing.HostProbe` sample takes
#: on the host all times are expressed against — this container at its
#: typical speed, under the workload.  The constant only fixes the unit:
#: changing it rescales every time by the same factor.
REFERENCE_PROBE_S = 0.0065
_TIME_UNITS = frozenset({"s", "us", "ns"})


def run_child(
    workload: str, seed: int, size: str, mode: str = "run",
    factor: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """One repetition in a fresh interpreter, its times in calibrated
    seconds (:func:`calibrate`); ``None`` if it did not finish (crash,
    timeout, unreadable result) — the caller counts that as every check
    failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "benchmarks.pogobench.child",
        "--workload", workload, "--seed", str(seed), "--size", size, "--mode", mode,
    ]
    # Its own session, so a hung child's fleet workers die with it.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log(f"pogobench: {workload} ({mode}) exceeded {CHILD_TIMEOUT_S:.0f}s — killed")
        return None
    if process.returncode != 0:
        log(f"pogobench: {workload} ({mode}) exited {process.returncode}:\n{stderr[-2000:]}")
        return None
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"pogobench: {workload} ({mode}) printed no result")
        return None
    if mode != "paper":
        calibrate(rep, factor)
    return rep


def calibrate(rep: Dict[str, Any], factor: Optional[float] = None) -> None:
    """Express every time in a child's result in calibrated seconds.

    The container this benchmark was built on changes speed by up to
    1.45x from second to second (neighbours on the same cores): raw
    medians of ten runs spread 0.13-0.38 of their median there, wider
    than any bound worth having.  Timing a loop before and after each
    child does not help (correlation with the child's wall 0.5), and a
    probe on the other core reads differently depending on where the
    hypervisor puts the two vCPUs.  The child therefore samples a probe
    on its own thread while it runs (``tracing.HostProbe``: correlation
    0.96), and each time here is the interval net of the probes inside
    it, multiplied by ``REFERENCE_PROBE_S / mean(those probes)`` —
    seconds as they would read on the reference host.  On 40 runs of
    ``chaos_mixed`` that took single-run spread from 0.29 to 0.05 and
    the spread of 4-run medians from 0.27 to 0.02.

    A profiled child carries no probe (the handler's calls would make
    ``python.calls`` inexact); it is given the ``factor`` of the span
    child that ran just before it.  ``host_factor`` (calibrated / raw
    wall) rides along in each result.
    """
    samples = rep.pop("probe")

    def reading(
        start: float, end: float, seconds: Optional[float] = None, net: bool = True,
    ) -> float:
        """``seconds`` (default: all) of ``[start, end)`` in calibrated
        seconds, ``net`` of the probes that ran inside it."""
        inside = [d for offset, d in samples if start <= offset < end]
        seconds = end - start if seconds is None else seconds
        if net:
            seconds -= sum(inside)
        if not inside:  # shorter than one probe interval: the nearest sample
            inside = [min(samples, key=lambda sample: abs(sample[0] - start))[1]]
        return seconds * REFERENCE_PROBE_S / statistics.mean(inside)

    raw_wall = rep["wall_s"]
    if samples:
        rep["cpu_s"] = reading(0.0, raw_wall, seconds=rep["cpu_s"])
        rep["setup_s"] = reading(0.0, rep["setup_s"])
        # stadium_x2's probes run on the coordinator while the workers
        # work: CPU spent, but not on the run's critical path.
        rep["wall_s"] = reading(0.0, raw_wall, net=rep["workload"] not in SHARDS)
        if rep["twin"] is not None:
            # Set-up also has a tail here: the zero-horizon run_fleet.
            rep["twin_s"] = reading(*rep["twin"], net=False)
            rep["setup_s"] += rep["twin_s"]
        factor = rep["wall_s"] / raw_wall
    else:
        factor = factor or 1.0
        for field in ("wall_s", "setup_s", "cpu_s"):
            rep[field] *= factor
    rep["host_factor"] = factor
    # Everything else scales as the wall did.
    for field in ("simulate_s", "traced_wall_s"):
        if field in rep:
            rep[field] *= factor
    for group in ("phases", "gc", "fleet", "extras"):
        values = rep.get(group, {})
        for name in values:
            if UNITS[name] in _TIME_UNITS:
                values[name] *= factor
    if "layers" in rep:
        self_s = rep["layers"]["self_s"]
        for layer in self_s:
            self_s[layer] *= factor


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts the output checks of one workload's repetitions.

    Per repetition: it completed; its work count and report SHA-256
    equal the pinned values (``PIN_SEED``) or, for any other seed, the
    first repetition's; no invariant was violated; ``stadium_x2``'s
    report equals ``stadium_solo``'s.  A repetition that did not
    complete fails every one of them.
    """

    def __init__(
        self, workload: str, seed: int, size: str,
        solo: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.workload = workload
        self.expected: Optional[Dict[str, Any]] = None
        if seed == PIN_SEED:
            self.expected = load_pins().get(size, {}).get(workload)
        self.solo = solo
        self.names = ["completed", "work", "report_sha256"]
        if workload in INVARIANT_CHECKED:
            self.names.append("violations")
        if workload in SHARDS:
            self.names.append("equals_solo")
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, rep: Optional[Dict[str, Any]], what: str = "run") -> bool:
        self.attempted += len(self.names)
        if rep is None:
            self.failures.extend(f"{what}:{name}" for name in self.names)
            return False
        if self.expected is None:
            self.expected = {"work": rep["work"], "report_sha256": rep["report_sha256"]}
        failed = [
            name for name in ("work", "report_sha256")
            if rep[name] != self.expected[name]
        ]
        if "violations" in self.names and rep["violations"] != 0:
            failed.append("violations")
        if "equals_solo" in self.names and (
            self.solo is None or rep["report_sha256"] != self.solo["report_sha256"]
        ):
            failed.append("equals_solo")
        self.failures.extend(f"{what}:{name}" for name in failed)
        return not failed

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_values(reps: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "events_per_s": [r["work"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# The traced repetitions
# ---------------------------------------------------------------------------

def paper_error(
    workload: str, seed: int, size: str, base: Sequence[Dict[str, Any]],
) -> Optional[float]:
    """``paper_err_pct``, or ``None`` where the paper gives no reference
    (or the child computing it did not finish)."""
    if workload not in HAS_PAPER_REFERENCE:
        return None
    if workload == "table4_user3" and size == "full" and base:
        # The run itself is the full 24-day session the row is defined on.
        return table4_error_points(*base[0]["match"])
    child = run_child(workload, seed, size, "paper")
    return child["paper_err_pct"] if child else None


def per_layer_metrics(
    workload: str, seed: int, size: str, base: Sequence[Dict[str, Any]],
    checker: Checker, solo: Optional[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric, from repetitions kept apart from ``base``.

    One child records spans and watches the collector, a second runs the
    same drive under cProfile (so phase and GC times are not stretched
    by the profiler), a third computes the paper error where the paper
    gives a reference.  Rows a workload has nothing to say about are 0.
    """
    metrics = {str(row["name"]): 0.0 for row in PER_LAYER}
    spans = run_child(workload, seed, size, "spans")
    profile = run_child(
        workload, seed, size, "profile",
        factor=spans["host_factor"] if spans else None,
    )
    # The staged, traced drives must reproduce the untraced bytes.
    checker.check(spans, "spans")
    checker.check(profile, "profile")
    if base:
        metrics.update(base[0]["counts"])
    metrics[PAPER_ERR["name"]] = paper_error(workload, seed, size, base) or 0.0
    walls = [r["wall_s"] for r in base]
    if spans is not None:
        metrics.update(spans["phases"])
        metrics.update(spans["gc"])
        metrics.update(spans["fleet"])
        metrics.update(spans["extras"])
        if walls:
            metrics["trace_overhead_x"] = spans["traced_wall_s"] / median(walls)
    if profile is not None:
        for layer, calls in profile["layers"]["calls"].items():
            metrics[f"{layer}.calls"] = calls
        for layer, self_s in profile["layers"]["self_s"].items():
            metrics[f"{layer}.self_s"] = self_s
        metrics["profile.coverage"] = (
            sum(profile["layers"]["self_s"].values()) / profile["simulate_s"]
        )
        if spans is not None:
            metrics["profile_overhead_x"] = profile["wall_s"] / spans["wall_s"]
    if workload in SHARDS and base:
        # What barrier_overhead_s used to lump together, by name: the
        # fixed cost is the zero-horizon run; overhead is what remains of
        # wall after set-up and the busiest worker's CPU.
        overhead = median(
            [r["wall_s"] - r["setup_s"] - r["fleet"]["fleet.critical_path_s"] for r in base]
        )
        barriers = base[0]["fleet"]["fleet.barriers"]
        metrics["fleet.overhead_s"] = overhead
        metrics["fleet.overhead_per_barrier_us"] = overhead / barriers * 1e6
        metrics["fleet.fixed_cost_s"] = median([r["twin_s"] for r in base])
        if solo is not None:
            metrics["fleet.slowdown_x"] = median(walls) / solo["wall_s"]
    return metrics


# ---------------------------------------------------------------------------
# The one-workload run BENCHMARK.json names
# ---------------------------------------------------------------------------

def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    size = "bench"
    if workload in SHARDS and cpus() < SHARDS[workload]:
        log(
            f"pogobench: {workload} needs {SHARDS[workload]} CPUs, this host "
            f"has {cpus()} — its timings are oversubscribed"
        )
    solo = None
    if workload in SHARDS:
        solo = run_child("stadium_solo", seed, size)
    checker = Checker(workload, seed, size, solo)
    reps: List[Dict[str, Any]] = []
    # Traced: one untraced repetition as the reference, then the traced
    # ones.  Untraced: keep repeating until the run length is used up.
    minimum = 1 if trace else MIN_REPEATS
    budget = 0.0 if trace else seconds
    started = perf_counter()
    attempts = 0
    while attempts < minimum or perf_counter() - started < budget:
        attempts += 1
        rep = run_child(workload, seed, size)
        if checker.check(rep):
            reps.append(rep)
        elif rep is None and attempts >= minimum:
            break  # it does not finish; repeating it proves nothing more
    if trace:
        values = per_layer_metrics(workload, seed, size, reps, checker, solo)
    elif reps:
        values = {
            name: median(series) for name, series in end_to_end_values(reps).items()
        }
    else:
        values = {}
    for failure in checker.failures:
        log(f"pogobench: {workload}: check failed: {failure}")
    print(json.dumps({
        "correct": checker.failed == 0 and bool(values),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def run_suite(
    names: Sequence[str], seed: int, size: str, repeats: int, trace: bool,
) -> Dict[str, Any]:
    """Every workload, ``repeats`` fresh children each, round-robin: a
    slow minute of the host lands on one repetition of each workload,
    not on every repetition of one."""
    reps: Dict[str, List[Optional[Dict[str, Any]]]] = {name: [] for name in names}
    for index in range(repeats):
        for name in names:
            log(f"pogobench: {name} repetition {index + 1}/{repeats}")
            reps[name].append(run_child(name, seed, size))
    # stadium_x2 is compared to stadium_solo whether or not solo was asked for.
    solo = next((r for r in reps.get("stadium_solo", []) if r is not None), None)
    if solo is None and any(name in SHARDS for name in names):
        solo = run_child("stadium_solo", seed, size)

    results: Dict[str, Any] = {}
    for name in names:
        checker = Checker(name, seed, size, solo)
        good = [r for r in reps[name] if checker.check(r)]
        oversubscribed = cpus() < SHARDS.get(name, 1)
        row: Dict[str, Any] = {
            "why": WORKLOADS[name],
            "params": SIZES[size][name],
            "shards": SHARDS.get(name, 1),
            "cpus": cpus(),
            "oversubscribed": oversubscribed,
            "n": len(good),
            "host_factor": median([r["host_factor"] for r in good]),
            "end_to_end": {},
            "counts": dict(good[0]["counts"], **{
                k: v for k, v in good[0]["fleet"].items() if k in EXACT
            }) if good else {},
        }
        series = end_to_end_values(good)
        for metric in END_TO_END:
            values = series[metric["name"]]
            entry: Dict[str, Any] = {"unit": metric["unit"], "n": len(values)}
            if oversubscribed or not values:
                # More workers than cores: the counts and checks stand,
                # the timings measure the scheduler.  Unresolved.
                entry.update(median=None, q1=None, q3=None, values=[])
            else:
                q1, mid, q3 = quartiles(values)
                entry.update(median=mid, q1=q1, q3=q3, values=values)
            row["end_to_end"][metric["name"]] = entry
        if trace:
            log(f"pogobench: {name} traced repetitions")
            row["per_layer"] = per_layer_metrics(name, seed, size, good, checker, solo)
            paper = (
                row["per_layer"][PAPER_ERR["name"]]
                if name in HAS_PAPER_REFERENCE else None
            )
        else:
            paper = paper_error(name, seed, size, good)
        row["end_to_end"][PAPER_ERR["name"]] = {"unit": PAPER_ERR["unit"], "value": paper}
        row["end_to_end"][FAILED_SHARE["name"]] = {
            "unit": FAILED_SHARE["unit"],
            "value": checker.failed / checker.attempted,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "failures": checker.failures,
        }
        results[name] = row
    return {
        "schema": SCHEMA, "seed": seed, "size": size, "repeats": repeats,
        "environment": environment(), "workloads": results,
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "unresolved"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def render_suite(results: Dict[str, Any]) -> str:
    env = results["environment"]
    lines = [
        f"pogobench  size={results['size']}  seed={results['seed']}  "
        f"repeats={results['repeats']}  cpus={env['cpus']}  "
        f"python {env['python']}  {env['platform']}",
    ]
    for name, row in results["workloads"].items():
        params = " ".join(f"{k}={v}" for k, v in row["params"].items())
        flag = "  OVERSUBSCRIBED" if row["oversubscribed"] else ""
        lines.append("")
        lines.append(
            f"{name}  ({params}; shards={row['shards']} cpus={row['cpus']}; "
            f"host factor {row['host_factor']:.3f}){flag}"
        )
        for metric, entry in row["end_to_end"].items():
            if "median" in entry:
                lines.append(
                    f"  {metric:<14} {_fmt(entry['median']):>12} {entry['unit']:<5}"
                    f" q1 {_fmt(entry['q1'])}  q3 {_fmt(entry['q3'])}  n={entry['n']}"
                )
            elif metric == FAILED_SHARE["name"]:
                lines.append(
                    f"  {metric:<14} {_fmt(entry['value']):>12} {entry['unit']:<5}"
                    f" {entry['failed']} of {entry['attempted']} checks failed"
                    + (f": {', '.join(entry['failures'])}" if entry["failures"] else "")
                )
            else:
                shown = "null" if entry["value"] is None else _fmt(entry["value"])
                lines.append(f"  {metric:<14} {shown:>12} {entry['unit']:<5}")
        for metric, value in row.get("per_layer", {}).items():
            lines.append(f"    {metric:<32} {_fmt(value):>14} {UNITS[metric]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _spread(entry: Dict[str, Any]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"]


def classify(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``better`` / ``within bound`` / ``worse`` / ``unresolved`` for one
    (metric, workload) pair; ``a`` is the parent, ``b`` the change."""
    if a.get("median") is None or b.get("median") is None:
        return "unresolved"
    bound = float(metric["bound"])
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if max(_spread(a), _spread(b)) > bound:
        # Wider than the bound: only a clean sweep says anything.
        if all(sign * (y - x) < 0 for x in a["values"] for y in b["values"]):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    verdicts: Dict[str, int] = {}
    bad = False
    print(f"{'workload':<20} {'metric':<14} {'A median':>12} {'B median':>12}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        row_a, row_b = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            ea = row_a["end_to_end"][metric["name"]]
            eb = row_b["end_to_end"][metric["name"]]
            verdict = classify(metric, ea, eb)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            bad = bad or verdict == "worse"
            print(
                f"{name:<20} {metric['name']:<14} {_fmt(ea.get('median')):>12} "
                f"{_fmt(eb.get('median')):>12}  {verdict}"
            )
        for side, row in (("A", row_a), ("B", row_b)):
            share = row["end_to_end"][FAILED_SHARE["name"]]
            if share["value"] > 0:
                bad = True
                print(f"{name:<20} failed_share {share['value']:.3f} in {side}: "
                      f"{', '.join(share['failures'])}")
        exact_a = dict(row_a["counts"])
        exact_b = dict(row_b["counts"])
        for row, exact in ((row_a, exact_a), (row_b, exact_b)):
            exact.update(
                {k: v for k, v in row.get("per_layer", {}).items() if k in EXACT}
            )
        for key in sorted(set(exact_a) & set(exact_b)):
            if exact_a[key] != exact_b[key]:
                verdicts["count differs"] = verdicts.get("count differs", 0) + 1
                print(f"{name:<20} {key}: {exact_a[key]} != {exact_b[key]}  count differs")
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pogobench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=PIN_SEED,
                        help="passed to the input generators only")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long --workload keeps repeating")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the traced repetitions (per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: fresh-process repetitions per workload")
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    parser.add_argument("--only", help="suite: comma-separated workload names")
    parser.add_argument("--smoke", action="store_true",
                        help="suite at smoke size, one repetition, traced")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="suite: where the results JSON goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        log(f"pogobench: no program to measure: {SRC / 'repro'} is missing")
        return 2
    if args.workload:
        return contract_run(args.workload, args.seed, args.seconds, bool(args.trace))

    names = list(WORKLOADS)
    if args.only:
        names = [name for name in args.only.split(",") if name]
        unknown = sorted(set(names) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)}")
    size, repeats, trace = args.size, args.repeats, bool(args.trace)
    if args.smoke:
        size, repeats, trace = "smoke", 1, True
    elif repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    results = run_suite(names, args.seed, size, repeats, trace)
    print(render_suite(results))
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    failed = sum(
        row["end_to_end"][FAILED_SHARE["name"]]["failed"]
        for row in results["workloads"].values()
    )
    return 1 if failed else 0
