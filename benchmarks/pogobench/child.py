"""One repetition, in a fresh interpreter.

``python -m benchmarks.pogobench.child --workload W --seed N --size S
--mode run|spans|profile|paper`` runs one workload once and prints one
JSON object as its last line.  The clock starts just before ``import
repro`` and ``wall_s`` stops when the serialised report is in hand, so
nothing can be moved out of it.

Spawned fleet workers re-import this module as ``__mp_main__``; the only
thing that runs at import time is :func:`lift_watchdog`, and only there.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: The script watchdog's budget in every process the benchmark runs.
#: The simulator kills a script call that takes longer than 100 ms of
#: WALL clock (``core.scripting.DEFAULT_WATCHDOG_MS``), so a host stall
#: that lands inside a script call changes what the script published and
#: with it the report bytes: on seed 1931127441 a 190 ms stall gave
#: ``table3_instrumented`` the same 62,504 events and another SHA-256,
#: which is how a repetition failed its check on a busy shared host
#: while sixty others on the same seed passed.  An hour is longer than
#: the driver lets a child live, so the outputs depend on the seed
#: alone.  Arming, disarming and the arbiter thread's polling cost what
#: they cost at 100 ms.
WATCHDOG_MS = 3_600_000.0


def lift_watchdog() -> None:
    """Give every ``Watchdog`` built from here on :data:`WATCHDOG_MS`.

    No public function carries the budget to the nodes that
    ``Shard(spec)``, ``run_scenario_spec``, ``chaos.run_scenario`` and
    ``run_deployment`` build (least of all inside spawned workers), so
    this is the one place the benchmark reaches past the public surface.
    """
    from repro.core import scripting

    original = scripting.Watchdog.__init__

    def __init__(self, timeout_ms: float = WATCHDOG_MS) -> None:
        original(self, WATCHDOG_MS)

    scripting.Watchdog.__init__ = __init__


def run(workload: str, seed: int, size: str, mode: str) -> dict:
    from . import workloads
    from .tracing import HostProbe, Tracer

    if mode == "paper":
        lift_watchdog()
        return {"paper_err_pct": workloads.paper_error(workload)}

    origin = perf_counter()
    tracer = Tracer(workload, origin)
    probe = HostProbe(origin)
    if mode != "profile":
        probe.start()
    with tracer.span("import:repro"):
        import repro  # noqa: F401
        lift_watchdog()
    ctx = workloads.RunContext(
        tracer, seed, size, workloads.SIZES[size][workload], mode, SRC / "repro"
    )
    out = workloads.RUNNERS[workload](ctx)
    probe.stop()
    used = out.pop("usage", None) or workloads.usage()

    wall_s = out["wall_end"]
    result = {
        "workload": workload, "seed": seed, "size": size, "mode": mode,
        # Raw seconds; the driver calibrates them against "probe".  Set-up
        # ends where the first simulated event may run; for stadium_x2
        # the driver adds the "twin" interval (the zero-horizon run_fleet
        # that stands in for the part hidden inside the real one).
        "wall_s": wall_s, "setup_s": out["setup_end"],
        "work": out["work"],
        "cpu_s": used["cpu_s"], "peak_rss_mb": used["peak_rss_mb"],
        "report_sha256": workloads.sha256(out["report"]),
        "violations": out["violations"],
        "counts": out["counts"],
        "fleet": out.get("fleet", {}),
        "twin": out.get("twin"),
        "probe": probe.samples,
        "match": out.get("match"),
        "phases": tracer.phases(wall_s),
        "simulate_s": ctx.simulate_s,
    }
    if mode == "spans":
        result["traced_wall_s"] = out.get("traced_wall_s", wall_s)
        result["gc"] = {
            "host.gc_s": ctx.gc.gc_s,
            "host.gc_gen2": ctx.gc.gen2,
            "host.gc_share": ctx.gc.gc_s / ctx.simulate_s,
        }
        result["extras"] = out["extras"]
        tracer.write_jsonl(OUT_DIR / f"trace_{workload}.jsonl")
    elif mode == "profile":
        calls, self_s = ctx.profile.by_layer()
        result["layers"] = {"calls": calls, "self_s": self_s}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pogobench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "spans", "profile", "paper"))
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.size, args.mode)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # A spawned fleet worker, importing its parent's main module before
    # it builds its shard.
    lift_watchdog()
