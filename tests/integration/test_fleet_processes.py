"""Fleet worker processes, seen from outside: how they start and end.

On Linux a worker is forked from the coordinator
(:data:`repro.fleet.coordinator.START_METHOD`): it begins as a copy of a
process that has already imported the package and planned the fleet.  It
re-imports nothing, ``__main__`` included, so a script read from stdin
can run a process fleet; it shares the coordinator's hash seed instead
of drawing its own; and it must close the coordinator's pipe ends it
inherited, or a dead coordinator never reaches it.  Each of those is a
property of whole interpreters, so these tests start real ones.
"""

import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import fleet_spec, run_fleet
from repro.fleet.coordinator import START_METHOD
from repro.sim.kernel import HOUR

ROOT = pathlib.Path(__file__).parent.parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _env(**extra):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _python(*args, input=None, **env):
    done = subprocess.run(
        [sys.executable, *args], input=input, env=_env(**env), cwd=ROOT,
        capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.skipif(START_METHOD != "fork", reason="spawn re-runs __main__")
def test_a_script_read_from_stdin_runs_a_process_fleet():
    # Spawn re-imports the parent's __main__ from its file, and '<stdin>'
    # is not one: every worker died with exit code 1.
    script = (
        b"from repro.fleet import fleet_spec, run_fleet\n"
        b"from repro.sim.kernel import HOUR\n"
        b"spec = fleet_spec(4, seed=0)\n"
        b"print(run_fleet(spec, 2, duration_ms=0.01 * HOUR).report_json, end='')\n"
    )
    report = _python("-", input=script)
    assert report.decode() == run_fleet(
        fleet_spec(4, seed=0), 2, duration_ms=0.01 * HOUR, processes=False,
    ).report_json


#: Runs a three-shard fleet far longer than the test waits, and prints
#: its two worker pids once the first barrier has been crossed (shard 0
#: runs in the coordinator).
COORDINATOR = """
import multiprocessing

from repro.fleet import fleet_spec, run_fleet
from repro.sim.kernel import HOUR

announced = []


def announce(frame):
    if not announced:
        announced.append(True)
        print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)


if __name__ == "__main__":  # spawned workers re-import this file
    run_fleet(fleet_spec(8, seed=0), 3, duration_ms=10_000.0 * HOUR, observer=announce)
"""


def _alive(pid):
    """Running, as opposed to gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_a_dead_coordinator_still_reaches_its_workers(tmp_path):
    # A worker learns that its coordinator died from EOF on its pipe,
    # which comes only once every copy of the coordinator's end is
    # closed — including the copies a forked worker inherited: its own
    # and, in the second worker, the first one's.
    script = tmp_path / "coordinator.py"
    script.write_text(COORDINATOR)
    coordinator = subprocess.Popen(
        [sys.executable, str(script)], env=_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        announced, _, _ = select.select([coordinator.stdout], [], [], 120.0)
        assert announced, "the coordinator never named its workers"
        workers = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(workers) == 2, workers
        coordinator.kill()
        coordinator.wait()
        deadline = time.monotonic() + 10.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
    finally:
        coordinator.kill()
        coordinator.wait()
        coordinator.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


#: The outputs one interpreter produces: two golden reports and a
#: two-worker fleet report, written under the directory it is given.
HOST_RUN = """
import pathlib
import sys

from repro import chaos
from repro.fleet import fleet_spec, run_fleet
from repro.scenarios import build_preset, run_scenario_spec
from repro.sim.kernel import HOUR

out = pathlib.Path(sys.argv[1])
outputs = {
    "chaos.json": chaos.report_json(chaos.run_scenario("flaky-3g", seed=7)),
    "scenario.json": run_scenario_spec(
        build_preset("commuter-surge", scale=0.25)
    ).report_json,
    "fleet.json": run_fleet(
        fleet_spec(6, seed=7), 2, duration_ms=0.25 * HOUR
    ).report_json,
}
for name, text in outputs.items():
    (out / name).write_bytes(text.encode("utf-8"))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # A forked worker shares its coordinator's hash seed, so no fleet run
    # draws a fresh one per process any more: pin the independence.
    outputs = {}
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        _python("-c", HOST_RUN, str(out), PYTHONHASHSEED=hash_seed)
        outputs[hash_seed] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert outputs["0"] == outputs["1"]
    assert outputs["0"] == {
        "chaos.json": (GOLDEN / "chaos_flaky3g_seed7.json").read_bytes(),
        "scenario.json": (GOLDEN / "scenario_commuter_surge_seed7.json").read_bytes(),
        "fleet.json": run_fleet(
            fleet_spec(6, seed=7), 1, duration_ms=0.25 * HOUR, processes=False,
        ).report_json.encode("utf-8"),
    }
