"""Integration: the whole simulation is reproducible.

Same seed → same world, same scans, same clusters, same energy — across
repeated runs in one process.  This guards against the classic sources of
sneaky nondeterminism: process-global id counters, set iteration order,
and shared RNG streams.
"""

import itertools
import time

import pytest

from repro.apps import localization
from repro.chaos import report_json, run_scenario
from repro.core.middleware import PogoSimulation
from repro.core.scripting import ScriptFn
from repro.scenarios import build_preset, run_scenario_spec
from repro.sim import HOUR


def run_once(seed):
    sim = PogoSimulation(seed=seed)
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    collector.node.deploy(localization.build_experiment(), [device.jid])
    sim.run(hours=20)
    dctx = device.node.contexts[localization.EXPERIMENT_ID]
    dbscan = dctx.scripts["clustering"].namespace["dbscan"]
    return {
        "clusters": [(c["entry"], c["exit"], c["samples"]) for c in dbscan.closed],
        "energy": round(device.phone.energy_joules, 6),
        "events": sim.kernel.events_executed,
        "rampups": device.phone.modem.rampup_count,
        "jid": device.jid,
    }


def test_same_seed_reproduces_everything():
    first = run_once(99)
    second = run_once(99)
    assert first == second
    assert first["clusters"], "run produced no clusters to compare"


def test_different_seeds_differ():
    assert run_once(99)["clusters"] != run_once(100)["clusters"]


def test_freeze_variant_matches_plain_when_uninterrupted():
    """freeze/thaw is pure checkpointing: absent interruptions it must
    not change the algorithm's output at all."""

    def clusters(with_freeze):
        sim = PogoSimulation(seed=7)
        collector = sim.add_collector("alice")
        device = sim.add_device(world_days=1, with_email_app=True)
        sim.start()
        sim.assign(collector, [device])
        collector.node.deploy(
            localization.build_experiment(with_freeze=with_freeze), [device.jid]
        )
        sim.run(hours=20)
        dctx = device.node.contexts[localization.EXPERIMENT_ID]
        dbscan = dctx.scripts["clustering"].namespace["dbscan"]
        return [(c["entry"], c["exit"], c["samples"]) for c in dbscan.closed]

    assert clusters(False) == clusters(True)


def test_chaos_scenario_replays_byte_identically():
    """Same scenario + seed → byte-identical invariant report.  This is
    the property that makes a failing chaos run shippable as two small
    numbers (scenario, seed) instead of a flake."""
    first = report_json(run_scenario("mixed", seed=42, minutes=8.0, devices=2))
    second = report_json(run_scenario("mixed", seed=42, minutes=8.0, devices=2))
    assert first == second


def test_chaos_reports_differ_across_seeds():
    a = run_scenario("flaky-3g", seed=1, minutes=6.0, devices=2)
    b = run_scenario("flaky-3g", seed=2, minutes=6.0, devices=2)
    assert a["chaos"] != b["chaos"]


def _stall_script_call(monkeypatch, nth):
    """A 250 ms in-thread host stall inside the nth call into any script:
    2.5x the paper's default budget, as a loaded CI host delivers them."""
    calls = itertools.count(1)
    original = ScriptFn.__call__

    def stalled(self, *args):
        if next(calls) == nth:
            time.sleep(0.25)
        return original(self, *args)

    monkeypatch.setattr(ScriptFn, "__call__", stalled)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: report_json(run_scenario("flaky-3g", seed=7, devices=3, minutes=20)),
        lambda: run_scenario_spec(build_preset("contact-tracing", scale=0.1)).report_json,
    ],
    ids=["chaos-flaky-3g", "scenario-contact-tracing"],
)
def test_host_stall_inside_a_script_call_changes_no_byte(monkeypatch, run):
    """The script budget is a function of the script, not of the host's
    clock: under the wall-clock watchdog the stalled call was killed,
    published nothing, and the report came out with another hash.

    In-process only: there is no seam to inject a stall into a spawned
    worker, and the import gate in ``tests/unit/test_wall_clock_imports.py``
    is what keeps a clock out of the code a worker runs."""
    calm = run()
    with monkeypatch.context() as patch:
        calls = _stall_script_call(patch, nth=10)
        stalled = run()
    assert next(calls) > 10, "the stall was never reached"
    assert stalled == calm
