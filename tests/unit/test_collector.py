"""The simulator's collector discipline (:mod:`repro.sim.hostgc`).

Four things are held here:

* **Paused in between, state as found.**  No pass runs while the kernel
  dispatches or a shard is built, and ``gc.isenabled()``,
  ``gc.get_threshold()`` and ``gc.get_freeze_count()`` read the same
  before and after every public call that enters the scope — on normal
  return, on an exception, with collection disabled by the caller,
  nested, and with a host that froze its own heap.
* **Nothing is retained.**  Shards built, run and dropped give every
  object back at the next full pass, and the permanent generation is
  empty again.  A process fleet frees the shard 0 it ran here before
  it returns.
* **No cyclic garbage per event.**  Nothing is collected inside a
  dispatch, so a reference cycle made per event would grow for the
  whole run: ``DEBUG_SAVEALL`` runs of the fleet, stadium and chaos
  workloads leave no ``repro.*`` instance in ``gc.garbage``, and a
  deployment-study session leaves a bounded amount per script load and
  none per event.
* **Collector timing cannot change a byte** — pinned statically in
  ``tests/unit/test_wall_clock_imports.py``: only ``sim/hostgc.py``
  imports ``gc``, and nothing in ``src/`` can watch an object die.

``gc.freeze`` semantics are the interpreter's, not ours, so CI runs this
file on every Python in the tier-1 matrix.
"""

import gc
import pickle

import pytest

from repro import chaos
from repro.apps import deployment_study
from repro.apps.deployment_study import SessionSpec, run_session
from repro.core.scheduler import PogoScheduler, ScheduledTask, _TaskFire
from repro.core.scripting import compile_script
from repro.core.shard import Shard
from repro.device.cpu import Alarm, Cpu, MainsCpu
from repro.device.power import PowerRail
from repro.fleet import run_fleet
from repro.fleet.partition import fleet_spec, plan_fleet
from repro.fleet.worker import setup_battery_monitor
from repro.scenarios import build_preset
from repro.scenarios.workload import setup_scenario
from repro.sim import Kernel, hostgc
from repro.sim.hostgc import building, dispatching
from repro.sim.kernel import HOUR


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def pristine_collector():
    """Every test starts enabled and unfrozen, and must end that way."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.fixture
def collection_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def host_frozen_heap():
    """A host that parked its own heap before calling into the simulator.

    Yields a floor for the freeze count while theirs is left alone: a
    parked object can still die by reference count, so the count may
    drift down by a few; an ``unfreeze`` of ours would make it zero.
    """
    gc.freeze()
    try:
        yield 0.99 * gc.get_freeze_count()
    finally:
        gc.unfreeze()


class Boom(Exception):
    pass


def _raise_boom():
    raise Boom()


def _stadium():
    """A smoke-size ``stadium-evening`` shard, set up and ready to run."""
    spec = build_preset("stadium-evening", scale=0.1)
    plan = plan_fleet(spec.compile(), 1)
    shard = Shard(plan.shards[0])
    setup_scenario(shard, {
        "deploy_jids": plan.device_jids,
        "collector_jids": plan.collector_jids,
        "scenario": spec,
    })
    return spec, shard


# ---------------------------------------------------------------------------
# The kernel's dispatch scope
# ---------------------------------------------------------------------------

RUNNERS = {
    "run": lambda kernel: kernel.run(),
    "run_until": lambda kernel: kernel.run_until(1_000.0),
    "step": lambda kernel: kernel.run(max_events=1),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
class TestDispatchLeavesTheCollectorAsFound:
    def test_normal_return_and_paused_in_between(self, runner):
        kernel = Kernel()
        seen = []
        kernel.schedule(10.0, lambda: seen.append(collector_state()))
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        # The callback ran with collection paused: that is the point.
        assert seen == [(False, before[1], 0)]

    def test_callback_raises(self, runner):
        kernel = Kernel()
        kernel.schedule(10.0, _raise_boom)
        before = collector_state()
        with pytest.raises(Boom):
            RUNNERS[runner](kernel)
        assert collector_state() == before

    def test_collection_disabled_by_the_caller(self, runner, collection_disabled):
        kernel = Kernel()
        seen = []
        kernel.schedule(10.0, lambda: seen.append(gc.isenabled()))
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        assert before[0] is False and seen == [False]

    def test_nested_run_until_from_a_callback(self, runner):
        kernel = Kernel()
        seen = []

        def outer():
            seen.append(gc.isenabled())
            kernel.run_until(kernel.now + 50.0)
            # The inner call found collection paused and left it paused.
            seen.append(gc.isenabled())

        kernel.schedule(10.0, outer)
        kernel.schedule(20.0, lambda: seen.append("inner event"))
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        assert seen == [False, "inner event", False]

    def test_host_frozen_heap_is_never_unfrozen_by_us(self, runner, host_frozen_heap):
        kernel = Kernel()
        seen = []
        kernel.schedule(10.0, lambda: seen.append(collector_state()))
        RUNNERS[runner](kernel)
        assert seen[0][0] is False and seen[0][2] > host_frozen_heap
        assert gc.get_freeze_count() > host_frozen_heap

    def test_host_frozen_heap_survives_a_raising_callback(self, runner, host_frozen_heap):
        kernel = Kernel()
        kernel.schedule(10.0, _raise_boom)
        with pytest.raises(Boom):
            RUNNERS[runner](kernel)
        assert gc.get_freeze_count() > host_frozen_heap


def test_scopes_nest_and_unwind_on_exceptions():
    before = collector_state()
    with pytest.raises(Boom):
        with building():
            assert not gc.isenabled()
            with dispatching():
                assert not gc.isenabled()
                with building(), dispatching():
                    raise Boom()
    assert collector_state() == before


def test_no_pass_runs_while_a_fleet_dispatches():
    shard = Shard(fleet_spec(60, seed=3))
    setup_battery_monitor(shard)
    passes = []

    def probe(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        shard.run(hours=0.25)
    finally:
        gc.callbacks.remove(probe)
    # 8,286 events that leave ~12,500 objects alive: 34 passes at the
    # default thresholds, were collection not paused.
    assert shard.kernel.events_executed > 8_000
    assert passes == []


# ---------------------------------------------------------------------------
# The build scope: Shard, start, snapshot/restore and the workload set-ups
# ---------------------------------------------------------------------------

def _build_battery_monitor():
    shard = Shard(fleet_spec(4, seed=3))
    setup_battery_monitor(shard)
    return shard


def _snapshot_and_restore():
    shard = _build_battery_monitor()
    shard.run(minutes=2)
    return Shard.restore(shard.snapshot())


BUILDERS = {
    "Shard(spec)": lambda: Shard(fleet_spec(4, seed=3)),
    "setup_battery_monitor": _build_battery_monitor,
    "setup_scenario": _stadium,
    "snapshot+restore": _snapshot_and_restore,
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
class TestBuildLeavesTheCollectorAsFound:
    def test_enabled(self, builder):
        before = collector_state()
        BUILDERS[builder]()
        assert collector_state() == before

    def test_collection_disabled_by_the_caller(self, builder, collection_disabled):
        before = collector_state()
        BUILDERS[builder]()
        assert collector_state() == before
        assert before[0] is False

    def test_host_frozen_heap(self, builder, host_frozen_heap):
        BUILDERS[builder]()
        assert gc.isenabled()
        assert gc.get_freeze_count() > host_frozen_heap


def test_a_failing_set_up_restores_the_enabled_flag():
    shard = Shard(fleet_spec(2, seed=3))
    before = collector_state()
    with pytest.raises(ValueError):
        setup_scenario(shard, None)  # raises inside the paused scope
    with pytest.raises(TypeError):
        Shard.restore(pickle.dumps("not a shard"))
    assert collector_state() == before


def test_no_pass_runs_while_the_fleet_is_built():
    Shard(fleet_spec(1, seed=3))  # pays whatever pass an earlier dispatch left owed
    passes = []

    def probe(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        setup_battery_monitor(Shard(fleet_spec(60, seed=3)))
    finally:
        gc.callbacks.remove(probe)
    # ~8,000 live objects allocated: a dozen young passes at the default
    # thresholds, were collection not paused.
    assert passes == []


# ---------------------------------------------------------------------------
# Nothing is retained
# ---------------------------------------------------------------------------

def _build_run_drop(seed):
    shard = Shard(fleet_spec(5, seed=seed))
    setup_battery_monitor(shard)
    shard.run(minutes=10)


def test_thirty_shards_built_run_and_dropped_leave_nothing_behind():
    _build_run_drop(0)  # lazy imports and caches belong to the baseline
    gc.collect()
    baseline = len(gc.get_objects())
    for seed in range(30):
        _build_run_drop(seed)
        assert gc.get_freeze_count() == 0
    gc.collect()
    # One 5-device shard is ~1,600 tracked objects; the margin is for
    # whatever pytest itself allocated meanwhile.
    assert len(gc.get_objects()) - baseline < 200


def test_sequential_shards_are_reclaimed_without_the_caller_collecting():
    _build_run_drop(0)
    gc.collect()
    baseline = len(gc.get_objects())
    held = []
    for seed in range(30):
        _build_run_drop(seed)
        held.append(len(gc.get_objects()) - baseline)
    # Each build frees the shard dropped before it (``hostgc.reclaim``),
    # so at most the last one (~1,600 tracked objects) is still around.
    assert max(held) < 2_000


def test_a_pass_is_owed_only_after_a_dispatch_and_paid_by_the_next_build():
    passes = []

    def probe(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    Shard(fleet_spec(1, seed=3))  # settles what earlier tests left owed
    gc.callbacks.append(probe)
    try:
        first = Shard(fleet_spec(2, seed=3))
        second = Shard(fleet_spec(2, seed=4))  # no dispatch in between
        assert passes == []
        first.start()
        first.run(minutes=1)
        del passes[:]
        setup_battery_monitor(second)  # builds, but creates no shard
        first.snapshot()
        assert passes == []
        Shard(fleet_spec(2, seed=5))
        assert passes == [2]
        Shard(fleet_spec(2, seed=6))
        assert passes == [2]
    finally:
        gc.callbacks.remove(probe)


def test_a_process_fleet_frees_its_hosted_shard_before_it_returns():
    # Shard 0 of a process fleet runs in this process; the pass that
    # frees it is paid inside the run, not by whatever shard comes next.
    # An in-process fleet still leaves its shards to that next build.
    gc.collect()
    run_fleet(
        fleet_spec(8, seed=3), 2, duration_ms=0.05 * HOUR,
        barrier_timeout_s=120.0,
    )
    assert not hostgc._pass_owed
    assert gc.collect() < 100  # 33 measured; shard 0 alone is ~1,000
    run_fleet(
        fleet_spec(8, seed=3), 2, duration_ms=0.05 * HOUR, processes=False,
    )
    assert hostgc._pass_owed
    assert gc.collect() > 1_000  # both shards: 1,948 measured


def test_a_host_frozen_heap_is_not_collected_for(host_frozen_heap):
    _build_run_drop(0)
    passes = []

    def probe(phase, info):
        passes.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        Shard(fleet_spec(2, seed=3))
    finally:
        gc.callbacks.remove(probe)
    assert 2 not in passes  # the pass stays owed: their heap, their call


# ---------------------------------------------------------------------------
# No cyclic garbage is manufactured
# ---------------------------------------------------------------------------

def _garbage(run):
    """Run ``run()`` under ``DEBUG_SAVEALL``; return the type of every
    object the collector had to free (with the run's result kept alive,
    so a dropped shard does not count), and the result."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keep = run()
        gc.collect()
        return [f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage], keep
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


def _repro(garbage):
    return sorted({name for name in garbage if name.startswith("repro.")})


def test_battery_monitor_half_hour_makes_no_cyclic_garbage():
    def run():
        shard = Shard(fleet_spec(20, seed=9))
        setup_battery_monitor(shard)
        shard.run(hours=0.5)
        return shard

    garbage, shard = _garbage(run)
    assert _repro(garbage) == []
    assert shard.kernel.events_executed > 5_000


def test_stadium_evening_makes_no_cyclic_garbage():
    def run():
        spec, shard = _stadium()
        shard.run(hours=spec.hours)
        return shard

    garbage, shard = _garbage(run)
    assert _repro(garbage) == []
    assert shard.kernel.events_executed > 5_000


def test_chaos_mixed_campaign_makes_no_cyclic_garbage():
    def run():
        handles = {}
        chaos.run_scenario("mixed", seed=9, devices=40, minutes=15.0, artifacts=handles)
        return handles["sim"]

    garbage, sim = _garbage(run)
    assert _repro(garbage) == []
    assert sim.kernel.events_executed > 5_000


def test_a_deployment_session_leaves_garbage_per_script_load_not_per_event(monkeypatch):
    """A script update replaces the script's namespace, and the old one
    is a function <-> ``__globals__`` cycle that holds its ``ScriptApi``
    and whatever state the script built.  It is not broken at the update:
    a call queued before it still runs the old function (``ScriptFn``
    caches it), which reads those globals.  It waits for a full pass."""
    sims = []

    class Kept(Shard):
        def __init__(self, spec):
            super().__init__(spec)
            sims.append(self)

    monkeypatch.setattr(deployment_study, "Shard", Kept)

    def session(days):
        compile_script.cache_clear()  # each run compiles its scripts afresh
        spec = SessionSpec("canary", days=days, update_days=(1,), reboot_rate_per_day=0.0)
        garbage, _ = _garbage(lambda: run_session(spec))
        return sorted(garbage), sims[-1]

    two_days, short = session(2)
    three_days, sim = session(3)
    nodes = (*sim.devices.values(), *sim.collectors.values())
    hosts = [host for n in nodes for c in n.node.contexts.values() for host in c.scripts.values()]
    loads = sum(host.load_count for host in hosts)
    assert (len(hosts), loads) == (3, 4)  # three scripts, one of them updated once
    assert sim.kernel.events_executed > 1.4 * short.kernel.events_executed
    assert three_days == two_days  # 0 objects per event
    # Per script load: ≤ 200 objects for a replaced namespace (130 here),
    # and 3 for a compile_script cache miss (the stdlib's
    # ast.fix_missing_locations leaves a closure cycle).
    assert len(three_days) <= 200 * (loads - len(hosts)) + 3 * len(hosts)


def _cpu(kernel):
    return Cpu(kernel, PowerRail(kernel))


def _alive():
    """How many one-shot parts exist (slotted, so not weak-referenceable)."""
    kinds = (ScheduledTask, _TaskFire, Alarm)
    return sum(type(obj) in kinds for obj in gc.get_objects())


# A phone's one-shot is a task, its callback and an Alarm; on mains the
# kernel's own handle is the alarm.
@pytest.mark.parametrize("make_cpu, parts", [(_cpu, 3), (MainsCpu, 2)],
                         ids=["PogoScheduler", "MainsCpu"])
def test_a_fired_one_shot_is_freed_by_reference_count(make_cpu, parts, collection_disabled):
    kernel = Kernel()
    scheduler = PogoScheduler(kernel, make_cpu(kernel))
    ran = []
    before = _alive()
    task = scheduler.schedule(100.0, ran.append, "x")
    assert _alive() == before + parts
    kernel.run_until(1_000.0)
    assert ran == ["x"] and task.fired
    task.cancel()  # after firing: still a no-op
    assert ran == ["x"]
    del task
    # Collection is off: only reference counts can have freed these.
    assert _alive() == before


def test_a_cancelled_one_shot_is_freed_by_reference_count(collection_disabled):
    kernel = Kernel()
    scheduler = PogoScheduler(kernel, _cpu(kernel))
    before = _alive()
    task = scheduler.schedule(100.0, _raise_boom)
    task.cancel()
    del task
    kernel.run_until(1_000.0)
    assert _alive() == before


def test_a_repeating_task_keeps_its_alarm_and_can_be_cancelled():
    kernel = Kernel()
    scheduler = PogoScheduler(kernel, _cpu(kernel))
    ran = []
    task = scheduler.schedule_repeating(100.0, ran.append, "tick")
    kernel.run_until(350.0)
    assert ran == ["tick"] * 3 and task._alarm is not None
    task.cancel()
    kernel.run_until(1_000.0)
    assert ran == ["tick"] * 3
