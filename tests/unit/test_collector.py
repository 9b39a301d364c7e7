"""The simulator's collector discipline (:mod:`repro.sim.hostgc`).

Three things are held here:

* **State is as found.**  ``gc.isenabled()``, ``gc.get_threshold()`` and
  ``gc.get_freeze_count()`` read the same before and after every public
  call that enters one of the two scopes — on normal return, on an
  exception, after ``kernel.stop()``, with collection disabled by the
  caller, nested, and with a host that froze its own heap.
* **Nothing is retained.**  Shards built, run and dropped give every
  object back at the next full pass, and the permanent generation is
  empty again.
* **No cyclic garbage is manufactured.**  What the kernel freezes is out
  of the collector's reach for the whole dispatch, so the simulator may
  not produce reference cycles per event: ``DEBUG_SAVEALL`` runs of the
  two fleet workloads leave no ``repro.*`` instance in ``gc.garbage``.

``gc.freeze`` semantics are the interpreter's, not ours, so CI runs this
file on every Python in the tier-1 matrix.
"""

import gc
import pickle

import pytest

from repro.core.scheduler import PogoScheduler, ScheduledTask, _TaskFire
from repro.core.shard import Shard
from repro.device.cpu import Alarm, Cpu, MainsCpu
from repro.device.power import PowerRail
from repro.fleet.partition import fleet_spec, plan_fleet
from repro.fleet.worker import setup_battery_monitor
from repro.scenarios import build_preset
from repro.scenarios.workload import setup_scenario
from repro.sim import Kernel
from repro.sim.hostgc import building, dispatching


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
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
class TestDispatchLeavesTheCollectorAsFound:
    def test_normal_return_and_frozen_in_between(self, runner):
        kernel = Kernel()
        seen = []
        kernel.schedule(10.0, lambda: seen.append(gc.get_freeze_count()))
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        # The callback ran with the heap parked: that is the point.
        assert seen and seen[0] > 0

    def test_callback_raises(self, runner):
        kernel = Kernel()
        kernel.schedule(10.0, _raise_boom)
        before = collector_state()
        with pytest.raises(Boom):
            RUNNERS[runner](kernel)
        assert collector_state() == before

    def test_after_stop(self, runner):
        kernel = Kernel()
        kernel.schedule(10.0, kernel.stop)
        kernel.schedule(20.0, _raise_boom)  # never reached
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        assert kernel.pending_events == 1

    def test_stopped_before_the_call(self, runner):
        kernel = Kernel()
        kernel.schedule(10.0, _raise_boom)
        kernel.stop()
        before = collector_state()
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
        counts = []

        def outer():
            counts.append(gc.get_freeze_count())
            kernel.run_until(kernel.now + 50.0)
            # The inner call found the heap parked and left it parked.
            counts.append(gc.get_freeze_count())

        kernel.schedule(10.0, outer)
        kernel.schedule(20.0, lambda: counts.append("inner event"))
        before = collector_state()
        RUNNERS[runner](kernel)
        assert collector_state() == before
        assert counts[1] == "inner event"
        assert counts[0] > 0 and counts[2] > 0.99 * counts[0]

    def test_host_frozen_heap_is_never_unfrozen_by_us(self, runner, host_frozen_heap):
        kernel = Kernel()
        seen = []
        kernel.schedule(10.0, lambda: seen.append(gc.get_freeze_count()))
        RUNNERS[runner](kernel)
        assert seen[0] > host_frozen_heap
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
                assert gc.get_freeze_count() > 0
                with building(), dispatching():
                    raise Boom()
    assert collector_state() == before


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

def _repro_garbage(run):
    """Run ``run()`` under ``DEBUG_SAVEALL`` and return the ``repro.*``
    instances the collector had to free (with the run's result kept
    alive, so a dropped shard does not count)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keep = run()
        gc.collect()
        return sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
            }
        ), keep
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


def test_battery_monitor_half_hour_makes_no_cyclic_garbage():
    def run():
        shard = Shard(fleet_spec(20, seed=9))
        setup_battery_monitor(shard)
        shard.run(hours=0.5)
        return shard

    garbage, shard = _repro_garbage(run)
    assert garbage == []
    assert shard.kernel.events_executed > 5_000


def test_stadium_evening_makes_no_cyclic_garbage():
    def run():
        spec, shard = _stadium()
        shard.run(hours=spec.hours)
        return shard

    garbage, shard = _repro_garbage(run)
    assert garbage == []
    assert shard.kernel.events_executed > 5_000


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
