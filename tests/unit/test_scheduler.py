"""Unit tests for the Pogo scheduler: one class, one contract, over a
phone's CPU (wake locks, alarms, sleep) and a PC's (none of them)."""

import pickle

import pytest

from repro.core.scheduler import WAKE_LOCK_TAG, PogoScheduler
from repro.device.cpu import Cpu, CpuConfig, MainsCpu
from repro.device.power import PowerRail
from repro.sim import Kernel


def phone_cpu(kernel, hold_ms=500.0):
    return Cpu(kernel, PowerRail(kernel), CpuConfig(awake_hold_ms=hold_ms))


def make_pogo(hold_ms=500.0):
    kernel = Kernel()
    cpu = phone_cpu(kernel, hold_ms)
    return kernel, cpu, PogoScheduler(kernel, cpu)


CPUS = {"phone": phone_cpu, "mains": MainsCpu}


@pytest.fixture(params=sorted(CPUS))
def rig(request):
    """``(kernel, scheduler)`` over each kind of CPU."""
    kernel = Kernel()
    return kernel, PogoScheduler(kernel, CPUS[request.param](kernel))


# ---------------------------------------------------------------------------
# On a phone: the power behaviour of Section 4.5
# ---------------------------------------------------------------------------


def test_submit_runs_task_and_releases_lock():
    kernel, cpu, scheduler = make_pogo()
    ran = []
    scheduler.submit(ran.append, "task")
    kernel.run_until(100.0)
    assert ran == ["task"]
    assert cpu.wake_locks_held == 0
    assert scheduler.tasks_run == 1


def test_scheduled_task_uses_alarm_and_wakes_cpu():
    kernel, cpu, scheduler = make_pogo(hold_ms=200.0)
    kernel.run_until(1000.0)
    assert not cpu.awake
    ran = []
    scheduler.schedule(5000.0, lambda: ran.append(kernel.now))
    kernel.run_until(10_000.0)
    assert ran == [6000.0]
    assert cpu.wake_count == 1


def test_schedule_cancel():
    kernel, _, scheduler = make_pogo()
    ran = []
    task = scheduler.schedule(100.0, ran.append, 1)
    task.cancel()
    kernel.run_until(1000.0)
    assert ran == []


def test_repeating_schedule():
    kernel, _, scheduler = make_pogo()
    times = []
    task = scheduler.schedule_repeating(1000.0, lambda: times.append(kernel.now))
    kernel.run_until(3500.0)
    assert len(times) == 3
    task.cancel()
    kernel.run_until(6000.0)
    assert len(times) == 3


def test_serialized_tasks_run_in_fifo_order():
    kernel, _, scheduler = make_pogo()
    order = []

    def task(n):
        order.append(n)
        if n == 0:
            # Submitting more work for the same key while running must
            # not interleave.
            scheduler.submit(task, 2, serial_key="script")

    scheduler.submit(task, 0, serial_key="script")
    scheduler.submit(task, 1, serial_key="script")
    kernel.run_until(100.0)
    assert order == [0, 1, 2]


def test_different_keys_are_independent():
    kernel, _, scheduler = make_pogo()
    order = []
    scheduler.submit(order.append, "a1", serial_key="a")
    scheduler.submit(order.append, "b1", serial_key="b")
    kernel.run_until(100.0)
    assert set(order) == {"a1", "b1"}


def test_errors_contained_and_reported():
    kernel, cpu, scheduler = make_pogo()
    errors = []
    scheduler.on_error.append(lambda key, exc: errors.append((key, type(exc).__name__)))

    def boom():
        raise RuntimeError("x")

    scheduler.submit(boom, serial_key="s")
    scheduler.submit(lambda: None, serial_key="s")  # still runs after error
    kernel.run_until(100.0)
    assert errors == [("s", "RuntimeError")]
    assert scheduler.task_errors == 1
    assert scheduler.tasks_run == 2
    assert cpu.wake_locks_held == 0


def test_stop_and_restart():
    kernel, _, scheduler = make_pogo()
    ran = []
    scheduler.stop()
    scheduler.submit(ran.append, 1)
    task = scheduler.schedule(10.0, ran.append, 2)
    assert task.cancelled
    kernel.run_until(100.0)
    assert ran == []
    scheduler.restart()
    scheduler.submit(ran.append, 3)
    kernel.run_until(200.0)
    assert ran == [3]


def test_wake_lock_is_held_exactly_across_each_task():
    kernel, cpu, scheduler = make_pogo()
    held = []

    def task(fail):
        held.append((cpu.holds_wake_lock(WAKE_LOCK_TAG), cpu.wake_locks_held))
        if fail:
            raise RuntimeError("x")

    for fail in (False, True, False):
        scheduler.submit(task, fail, serial_key="s")
        # Only the task at the head of its queue keeps the CPU up.
        assert cpu.wake_locks_held == 1
    kernel.run_until(100.0)
    assert held == [(True, 1)] * 3
    assert cpu.wake_locks_held == 0 and not cpu.holds_wake_lock(WAKE_LOCK_TAG)
    kernel.run_until(5_000.0)
    assert not cpu.awake


# ---------------------------------------------------------------------------
# The contract, on both CPUs
# ---------------------------------------------------------------------------


class _Witness:
    """Scheduler observer: which keys are running, and any overlap."""

    def __init__(self):
        self.running = []
        self.overlaps = []

    def task_started(self, scheduler, key):
        if key is not None and key in self.running:
            self.overlaps.append(key)
        self.running.append(key)

    def task_finished(self, scheduler, key):
        self.running.remove(key)


def test_submit_schedule_and_repeat(rig):
    kernel, scheduler = rig
    ran = []
    scheduler.submit(ran.append, "now")
    scheduler.schedule(50.0, ran.append, "later")
    task = scheduler.schedule_repeating(100.0, ran.append, "tick")
    kernel.run_until(250.0)
    assert ran == ["now", "later", "tick", "tick"]
    assert scheduler.tasks_run == 4
    task.cancel()
    kernel.run_until(1000.0)
    assert ran.count("tick") == 2


def test_per_key_fifo_one_at_a_time(rig):
    kernel, scheduler = rig
    scheduler.observer = witness = _Witness()
    order = []

    def task(n):
        order.append(n)
        if n == 0:
            scheduler.submit(task, 5, serial_key="k")  # queues behind 1..4

    for n in range(5):
        scheduler.submit(task, n, serial_key="k")
    kernel.run_until(10.0)
    assert order == [0, 1, 2, 3, 4, 5]
    assert witness.overlaps == [] and witness.running == []


def test_free_tasks_do_not_queue_behind_a_key(rig):
    kernel, scheduler = rig
    order = []

    def first():
        order.append("first")
        scheduler.submit(order.append, "keyed", serial_key="k")
        scheduler.submit(order.append, "free")

    scheduler.submit(first, serial_key="k")
    kernel.run_until(10.0)
    # "keyed" waits for first() to return; "free" was never in a queue.
    assert order == ["first", "free", "keyed"]


def test_a_raising_task_is_contained_and_reported(rig):
    kernel, scheduler = rig
    errors = []
    scheduler.on_error.append(lambda key, exc: errors.append((key, type(exc))))

    def boom():
        raise ValueError("nope")

    scheduler.submit(boom, serial_key="s")
    scheduler.submit(boom)
    scheduler.submit(lambda: None, serial_key="s")  # the key is not wedged
    kernel.run_until(10.0)
    assert sorted(errors, key=str) == [("s", ValueError), (None, ValueError)]
    assert scheduler.task_errors == 2
    assert scheduler.tasks_run == 3


def test_one_shot_cancel_before_and_after_firing(rig):
    kernel, scheduler = rig
    ran = []
    early = scheduler.schedule(100.0, ran.append, "early")
    late = scheduler.schedule(100.0, ran.append, "late")
    early.cancel()
    kernel.run_until(1_000.0)
    assert ran == ["late"]
    assert early.cancelled and not early.fired
    assert late.fired and late._alarm is None
    late.cancel()  # after firing: nothing left to cancel
    kernel.run_until(2_000.0)
    assert ran == ["late"]


def test_repeating_cancel_before_and_after_first_firing(rig):
    kernel, scheduler = rig
    ran = []
    never = scheduler.schedule_repeating(100.0, ran.append, "never")
    thrice = scheduler.schedule_repeating(100.0, ran.append, "tick", initial_delay_ms=0.0)
    never.cancel()
    kernel.run_until(250.0)
    assert ran == ["tick"] * 3
    thrice.cancel()
    before = kernel.events_executed
    kernel.run_until(2_000.0)
    assert ran == ["tick"] * 3
    if isinstance(scheduler.cpu, MainsCpu):
        assert kernel.events_executed == before  # the chain is gone


@pytest.mark.parametrize("interval_ms", [0.0, -1.0], ids=["zero", "negative"])
def test_nonpositive_interval_raises(rig, interval_ms):
    _, scheduler = rig
    with pytest.raises(ValueError, match="interval"):
        scheduler.schedule_repeating(interval_ms, lambda: None)


def test_stop_drops_queued_and_scheduled_work(rig):
    kernel, scheduler = rig
    ran = []

    def first():
        ran.append("first")
        scheduler.stop()

    scheduler.submit(first, serial_key="k")
    scheduler.submit(ran.append, "queued", serial_key="k")
    scheduler.submit(ran.append, "free")  # already a kernel event: still runs
    scheduler.schedule(50.0, ran.append, "scheduled")
    kernel.run_until(1_000.0)
    assert ran == ["first", "free"]
    assert scheduler.schedule(10.0, ran.append, "late").cancelled
    assert scheduler.schedule_repeating(10.0, ran.append, "late").cancelled


def test_a_repeating_task_idles_while_stopped_and_resumes_on_restart(rig):
    """Reboot recovery (``DeviceNode._suspend``/``_resume``): a repeating
    task that nobody cancelled keeps its alarm across ``stop()`` and
    submits again after ``restart()``.  Only a phone's middleware is
    ever stopped (``CollectorNode`` has no ``stop()``), and a mains CPU
    behaves the same way."""
    kernel, scheduler = rig
    ticks = []
    scheduler.schedule_repeating(100.0, lambda: ticks.append(kernel.now))
    kernel.run_until(250.0)
    scheduler.stop()
    kernel.run_until(650.0)
    assert ticks == [100.0, 200.0]
    scheduler.restart()
    kernel.run_until(850.0)
    assert ticks == [100.0, 200.0, 700.0, 800.0]


def test_midrun_snapshot_with_a_pending_serial_queue_resumes_identically(rig):
    kernel, scheduler = rig
    log = []
    for n in range(4):
        scheduler.submit(log.append, n, serial_key="k")
    scheduler.schedule(30.0, log.append, "later", serial_key="k")
    scheduler.schedule_repeating(20.0, log.append, "tick")
    kernel.step()
    assert log == [0] and len(scheduler._serial_queues["k"]) == 2
    blob = pickle.dumps((kernel, scheduler, log))

    def finish(kernel, scheduler, log):
        kernel.run_until(100.0)
        return log, scheduler.tasks_run, kernel.events_executed, kernel.now

    uninterrupted = finish(kernel, scheduler, log)
    assert finish(*pickle.loads(blob)) == uninterrupted
    assert finish(*pickle.loads(blob)) == uninterrupted
    assert log == [0, 1, 2, 3, "tick", "later", "tick", "tick", "tick", "tick"]
