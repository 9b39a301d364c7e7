"""Pogo's scheduler: wake locks, alarms and a serialized task pool.

Section 4.5: "The Pogo framework abstracts away the complexities of
setting alarms and managing wake locks through a *scheduler* component
that executes submitted tasks in a thread pool, and supports delayed
execution. ... When there are no tasks to execute, the CPU can safely go
to sleep."

The simulation analogue: tasks run as kernel events with a Pogo wake lock
held across each execution, and delayed tasks use CPU alarms so the
device can sleep in between.  The scheduler is *about* the CPU, so the
CPU is what differs between a phone and a researcher's PC: a collector
node runs this same class over a :class:`~repro.device.cpu.MainsCpu`,
whose wake locks hold nothing and whose alarms are plain kernel timers.
Two semantics from the paper are enforced on top:

* **Per-key serialization.**  "the threads are synchronized so that only
  a single thread will run code from a given script at any time" — tasks
  submitted with the same ``serial_key`` run strictly in FIFO order, one
  at a time.
* **Error containment.**  A task that raises is recorded and reported to
  an error listener, never propagated into the kernel loop.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..sim.kernel import EventHandle, Kernel
from ..device.cpu import Alarm, Cpu, MainsCpu

#: The wake-lock tag Pogo holds while running tasks.
WAKE_LOCK_TAG = "pogo-scheduler"


class ScheduledTask:
    """Handle for a delayed task."""

    __slots__ = ("cancelled", "fired", "_alarm")

    def __init__(self) -> None:
        self.cancelled = False
        self.fired = False
        #: A phone's :class:`Alarm`, or the kernel timer a mains CPU
        #: hands out; both have ``cancel()``.
        self._alarm: Union[Alarm, EventHandle, None] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None


class _TaskFire:
    """Picklable alarm/timer callback that submits a scheduled task.

    A nested ``fire()`` closure would work identically but cannot be
    pickled, and scheduler timers are reachable from the kernel's event
    queue — part of the Shard snapshot graph.  A firing while the
    scheduler is stopped does nothing and leaves a repeating alarm armed,
    so the same task runs again after :meth:`PogoScheduler.restart`
    (a phone's reboot recovery).

    ``task._alarm`` holds the alarm whose callback this is, which holds
    the task: a reference cycle.  A repeating chain needs it for as long
    as it runs; a one-shot (``once``) lets go of the alarm when it fires,
    so a finished task is freed by reference count and never waits for
    the cyclic collector, which is paused while the kernel dispatches
    (see :func:`repro.sim.hostgc.dispatching`).
    """

    __slots__ = ("scheduler", "task", "fn", "args", "serial_key", "once")

    def __init__(self, scheduler, task: "ScheduledTask", fn: Callable, args: tuple,
                 serial_key: Optional[str], once: bool = False) -> None:
        self.scheduler = scheduler
        self.task = task
        self.fn = fn
        self.args = args
        self.serial_key = serial_key
        self.once = once

    def __call__(self) -> None:
        task = self.task
        if task.cancelled or self.scheduler.stopped:
            return
        task.fired = True
        if self.once:
            task._alarm = None
        self.scheduler.submit(self.fn, *self.args, serial_key=self.serial_key)


class PogoScheduler:
    """Runs middleware and script code with correct power behaviour."""

    __slots__ = (
        "kernel", "cpu", "name", "tasks_run", "task_errors", "on_error",
        "_serial_queues", "_serial_running", "stopped", "_spans", "_h_task", "observer",
    )

    def __init__(self, kernel: Kernel, cpu: Union[Cpu, MainsCpu], name: str = "scheduler") -> None:
        self.kernel = kernel
        self.cpu = cpu
        self.name = name
        self.tasks_run = 0
        self.task_errors = 0
        #: Called with (serial_key, exception) when a task raises.
        self.on_error: List[Callable[[Optional[str], Exception], None]] = []
        #: serial key -> queue of (fn, args, enqueued_ms)
        self._serial_queues: Dict[str, Deque[Tuple[Callable, tuple, float]]] = {}
        self._serial_running: Dict[str, bool] = {}
        self.stopped = False
        self._spans = kernel.spans
        self._h_task = kernel.spans.hop("scheduler.task")
        #: Chaos seam: a witness with ``task_started(scheduler, key)`` /
        #: ``task_finished(scheduler, key)``, used by the invariant
        #: monitor to prove the paper's serialization guarantee ("only a
        #: single thread will run code from a given script at any time").
        self.observer = None

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any, serial_key: Optional[str] = None) -> None:
        """Run a task as soon as possible, holding the Pogo wake lock."""
        if self.stopped:
            return
        if serial_key is None:
            self.cpu.acquire_wake_lock(WAKE_LOCK_TAG)
            self.kernel.schedule(0.0, self._run_free, fn, args)
        else:
            queue = self._serial_queues.get(serial_key)
            if queue is None:
                queue = self._serial_queues[serial_key] = deque()
            queue.append((fn, args, self.kernel.now))
            self._pump_serial(serial_key)

    def schedule(
        self,
        delay_ms: float,
        fn: Callable[..., Any],
        *args: Any,
        serial_key: Optional[str] = None,
    ) -> ScheduledTask:
        """Run a task after ``delay_ms``, waking the CPU via an alarm."""
        task = ScheduledTask()
        if self.stopped:
            task.cancelled = True
            return task

        fire = _TaskFire(self, task, fn, args, serial_key, once=True)
        task._alarm = self.cpu.set_alarm(delay_ms, fire)
        return task

    def schedule_repeating(
        self,
        interval_ms: float,
        fn: Callable[..., Any],
        *args: Any,
        initial_delay_ms: Optional[float] = None,
    ) -> ScheduledTask:
        """Run a task at a fixed rate, on no serial key."""
        if interval_ms <= 0:
            raise ValueError("interval must be positive")
        task = ScheduledTask()
        if self.stopped:
            task.cancelled = True
            return task

        fire = _TaskFire(self, task, fn, args, None)
        task._alarm = self.cpu.set_repeating_alarm(
            interval_ms, fire, initial_delay_ms=initial_delay_ms
        )
        return task

    def stop(self) -> None:
        """Stop accepting work (middleware shutdown)."""
        self.stopped = True
        self._serial_queues.clear()
        self._serial_running.clear()

    def restart(self) -> None:
        """Accept work again (after a reboot)."""
        self.stopped = False

    # ------------------------------------------------------------------
    def _run_free(self, fn: Callable, args: tuple) -> None:
        try:
            self._execute(fn, args, None)
        finally:
            self.cpu.release_wake_lock(WAKE_LOCK_TAG)

    def _pump_serial(self, key: str) -> None:
        if self._serial_running.get(key) or self.stopped:
            return
        queue = self._serial_queues.get(key)
        if not queue:
            return
        self._serial_running[key] = True
        fn, args, enqueued_ms = queue.popleft()
        self.cpu.acquire_wake_lock(WAKE_LOCK_TAG)
        self.kernel.schedule(0.0, self._run_serial, key, fn, args, enqueued_ms)

    def _run_serial(self, key: str, fn: Callable, args: tuple, enqueued_ms: float = 0.0) -> None:
        if self._spans.enabled:
            # Span covers submit -> execution start: the serialization
            # queue wait (a slow handler starves its siblings here).
            self._h_task.record(
                0, self._spans.active_parent, enqueued_ms, self.kernel.now, ("key",), key
            )
        try:
            self._execute(fn, args, key)
        finally:
            self.cpu.release_wake_lock(WAKE_LOCK_TAG)
            self._serial_running[key] = False
            self._pump_serial(key)

    def _execute(self, fn: Callable, args: tuple, key: Optional[str]) -> None:
        self.tasks_run += 1
        self.cpu.note_activity()
        observer = self.observer
        if observer is not None:
            observer.task_started(self, key)
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - containment is the point
            self.task_errors += 1
            for listener in list(self.on_error):
                listener(key, exc)
        finally:
            if observer is not None:
                observer.task_finished(self, key)
