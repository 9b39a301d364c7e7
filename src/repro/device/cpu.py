"""CPU sleep/wake model: wake locks, alarms and sleep-frozen timers.

Section 4.5 of the paper describes the Android power-management semantics
Pogo is built around, and Section 4.7's tail-detection trick depends on one
subtle behaviour, all of which this module reproduces:

* With no wake locks held and no ongoing activity, the CPU goes to sleep.
  After its last activity it stays awake for "typically more than a
  second" before sleeping (:attr:`CpuConfig.awake_hold_ms`).
* While asleep the CPU can only be woken by an **alarm** (or an external
  event such as incoming network data, modelled as :meth:`Cpu.wake`).
* Ordinary timers (Java's ``Thread.sleep``) are **frozen** while the CPU
  sleeps: they only continue counting down once something *else* has woken
  the CPU.  Pogo uses exactly this to piggyback on other apps' wakeups —
  see :class:`SleepFrozenTimer` and :mod:`repro.core.tailsync`.

:class:`MainsCpu` is the other kind of CPU the middleware runs on: a
researcher's PC, which has none of these semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ..sim.kernel import EventHandle, Kernel


@dataclass(frozen=True)
class CpuConfig:
    """Power and timing parameters of the CPU model.

    Defaults approximate a 2012-era handset (Galaxy Nexus class): tens of
    milliwatts asleep (the whole platform floor is accounted elsewhere),
    a couple hundred milliwatts with the application processor awake, and
    roughly a second of lingering awake time after the last activity
    ("the processor will stay awake for typically more than a second
    before going back to sleep", Section 4.7).
    """

    sleep_w: float = 0.003
    awake_w: float = 0.160
    awake_hold_ms: float = 1100.0


#: Configs are immutable, so every CPU built without one shares this.
_DEFAULT_CONFIG = CpuConfig()


class Alarm:
    """Handle for a one-shot or repeating CPU alarm."""

    __slots__ = (
        "_cpu", "_interval", "_callback", "_args", "_handle", "cancelled",
        "fire_count",
    )

    def __init__(self, cpu: "Cpu", interval_ms: Optional[float], callback: Callable[..., Any], args: tuple):
        self._cpu = cpu
        self._interval = interval_ms
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self.cancelled = False
        self.fire_count = 0

    def _arm(self, delay: float) -> None:
        handle = self._handle
        if handle is not None and handle.fired and not handle.cancelled:
            # Recycle the fired handle's storage instead of allocating a
            # fresh event per tick; the sequence number is consumed at
            # the same point, so same-instant FIFO order is unchanged.
            self._cpu._kernel.rearm(handle, delay)
        else:
            self._handle = self._cpu._kernel.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fire_count += 1
        self._cpu.wake("alarm")  # wake() also records the activity
        if self._interval is None:
            # The handle's callback is this alarm's own bound method — a
            # cycle.  A one-shot is done with it, and lets go so that it
            # is freed by reference count (see repro.sim.hostgc).
            self._handle = None
        elif not self.cancelled:
            self._arm(self._interval)
        self._callback(*self._args)

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class SleepFrozenTimer:
    """A timer that only counts down while the CPU is awake.

    This is the simulation analogue of ``Thread.sleep`` on Android: the
    timer's deadline is suspended when the CPU sleeps and resumes when the
    CPU is woken *by some other cause*.  Firing does not itself count as
    CPU activity, so a component polling on such timers (Pogo's tail
    detector) never extends the awake window or causes wakeups of its own.
    """

    __slots__ = (
        "_cpu", "_callback", "remaining_ms", "cancelled", "fired", "_handle",
        "_resumed_at",
    )

    def __init__(self, cpu: "Cpu", duration_ms: float, callback: Callable[[], Any]):
        if duration_ms < 0:
            raise ValueError("timer duration must be non-negative")
        self._cpu = cpu
        self._callback = callback
        self.remaining_ms = duration_ms
        self.cancelled = False
        self.fired = False
        self._handle: Optional[EventHandle] = None
        self._resumed_at: Optional[float] = None
        cpu._frozen_timers.add(self)
        if cpu.awake:
            self._resume()

    def restart(self, duration_ms: float) -> None:
        """Re-run a *fired* timer for another ``duration_ms``.

        Polling loops (the tail detector) re-run the same timer once a
        second for the whole simulation; restarting recycles the timer
        object and its kernel handle instead of allocating both per poll.
        """
        if duration_ms < 0:
            raise ValueError("timer duration must be non-negative")
        if self.cancelled or not self.fired:
            raise ValueError("restart() requires a timer that has fired")
        self.fired = False
        self.remaining_ms = duration_ms
        self._cpu._frozen_timers.add(self)
        if self._cpu.awake:
            self._resume()

    # -- called by the Cpu on state changes ----------------------------
    def _resume(self) -> None:
        if self.cancelled or self.fired:
            return
        self._resumed_at = self._cpu._kernel.now
        handle = self._handle
        if handle is not None and handle.fired and not handle.cancelled:
            self._cpu._kernel.rearm(handle, self.remaining_ms)
        else:
            self._handle = self._cpu._kernel.schedule(self.remaining_ms, self._fire)

    def _pause(self) -> None:
        if self.cancelled or self.fired or self._handle is None:
            return
        elapsed = self._cpu._kernel.now - (self._resumed_at or 0.0)
        remaining = self.remaining_ms - elapsed
        if remaining <= 0.0:
            # The deadline landed within the awake window (possibly at
            # the very instant the CPU re-sleeps): the timer elapsed, so
            # let the pending fire event run rather than freezing it.
            return
        self.remaining_ms = remaining
        self._handle.cancel()
        self._handle = None
        self._resumed_at = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired = True
        self._cpu._frozen_timers.discard(self)
        self._callback()

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._cpu._frozen_timers.discard(self)


class Cpu:
    """The application processor: awake/asleep with wake locks and alarms."""

    __slots__ = (
        "_kernel", "_rail", "config", "name", "awake", "_wake_locks",
        "_last_activity", "_sleep_check", "_frozen_timers", "on_wake",
        "on_sleep", "wake_count",
    )

    def __init__(
        self,
        kernel: Kernel,
        rail,
        config: Optional[CpuConfig] = None,
        name: str = "cpu",
    ) -> None:
        self._kernel = kernel
        self._rail = rail
        self.config = config or _DEFAULT_CONFIG
        self.name = name
        self.awake = True
        self._wake_locks: Dict[str, int] = {}
        self._last_activity = kernel.now
        self._sleep_check: Optional[EventHandle] = None
        self._frozen_timers: Set[SleepFrozenTimer] = set()
        self.on_wake: List[Callable[[str], None]] = []
        self.on_sleep: List[Callable[[], None]] = []
        self.wake_count = 0
        self._rail.set_draw(self.name, self.config.awake_w)
        self.note_activity()

    # ------------------------------------------------------------------
    # Wake locks
    # ------------------------------------------------------------------
    def acquire_wake_lock(self, tag: str) -> None:
        """Acquire (or nest) a wake lock; wakes the CPU if asleep."""
        self.wake(f"wakelock:{tag}")
        self._wake_locks[tag] = self._wake_locks.get(tag, 0) + 1
        self.note_activity()

    def release_wake_lock(self, tag: str) -> None:
        """Release one hold on ``tag``.  Unknown tags raise ``KeyError``."""
        count = self._wake_locks[tag]
        if count <= 1:
            del self._wake_locks[tag]
        else:
            self._wake_locks[tag] = count - 1
        self.note_activity()

    @property
    def wake_locks_held(self) -> int:
        return sum(self._wake_locks.values())

    def holds_wake_lock(self, tag: str) -> bool:
        return tag in self._wake_locks

    # ------------------------------------------------------------------
    # Sleep / wake
    # ------------------------------------------------------------------
    def wake(self, reason: str = "external") -> bool:
        """Wake the CPU.  Returns ``True`` if it was asleep."""
        self.note_activity()
        if self.awake:
            return False
        self.awake = True
        self.wake_count += 1
        self._rail.set_draw(self.name, self.config.awake_w)
        for timer in list(self._frozen_timers):
            timer._resume()
        for listener in list(self.on_wake):
            listener(reason)
        return True

    def note_activity(self) -> None:
        """Record CPU activity; postpones sleep by ``awake_hold_ms``."""
        self._last_activity = self._kernel.now
        check = self._sleep_check
        if check is not None:
            if not (check.fired or check.cancelled):
                return
            if check.fired and not check.cancelled:
                # The sleep-check handle is the CPU's permanent timer
                # slot: recycle it instead of allocating one per wakeup.
                self._kernel.rearm(check, self.config.awake_hold_ms)
                return
        self._sleep_check = self._kernel.schedule(
            self.config.awake_hold_ms, self._maybe_sleep
        )

    def _maybe_sleep(self) -> None:
        check = self._sleep_check  # the handle that just fired
        if not self.awake:
            return
        if self._wake_locks:
            # Re-check when the hold would expire after the lock is gone.
            self._kernel.rearm(check, self.config.awake_hold_ms)
            return
        idle_for = self._kernel.now - self._last_activity
        # Millisecond tolerance and a floor on the re-arm delay: at large
        # simulated times the float residue of (hold - idle_for) can be
        # smaller than the clock's representable step, and rescheduling
        # by it would freeze simulated time (an infinite same-instant
        # loop).  Nothing in the model cares about sub-ms sleep timing.
        if idle_for + 1.0 < self.config.awake_hold_ms:
            self._kernel.rearm(
                check, max(self.config.awake_hold_ms - idle_for, 1.0)
            )
            return
        self._sleep_now()

    def _sleep_now(self) -> None:
        self.awake = False
        self._rail.set_draw(self.name, self.config.sleep_w)
        for timer in list(self._frozen_timers):
            timer._pause()
        for listener in list(self.on_sleep):
            listener()

    # ------------------------------------------------------------------
    # Alarms and timers
    # ------------------------------------------------------------------
    def set_alarm(self, delay_ms: float, callback: Callable[..., Any], *args: Any) -> Alarm:
        """One-shot alarm: wakes the CPU at fire time, then runs callback."""
        alarm = Alarm(self, None, callback, args)
        alarm._arm(delay_ms)
        return alarm

    def set_repeating_alarm(
        self, interval_ms: float, callback: Callable[..., Any], *args: Any, initial_delay_ms: Optional[float] = None
    ) -> Alarm:
        """Fixed-rate repeating alarm (like Android's ``setRepeating``)."""
        if interval_ms <= 0:
            raise ValueError("alarm interval must be positive")
        alarm = Alarm(self, interval_ms, callback, args)
        alarm._arm(interval_ms if initial_delay_ms is None else initial_delay_ms)
        return alarm

    def sleep_frozen_timer(self, duration_ms: float, callback: Callable[[], Any]) -> SleepFrozenTimer:
        """Timer with ``Thread.sleep`` semantics (frozen during CPU sleep)."""
        return SleepFrozenTimer(self, duration_ms, callback)


class MainsCpu:
    """The CPU of a machine on mains power: it never sleeps.

    A researcher's PC runs the same middleware as the phones (Section
    4.2), so it runs the same scheduler, over this: wake locks hold
    nothing, there is no awake window to extend, and an "alarm" is a
    plain kernel timer, whose :class:`~repro.sim.kernel.EventHandle`
    already has the ``cancel()`` an :class:`Alarm` has.
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel

    def acquire_wake_lock(self, tag: str) -> None:
        pass

    def release_wake_lock(self, tag: str) -> None:
        pass

    def note_activity(self) -> None:
        pass

    def set_alarm(self, delay_ms: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        return self._kernel.schedule(delay_ms, callback, *args)

    def set_repeating_alarm(
        self, interval_ms: float, callback: Callable[..., Any], *args: Any, initial_delay_ms: Optional[float] = None
    ) -> EventHandle:
        return self._kernel.schedule_repeating(
            interval_ms, callback, *args, initial_delay=initial_delay_ms
        )
