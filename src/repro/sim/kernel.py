"""Discrete-event simulation kernel.

The kernel is the substrate everything else in this reproduction runs on.
The paper deployed Pogo on real Android phones; we do not have those, so
the phone hardware (CPU sleep states, the 3G modem, the battery) and the
passage of time are simulated.  The kernel provides:

* a simulated clock in **milliseconds** (`Kernel.now`),
* an event queue with stable FIFO ordering for simultaneous events,
* cancellable timers (`Kernel.schedule` returns a handle),
* repeating timers that re-arm in place (`Kernel.schedule_repeating`),
  and a `rearm` primitive that recycles a fired handle's storage, and
* a run loop with optional horizon (`run_until`) and step limits.

Hot-path design (the fleet-scale requirements):

* The queue is one entry per *instant*, not per event (a calendar
  queue in the sense of Brown, CACM 1988, with one bucket per distinct
  time): a heap of the distinct pending times, and a dict from each time
  to the list of its handles in scheduling order.  Scheduling for an
  instant that is already pending is a dict hit and an ``append``; only
  the first event of an instant pays a heap push, and the run loop pays
  one heap pop per instant.  A synchronized fleet — thousands of phones
  whose timers fire together — queues thousands of events per instant,
  so the heap it sifts is small and its pops are rare.
* Cancellation is lazy (the handle stays in its list as a tombstone),
  but the kernel keeps live/tombstone counters and compacts the lists in
  place once tombstones outnumber live events — cancel-heavy workloads
  (chaos campaigns, tail-sync timers) cannot grow the queue without
  bound.
* ``pending_events`` is O(1) and ``next_event_time`` is a heap peek
  (plus dropping the tombstones at the head of the queue).
* ``run`` and ``run_until`` share one tight loop over local bindings.
* Every callback runs inside :func:`repro.sim.hostgc.dispatching`: the
  host's cyclic collector is paused until the call returns.

Determinism: the kernel itself is fully deterministic.  All randomness in
the simulation goes through :mod:`repro.sim.randomness` so that a single
seed reproduces an entire experiment bit-for-bit.  Same-time events fire
in scheduling order, exactly: a handle is appended to its instant's list
when it is scheduled, so a list is in scheduling order by construction;
and the running instant's list is taken out of the dict before its first
callback, so an event scheduled for the running instant starts a fresh
list at that time, which runs right after the current one.  A repeating
timer re-arms immediately before its callback, where a re-scheduling
callback would have scheduled its next tick, so optimized and naive
schedules interleave identically.  Whatever stops a run part-way
through an instant — a callback that raises, ``run(max_events)``, a
re-entrant ``run`` from a callback, a compaction, ``next_event_time``
read from a callback — puts the rest of that
instant back at the front of its time's list, ahead of anything
scheduled for it later.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .hostgc import dispatching
from .metrics import MetricsRegistry
from .spans import SpanRecorder

#: Convenience time constants, all in milliseconds.
MILLISECOND = 1.0
SECOND = 1000.0
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR

#: Compaction threshold: drop tombstones when at least this many have
#: accumulated *and* they outnumber live events.  The floor keeps small
#: simulations from compacting constantly; the ratio bounds queue memory
#: at ~2x the live set for any cancellation pattern.
COMPACT_MIN_TOMBSTONES = 64


class SimulationError(Exception):
    """Raised for kernel misuse (negative delays, running a stopped kernel)."""


class EventHandle:
    """Handle for a scheduled event; allows cancellation and inspection.

    Instances are returned by :meth:`Kernel.schedule` and
    :meth:`Kernel.schedule_at`.  They are single-shot: once the callback
    has run (or the event is cancelled) the handle is inert — unless the
    owner recycles it with :meth:`Kernel.rearm`.  Handles created by
    :meth:`Kernel.schedule_repeating` carry an ``interval`` and are
    re-armed by the kernel itself, in place, before each callback.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "interval", "_kernel")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple,
        kernel: Optional["Kernel"] = None,
        interval: Optional[float] = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.interval = interval
        self._kernel = kernel

    def cancel(self) -> bool:
        """Cancel the event.  Returns ``True`` if it had not yet fired."""
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:
            kernel._note_cancel()
        return True

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not (self.fired or self.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        kind = "repeating " if self.interval is not None else ""
        return f"<EventHandle {kind}t={self.time:.3f} {state} {self.callback!r}>"


class Kernel:
    """A minimal, fast discrete-event simulator.

    Typical use::

        kernel = Kernel()
        kernel.schedule(1000.0, lambda: print("one second in"))
        kernel.run()

    Events scheduled for the same time fire in scheduling order (FIFO),
    which keeps component interactions deterministic.
    """

    #: What the registry reads off the kernel (:meth:`MetricsRegistry.attach`).
    METRICS = {
        "kernel.events": "events_executed",
        "kernel.pending_events": "pending_events",
        "kernel.tombstones": "_tombstones",
        "kernel.compactions": "compactions",
    }

    def __init__(self) -> None:
        self._now = 0.0
        #: Heap of the distinct times that have a list in ``_instants``.
        self._times: List[float] = []
        #: Time → the handles due then, in scheduling order.  The running
        #: instant's list is not in here: the run loop has taken it.
        self._instants: Dict[float, List[EventHandle]] = {}
        #: The running instant's iterator, so that whatever stops or
        #: re-enters the run part-way through an instant can put the
        #: rest back (:meth:`_requeue`).  Exhausted or ``None`` between
        #: instants.
        self._rest: Optional[Iterator[EventHandle]] = None
        #: Live (non-cancelled) entries in the queue, maintained by
        #: schedule/cancel/dispatch — pending_events reads it in O(1).
        self._live = 0
        #: Cancelled entries still sitting in an instant's list.
        self._tombstones = 0
        #: Compactions performed (read by tests and the telemetry plane).
        self.compactions = 0
        #: Total number of events executed; useful in tests and benchmarks.
        self.events_executed = 0
        #: The kernel's metrics plane.  Components hang their counters and
        #: histograms here; the kernel attaches itself, so the event count
        #: is read at snapshot time and the run loop pays nothing.
        self.metrics = MetricsRegistry()
        self.metrics.attach(self)
        #: The kernel's flight recorder.  Components pre-bind hop handles
        #: (``kernel.spans.hop("buffer.dwell")``) at construction; the ring
        #: bounds memory, and the hop latencies land in the registry.
        self.spans = SpanRecorder(self.metrics, clock=self.read_now)

    # ------------------------------------------------------------------
    # Pickle-safe clock callable
    # ------------------------------------------------------------------
    def read_now(self) -> float:
        """The clock as a picklable callable (for recorders and tracks)."""
        return self._now

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        handle = EventHandle(time, callback, args, self)
        self._enqueue(handle, time)
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        handle = EventHandle(time, callback, args, self)
        self._enqueue(handle, time)
        return handle

    def schedule_repeating(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        initial_delay: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` every ``interval`` ms.

        The returned handle is re-armed *in place* by the run loop —
        no per-tick ``EventHandle`` or closure allocation — and re-arming
        is drift-free: the next deadline is ``fire_time + interval``, not
        ``now + interval``.  The re-arm happens immediately **before**
        the callback runs, exactly where a re-scheduling closure would
        have scheduled its next tick, so converting a closure chain to a
        native repeating timer preserves same-instant FIFO order
        bit-for-bit.  Cancel via ``handle.cancel()``.
        """
        if interval <= 0:
            raise SimulationError(f"repeating interval must be positive: {interval!r}")
        first = interval if initial_delay is None else initial_delay
        if first < 0:
            raise SimulationError(f"negative delay: {first!r}")
        time = self._now + first
        handle = EventHandle(time, callback, args, self, interval=interval)
        self._enqueue(handle, time)
        return handle

    def rearm(self, handle: EventHandle, delay: float) -> EventHandle:
        """Recycle a *fired* handle: schedule it again ``delay`` ms out.

        Components with a permanent timer slot (the CPU's sleep check,
        alarm re-arms, the tail detector's poll timer) call this instead
        of allocating a fresh handle per cycle.  Only a handle that has
        fired and is no longer in the queue may be re-armed; re-arming a
        pending or cancelled handle would corrupt the queue's tombstone
        bookkeeping, so it raises.
        """
        if not handle.fired or handle.cancelled:
            raise SimulationError(f"can only rearm a fired handle: {handle!r}")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        handle.time = time
        handle.fired = False
        self._enqueue(handle, time)
        return handle

    def _enqueue(self, handle: EventHandle, time: float) -> None:
        """Append ``handle`` to ``time``'s list, opening the instant if new."""
        bucket = self._instants.get(time)
        if bucket is None:
            self._instants[time] = [handle]
            heapq.heappush(self._times, time)
        else:
            bucket.append(handle)
        self._live += 1

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by ``EventHandle.cancel`` for queued events."""
        self._live -= 1
        tombstones = self._tombstones + 1
        self._tombstones = tombstones
        if tombstones >= COMPACT_MIN_TOMBSTONES and tombstones > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones from every list, and instants left empty.

        The rest of a running instant is put back first, so it is
        compacted too.  Each list keeps its order; the heap is rebuilt
        in place (slice assignment), so run loops holding a local
        reference to it keep seeing the same list object.
        """
        self._requeue()
        instants = self._instants
        for time, bucket in list(instants.items()):
            bucket[:] = [handle for handle in bucket if not handle.cancelled]
            if not bucket:
                del instants[time]
        times = self._times
        times[:] = instants
        heapq.heapify(times)
        self._tombstones = 0
        self.compactions += 1

    def _requeue(self) -> None:
        """Put the rest of the running instant back at the front of its list.

        Called where a run stops or is re-entered part-way through an
        instant, and before anything reads or rewrites the whole queue.
        Draining the iterator also ends the running loop's pass over it,
        so nothing is dispatched twice.
        """
        rest = self._rest
        if rest is None:
            return
        self._rest = None
        left = list(rest)
        if not left:
            return
        time = self._now
        later = self._instants.get(time)
        if later is None:
            heapq.heappush(self._times, time)
        else:
            left += later
        self._instants[time] = left

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        if max_events is None:
            return self._dispatch(math.inf, -1)
        return self._dispatch(math.inf, max(max_events, 0))

    def run_until(self, time: float) -> int:
        """Run all events up to and including ``time``; clock ends at ``time``.

        Components with periodic behaviour keep the queue non-empty, so
        ``run_until`` is the normal way to run a phone simulation for a
        fixed duration.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards: {time} < {self._now}")
        executed = self._dispatch(time, -1)
        if time > self._now:
            self._now = time
        return executed

    def _dispatch(self, horizon: float, limit: int) -> int:
        """Run the instants due by ``horizon``, stopping after ``limit``
        events (``-1``: no limit).  Returns the number executed."""
        executed = 0
        times = self._times
        instants = self._instants
        pop = heapq.heappop
        enqueue = self._enqueue
        with dispatching():
            # A re-entrant run (from a callback) first puts back what the
            # outer run had left of its instant, so it runs in heap order.
            self._requeue()
            try:
                while times and times[0] <= horizon and executed != limit:
                    time = pop(times)
                    self._rest = rest = iter(instants.pop(time))
                    for handle in rest:
                        if handle.cancelled:
                            self._tombstones -= 1
                            continue
                        # The clock moves only for an event that runs.
                        self._now = time
                        self._live -= 1
                        interval = handle.interval
                        if interval is None:
                            handle.fired = True
                        else:
                            at = handle.time = time + interval
                            enqueue(handle, at)
                        self.events_executed += 1
                        executed += 1
                        handle.callback(*handle.args)
                        if executed == limit:
                            break
            finally:
                self._requeue()
        return executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled tombstones excluded)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when idle."""
        self._requeue()
        times = self._times
        instants = self._instants
        while times:
            time = times[0]
            bucket = instants[time]
            for index, handle in enumerate(bucket):
                if not handle.cancelled:
                    # Tombstones ahead of it go, as a heap pop would drop them.
                    if index:
                        del bucket[:index]
                        self._tombstones -= index
                    return time
            heapq.heappop(times)
            del instants[time]
            self._tombstones -= len(bucket)
        return None
