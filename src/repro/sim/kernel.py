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

* The heap holds ``(time, seq, handle)`` tuples, so ordering is decided
  by C-level tuple comparison — no Python ``__lt__`` calls per sift.
* Cancellation is lazy (the heap entry becomes a tombstone), but the
  kernel keeps live/tombstone counters and compacts the heap in place
  once tombstones outnumber live events — cancel-heavy workloads (chaos
  campaigns, tail-sync timers) cannot grow the queue without bound.
* ``pending_events`` is O(1) and ``next_event_time`` is a heap peek
  (plus popping any tombstones that have surfaced).
* ``run`` / ``run_until`` are tight loops over local bindings; the stop
  flag is only consulted where it can actually change (after a
  callback), not re-read per queue operation.
* Every callback runs inside :func:`repro.sim.hostgc.dispatching`: the
  host's cyclic collector is paused until the call returns.

Determinism: the kernel itself is fully deterministic.  All randomness in
the simulation goes through :mod:`repro.sim.randomness` so that a single
seed reproduces an entire experiment bit-for-bit.  Same-time events fire
in scheduling order (``seq``), and a repeating timer's re-arm consumes
its sequence number at the same point the equivalent re-scheduling
callback would have, so optimized and naive schedules interleave
identically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from .hostgc import dispatching
from .metrics import MetricsRegistry
from .spans import SpanRecorder

#: Convenience time constants, all in milliseconds.
MILLISECOND = 1.0
SECOND = 1000.0
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR

#: Compaction threshold: rebuild the heap when at least this many
#: tombstones have accumulated *and* they outnumber live events.  The
#: floor keeps small simulations from compacting constantly; the ratio
#: bounds queue memory at ~2x the live set for any cancellation pattern.
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

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "interval", "_kernel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple,
        kernel: Optional["Kernel"] = None,
        interval: Optional[float] = None,
    ):
        self.time = time
        self.seq = seq
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
        #: Heap of (time, seq, handle).  Tuples compare in C; ``seq`` is
        #: unique so the handle itself is never compared.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        #: Live (non-cancelled) entries in the queue, maintained by
        #: schedule/cancel/pop — pending_events reads it in O(1).
        self._live = 0
        #: Cancelled entries still occupying heap slots.
        self._tombstones = 0
        #: Heap compactions performed (read by tests and the telemetry plane).
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
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
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
        the callback runs (consuming one sequence number), exactly where
        a re-scheduling closure would have consumed it, so converting a
        closure chain to a native repeating timer preserves same-instant
        FIFO order bit-for-bit.  Cancel via ``handle.cancel()``.
        """
        if interval <= 0:
            raise SimulationError(f"repeating interval must be positive: {interval!r}")
        first = interval if initial_delay is None else initial_delay
        if first < 0:
            raise SimulationError(f"negative delay: {first!r}")
        time = self._now + first
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self, interval=interval)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
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
        seq = next(self._seq)
        handle.time = time
        handle.seq = seq
        handle.fired = False
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

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
        """Drop tombstones and re-heapify, in place.

        In-place (slice assignment) so run loops holding a local
        reference to the queue keep seeing the same list object.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._tombstones = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        next_seq = self._seq.__next__
        with dispatching():
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                time, _, handle = pop(queue)
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                self._now = time
                interval = handle.interval
                if interval is None:
                    handle.fired = True
                    self._live -= 1
                else:
                    seq = next_seq()
                    handle.time = time + interval
                    handle.seq = seq
                    push(queue, (handle.time, seq, handle))
                self.events_executed += 1
                executed += 1
                handle.callback(*handle.args)
        return executed

    def run_until(self, time: float) -> int:
        """Run all events up to and including ``time``; clock ends at ``time``.

        Components with periodic behaviour keep the queue non-empty, so
        ``run_until`` is the normal way to run a phone simulation for a
        fixed duration.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards: {time} < {self._now}")
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        next_seq = self._seq.__next__
        with dispatching():
            while queue:
                event_time = queue[0][0]
                if event_time > time:
                    break
                _, _, handle = pop(queue)
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                self._now = event_time
                interval = handle.interval
                if interval is None:
                    handle.fired = True
                    self._live -= 1
                else:
                    seq = next_seq()
                    handle.time = event_time + interval
                    handle.seq = seq
                    push(queue, (handle.time, seq, handle))
                self.events_executed += 1
                executed += 1
                handle.callback(*handle.args)
        if time > self._now:
            self._now = time
        return executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled tombstones excluded)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when idle."""
        queue = self._queue
        while queue:
            if queue[0][2].cancelled:
                heapq.heappop(queue)
                self._tombstones -= 1
                continue
            return queue[0][0]
        return None
