"""The kernel's per-instant queue against the naive reference, on crowded instants.

The kernel keeps one list of handles per distinct pending time and runs
an instant's list in one pass.  Whatever happens inside that pass must
look exactly like the reference kernel of ``test_kernel_properties.py``
(a heap of ``(time, seq)`` entries with eager cancellation), which has no
instants at all.  Times here come from a pool of four, so an instant
holds many events, and the events act on the queue while their instant
runs: they cancel (past the compaction floor), re-arm themselves, start
zero-delay chains, raise, and run the kernel re-entrantly.  The drivers
stop runs part-way through an instant with ``run(max_events)``.
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.kernel as kernel_mod
from repro.sim.kernel import Kernel

from .test_kernel_properties import NaiveKernel


class Boom(Exception):
    """What an event with the ``raise`` action throws."""


class ReferenceKernel(NaiveKernel):
    """The naive reference plus the two calls these drivers also make."""

    def run(self, max_events):
        executed = 0
        while self._queue and executed < max_events:
            time, _, callback, _ = heapq.heappop(self._queue)
            self.now = time
            executed += 1
            callback()
        return executed

    def rearm(self, box, delay):
        entry = [self.now + delay, next(self._seq), box["e"][2], False]
        box["e"] = entry
        heapq.heappush(self._queue, entry)


#: Events a program may create in all (spawned ones included), so that
#: zero-delay chains end.
MAX_EVENTS = 60

#: How deep re-entrant runs may nest, so that a repeating timer whose
#: callback runs the kernel ahead does not recurse without end.
MAX_NESTING = 3


class _Side:
    """One kernel driven by a program; subclasses adapt the kernel's API.

    Event ``i`` logs ``(now, i)`` when it fires, then performs
    ``actions[i % len(actions)]``.
    """

    def __init__(self, actions):
        self.actions = actions
        self.log = []
        self.handles = []
        self.nesting = 0

    def fire(self, i):
        self.log.append((self.now(), i))
        action = self.actions[i % len(self.actions)]
        kind = action[0]
        if kind == "spawn" and len(self.handles) < MAX_EVENTS:
            self.once(action[1] * 0.5)
        elif kind == "cancel":
            self.cancel(self.handles[action[1] % len(self.handles)])
        elif kind == "rearm" and self.is_one_shot(i):
            self.rearm(self.handles[i], action[1] * 0.5)
        elif kind == "nested" and self.nesting < MAX_NESTING:
            self.nesting += 1
            try:
                self.run_until(self.now() + action[1] * 0.5)
            finally:
                self.nesting -= 1
        elif kind == "raise":
            raise Boom(i)


class FastSide(_Side):
    def __init__(self, actions):
        super().__init__(actions)
        self.kernel = Kernel()

    def now(self):
        return self.kernel.now

    def once(self, delay):
        self.handles.append(self.kernel.schedule(delay, self.fire, len(self.handles)))

    def repeat(self, interval):
        self.handles.append(
            self.kernel.schedule_repeating(interval, self.fire, len(self.handles))
        )

    def is_one_shot(self, i):
        return self.handles[i].interval is None

    def cancel(self, handle):
        handle.cancel()

    def rearm(self, handle, delay):
        self.kernel.rearm(handle, delay)

    def run_until(self, horizon):
        self.kernel.run_until(horizon)

    def run(self, max_events):
        self.kernel.run(max_events=max_events)

    def pending(self):
        return self.kernel.pending_events


class ReferenceSide(_Side):
    def __init__(self, actions):
        super().__init__(actions)
        self.kernel = ReferenceKernel()
        self.repeating = set()

    def now(self):
        return self.kernel.now

    def once(self, delay):
        i = len(self.handles)
        self.handles.append({"e": self.kernel.schedule(delay, lambda: self.fire(i))})

    def repeat(self, interval):
        i = len(self.handles)
        self.repeating.add(i)
        self.handles.append(self.kernel.schedule_repeating(interval, lambda: self.fire(i)))

    def is_one_shot(self, i):
        return i not in self.repeating

    def cancel(self, box):
        self.kernel.cancel(box)

    def rearm(self, box, delay):
        self.kernel.rearm(box, delay)

    def run_until(self, horizon):
        self.kernel.run_until(horizon)

    def run(self, max_events):
        self.kernel.run(max_events)

    def pending(self):
        return len(self.kernel._queue)


def _play(side, program):
    """Schedule the program's events, then drive the kernel its way,
    resuming after every ``Boom``."""
    initial, drive = program
    for kind, n in initial:
        if kind == "once":
            side.once(n * 0.5)
        else:
            side.repeat(n * 0.5)
    if drive[0] == "until":
        # A nested run may have carried the clock past the horizon.
        steps = [lambda: side.run_until(max(drive[1], side.now()))]
    else:
        _, max_events, chunks = drive
        steps = [lambda: side.run(max_events)] * chunks
    for step in steps:
        for _ in range(200):
            try:
                step()
                break
            except Boom as boom:
                side.log.append(("boom", boom.args[0]))
    return side


actions = st.lists(
    st.one_of(
        st.just(("log",)),
        st.tuples(st.just("spawn"), st.integers(0, 3)),
        st.tuples(st.just("cancel"), st.integers(0, MAX_EVENTS)),
        st.tuples(st.just("rearm"), st.integers(1, 3)),
        st.tuples(st.just("nested"), st.integers(0, 2)),
        st.just(("raise",)),
    ),
    min_size=1,
    max_size=12,
)

programs = st.tuples(
    st.lists(
        st.one_of(
            st.tuples(st.just("once"), st.integers(0, 3)),
            st.tuples(st.just("repeat"), st.integers(1, 3)),
        ),
        min_size=1,
        max_size=30,
    ),
    st.one_of(
        st.tuples(st.just("until"), st.sampled_from([0.0, 1.5, 6.0])),
        st.tuples(st.just("run"), st.integers(1, 7), st.integers(1, 8)),
    ),
)


def _compare(actions, program, threshold):
    original = kernel_mod.COMPACT_MIN_TOMBSTONES
    kernel_mod.COMPACT_MIN_TOMBSTONES = threshold
    try:
        fast = _play(FastSide(actions), program)
        reference = _play(ReferenceSide(actions), program)
    finally:
        kernel_mod.COMPACT_MIN_TOMBSTONES = original
    assert fast.log == reference.log
    assert fast.kernel.now == reference.kernel.now
    assert fast.pending() == reference.pending()
    kernel = fast.kernel
    queued = [handle for bucket in kernel._instants.values() for handle in bucket]
    assert kernel._tombstones == sum(handle.cancelled for handle in queued)
    assert sorted(kernel._times) == sorted(kernel._instants)
    return kernel


@given(actions, programs, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
# Cancels past the floor while one crowded instant runs.
@example([("cancel", 3), ("cancel", 5), ("log",)], ([("once", 1)] * 12, ("until", 6.0)), 1)
# Repeating timers and re-arms landing on shared instants.
@example([("rearm", 1), ("log",)], ([("repeat", 1), ("once", 1), ("repeat", 2)] * 3, ("until", 6.0)), 4)
# Zero-delay chains started inside an instant.
@example([("spawn", 0), ("log",)], ([("once", 1)] * 5, ("until", 6.0)), 4)
# A callback raising part-way through an instant, the run resumed.
@example([("log",), ("raise",), ("spawn", 0)], ([("once", 1)] * 6, ("until", 6.0)), 4)
# run(max_events) stopping part-way through an instant.
@example([("spawn", 0), ("log",)], ([("once", 1)] * 7, ("run", 3, 5)), 4)
# A re-entrant run from a callback.
@example([("nested", 1), ("log",), ("spawn", 0)], ([("once", 1)] * 4 + [("once", 2)] * 3, ("until", 6.0)), 4)
def test_crowded_instants_match_the_reference(actions, program, threshold):
    _compare(actions, program, threshold)


# ---------------------------------------------------------------------------
# The same cases spelled out, each with the order it must produce.
# ---------------------------------------------------------------------------


def _logged(log, name, then=None):
    def fire():
        log.append(name)
        if then is not None:
            then()
    return fire


def test_a_compaction_inside_a_running_instant_keeps_the_rest_in_order(monkeypatch):
    monkeypatch.setattr(kernel_mod, "COMPACT_MIN_TOMBSTONES", 2)
    kernel = Kernel()
    log = []
    handles = []

    def cancel_most():
        kernel.schedule(0.0, _logged(log, "fresh"))
        for index in (2, 4, 5, 6, 8, 9):
            handles[index].cancel()
        # The sixth cancel outnumbers the live events: compacted mid-instant.
        assert kernel.compactions == 1

    handles.append(kernel.schedule(1.0, _logged(log, 0, cancel_most)))
    handles.extend(kernel.schedule(1.0, _logged(log, i)) for i in range(1, 10))
    kernel.run()
    assert log == [0, 1, 3, 7, "fresh"]
    assert kernel._tombstones == 0 and kernel.pending_events == 0


def test_repeating_timers_and_rearms_share_instants_in_scheduling_order():
    kernel = Kernel()
    log = []
    one_shot = []

    def recycle():
        log.append(("rearm", kernel.now))
        if kernel.now < 3.0:
            kernel.rearm(one_shot[0], 1.0)

    ticker = kernel.schedule_repeating(1.0, lambda: log.append(("tick", kernel.now)))
    one_shot.append(kernel.schedule(1.0, recycle))
    kernel.schedule(2.0, lambda: log.append(("once", kernel.now)))
    kernel.run_until(3.0)
    ticker.cancel()
    # At t=2 the tick re-armed at t=1 before the one-shot did, and the
    # plain event was scheduled before either.
    assert log == [
        ("tick", 1.0), ("rearm", 1.0),
        ("once", 2.0), ("tick", 2.0), ("rearm", 2.0),
        ("tick", 3.0), ("rearm", 3.0),
    ]


def test_a_zero_delay_schedule_runs_after_the_rest_of_its_instant():
    kernel = Kernel()
    log = []
    kernel.schedule(
        1.0,
        _logged(log, "a", lambda: kernel.schedule(
            0.0, _logged(log, "c", lambda: kernel.schedule(0.0, _logged(log, "d")))
        )),
    )
    kernel.schedule(1.0, _logged(log, "b"))
    kernel.schedule(2.0, _logged(log, "later"))
    kernel.run()
    assert log == ["a", "b", "c", "d", "later"]


def test_a_raising_callback_leaves_the_rest_of_its_instant_ahead():
    kernel = Kernel()
    log = []

    def boom():
        log.append("b")
        raise Boom()

    kernel.schedule(1.0, _logged(log, "a"))
    kernel.schedule(1.0, boom)
    kernel.schedule(1.0, _logged(log, "c"))
    with pytest.raises(Boom):
        kernel.run()
    assert log == ["a", "b"] and kernel.now == 1.0
    assert kernel.pending_events == 1
    # Scheduled for the same instant after the raise: runs after "c".
    kernel.schedule(0.0, _logged(log, "d"))
    assert kernel.next_event_time() == 1.0
    kernel.run()
    assert log == ["a", "b", "c", "d"]


def test_max_events_stops_part_way_through_an_instant():
    kernel = Kernel()
    log = []
    for name in "abcd":
        kernel.schedule(1.0, _logged(log, name))
    assert kernel.run(max_events=2) == 2
    assert log == ["a", "b"] and kernel.pending_events == 2
    kernel.schedule(0.0, _logged(log, "e"))
    assert kernel.run(max_events=0) == 0
    assert kernel.run() == 3
    assert log == ["a", "b", "c", "d", "e"]


def test_a_reentrant_run_keeps_heap_order():
    kernel = Kernel()
    log = []
    kernel.schedule(1.0, _logged(log, "a", lambda: kernel.run_until(2.0)))
    kernel.schedule(1.0, _logged(log, "b", lambda: kernel.schedule(0.0, _logged(log, "c"))))
    kernel.schedule(2.0, _logged(log, "d"))
    kernel.schedule(3.0, _logged(log, "e"))
    kernel.run()
    assert log == ["a", "b", "c", "d", "e"]
    assert kernel.pending_events == 0
