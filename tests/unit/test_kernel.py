"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Kernel, SimulationError
from repro.sim.kernel import HOUR, MINUTE, SECOND


def test_time_constants():
    assert SECOND == 1000.0
    assert MINUTE == 60 * SECOND
    assert HOUR == 60 * MINUTE


def test_schedule_and_run_orders_by_time():
    kernel = Kernel()
    fired = []
    kernel.schedule(30.0, fired.append, "c")
    kernel.schedule(10.0, fired.append, "a")
    kernel.schedule(20.0, fired.append, "b")
    kernel.run()
    assert fired == ["a", "b", "c"]
    assert kernel.now == 30.0


def test_same_time_events_fire_fifo():
    kernel = Kernel()
    fired = []
    for tag in range(5):
        kernel.schedule(10.0, fired.append, tag)
    kernel.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    kernel = Kernel()
    kernel.schedule(10.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.schedule_at(5.0, lambda: None)


def test_cancel_prevents_firing():
    kernel = Kernel()
    fired = []
    handle = kernel.schedule(10.0, fired.append, "x")
    assert handle.pending
    assert handle.cancel()
    kernel.run()
    assert fired == []
    assert not handle.pending
    # Second cancel reports failure.
    assert not handle.cancel()


def test_cancel_after_firing_returns_false():
    kernel = Kernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert handle.fired
    assert not handle.cancel()


def test_run_until_stops_at_horizon_and_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.schedule(10.0, fired.append, "early")
    kernel.schedule(100.0, fired.append, "late")
    kernel.run_until(50.0)
    assert fired == ["early"]
    assert kernel.now == 50.0
    kernel.run_until(150.0)
    assert fired == ["early", "late"]


def test_run_until_backwards_rejected():
    kernel = Kernel()
    kernel.run_until(100.0)
    with pytest.raises(SimulationError):
        kernel.run_until(50.0)


def test_events_scheduled_during_run_execute():
    kernel = Kernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            kernel.schedule(1.0, chain, n + 1)

    kernel.schedule(0.0, chain, 0)
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.now == 3.0


def test_max_events_limit():
    kernel = Kernel()
    fired = []

    def forever():
        fired.append(kernel.now)
        kernel.schedule(1.0, forever)

    kernel.schedule(0.0, forever)
    executed = kernel.run(max_events=10)
    assert executed == 10
    assert len(fired) == 10


def test_pending_events_and_next_event_time():
    kernel = Kernel()
    assert kernel.next_event_time() is None
    a = kernel.schedule(5.0, lambda: None)
    kernel.schedule(10.0, lambda: None)
    assert kernel.pending_events == 2
    assert kernel.next_event_time() == 5.0
    a.cancel()
    assert kernel.pending_events == 1
    assert kernel.next_event_time() == 10.0


def test_events_executed_counter():
    kernel = Kernel()
    for _ in range(7):
        kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.events_executed == 7


# ---------------------------------------------------------------------------
# Repeating timers (native, re-armed in place)
# ---------------------------------------------------------------------------


def test_schedule_repeating_fires_every_interval():
    kernel = Kernel()
    times = []
    kernel.schedule_repeating(10.0, lambda: times.append(kernel.now))
    kernel.run_until(45.0)
    assert times == [10.0, 20.0, 30.0, 40.0]


def test_schedule_repeating_initial_delay():
    kernel = Kernel()
    times = []
    kernel.schedule_repeating(10.0, lambda: times.append(kernel.now), initial_delay=3.0)
    kernel.run_until(25.0)
    assert times == [3.0, 13.0, 23.0]


def test_schedule_repeating_reuses_one_handle():
    kernel = Kernel()
    ticks = []
    handle = kernel.schedule_repeating(5.0, lambda: ticks.append(kernel.now))
    kernel.run_until(20.0)
    assert len(ticks) == 4
    # The same handle is still armed for the next tick — no fresh
    # allocation per fire.
    assert handle.pending
    assert handle.time == 25.0


def test_schedule_repeating_cancel_stops_the_chain():
    kernel = Kernel()
    ticks = []
    handle = kernel.schedule_repeating(5.0, lambda: ticks.append(kernel.now))
    kernel.run_until(12.0)
    assert handle.cancel() is True
    kernel.run_until(100.0)
    assert ticks == [5.0, 10.0]


def test_schedule_repeating_rejects_bad_interval():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.schedule_repeating(0.0, lambda: None)
    with pytest.raises(SimulationError):
        kernel.schedule_repeating(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        kernel.schedule_repeating(5.0, lambda: None, initial_delay=-1.0)


def test_repeating_callback_may_cancel_its_own_handle():
    kernel = Kernel()
    ticks = []
    handle = None

    def tick():
        ticks.append(kernel.now)
        if len(ticks) == 3:
            handle.cancel()

    handle = kernel.schedule_repeating(5.0, tick)
    kernel.run()
    assert ticks == [5.0, 10.0, 15.0]
    assert kernel.pending_events == 0


# ---------------------------------------------------------------------------
# rearm (handle recycling)
# ---------------------------------------------------------------------------


def test_rearm_recycles_a_fired_handle():
    kernel = Kernel()
    fired = []
    handle = kernel.schedule(5.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [5.0]
    same = kernel.rearm(handle, 7.0)
    assert same is handle
    assert handle.pending
    kernel.run()
    assert fired == [5.0, 12.0]


def test_rearm_rejects_pending_and_cancelled_handles():
    kernel = Kernel()
    pending = kernel.schedule(5.0, lambda: None)
    with pytest.raises(SimulationError):
        kernel.rearm(pending, 1.0)
    pending.cancel()
    with pytest.raises(SimulationError):
        kernel.rearm(pending, 1.0)
    fired = kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.rearm(fired, -1.0)


def test_rearm_preserves_fifo_with_fresh_schedules():
    kernel = Kernel()
    log = []
    handle = kernel.schedule(1.0, lambda: log.append("recycled"))
    kernel.run()
    log.clear()
    # Re-armed handle scheduled first for t=5, fresh handle second for
    # t=5: scheduling order decides.
    kernel.rearm(handle, 5.0)
    kernel.schedule(5.0, lambda: log.append("fresh"))
    kernel.run()
    assert log == ["recycled", "fresh"]


# ---------------------------------------------------------------------------
# Tombstones and compaction
# ---------------------------------------------------------------------------


def _queued(kernel):
    """Handles in the queue, tombstones included."""
    return sum(len(bucket) for bucket in kernel._instants.values())


def test_cancel_leaves_tombstone_until_threshold(monkeypatch):
    import repro.sim.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "COMPACT_MIN_TOMBSTONES", 4)
    kernel = Kernel()
    handles = [kernel.schedule(float(i + 100), lambda: None) for i in range(10)]
    for handle in handles[:3]:
        handle.cancel()
    # Below threshold: tombstones sit in their instants' lists.
    assert kernel._tombstones == 3
    assert _queued(kernel) == 10
    assert len(kernel._times) == 10
    assert kernel.compactions == 0
    # Live count is maintained without scanning.
    assert kernel.pending_events == 7


def test_compaction_triggers_and_preserves_order(monkeypatch):
    import repro.sim.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "COMPACT_MIN_TOMBSTONES", 4)
    kernel = Kernel()
    log = []
    handles = [kernel.schedule(float(i), lambda i=i: log.append(i)) for i in range(12)]
    # Compaction requires tombstones >= the floor (4) AND tombstones >
    # live, first true at the 7th cancel (7 tombstones > 5 live).
    for i in range(7):
        handles[i].cancel()
    assert kernel.compactions == 1
    assert kernel._tombstones == 0
    assert _queued(kernel) == kernel.pending_events == 5
    # Instants left empty are gone from the dict and the time heap.
    assert sorted(kernel._times) == sorted(kernel._instants) == [7.0, 8.0, 9.0, 10.0, 11.0]
    # A cancel after compaction starts a fresh tombstone count.
    handles[7].cancel()
    assert kernel._tombstones == 1
    assert kernel.pending_events == 4
    kernel.run()
    assert log == [8, 9, 10, 11]


def test_next_event_time_skips_tombstones():
    kernel = Kernel()
    first = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    first.cancel()
    assert kernel.next_event_time() == 2.0
    assert kernel.pending_events == 1
