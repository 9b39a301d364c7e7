"""Unit tests for the CPU model: wake locks, alarms, sleep-frozen timers."""

import pytest

from repro.device.cpu import Cpu, CpuConfig
from repro.device.power import PowerRail
from repro.sim import IntervalTrack, Kernel


def make_cpu(hold_ms=1000.0):
    kernel = Kernel()
    rail = PowerRail(kernel)
    cpu = Cpu(kernel, rail, CpuConfig(awake_hold_ms=hold_ms))
    return kernel, rail, cpu


def test_cpu_sleeps_after_hold_with_no_activity():
    kernel, rail, cpu = make_cpu(hold_ms=1000.0)
    assert cpu.awake
    kernel.run_until(2000.0)
    assert not cpu.awake
    assert rail.draw_of("cpu") == cpu.config.sleep_w


def test_wake_lock_prevents_sleep():
    kernel, _, cpu = make_cpu(hold_ms=500.0)
    cpu.acquire_wake_lock("task")
    kernel.run_until(10_000.0)
    assert cpu.awake
    cpu.release_wake_lock("task")
    kernel.run_until(12_000.0)
    assert not cpu.awake


def test_nested_wake_locks():
    kernel, _, cpu = make_cpu(hold_ms=200.0)
    cpu.acquire_wake_lock("t")
    cpu.acquire_wake_lock("t")
    assert cpu.wake_locks_held == 2
    cpu.release_wake_lock("t")
    assert cpu.holds_wake_lock("t")
    kernel.run_until(5000.0)
    assert cpu.awake
    cpu.release_wake_lock("t")
    kernel.run_until(6000.0)
    assert not cpu.awake


def test_release_unknown_wake_lock_raises():
    _, _, cpu = make_cpu()
    with pytest.raises(KeyError):
        cpu.release_wake_lock("never-acquired")


def test_alarm_wakes_cpu_and_runs_callback():
    kernel, _, cpu = make_cpu(hold_ms=500.0)
    fired = []
    kernel.run_until(2000.0)
    assert not cpu.awake
    cpu.set_alarm(3000.0, fired.append, "ding")
    kernel.run_until(6000.0)
    assert fired == ["ding"]
    assert cpu.wake_count == 1


def test_alarm_cancel():
    kernel, _, cpu = make_cpu()
    fired = []
    alarm = cpu.set_alarm(1000.0, fired.append, "x")
    alarm.cancel()
    kernel.run_until(3000.0)
    assert fired == []


def test_repeating_alarm_fires_at_fixed_rate():
    kernel, _, cpu = make_cpu(hold_ms=100.0)
    times = []
    alarm = cpu.set_repeating_alarm(1000.0, lambda: times.append(kernel.now))
    kernel.run_until(3500.0)
    assert times == [1000.0, 2000.0, 3000.0]
    assert alarm.fire_count == 3
    alarm.cancel()
    kernel.run_until(6000.0)
    assert len(times) == 3


def test_repeating_alarm_initial_delay():
    kernel, _, cpu = make_cpu(hold_ms=100.0)
    times = []
    cpu.set_repeating_alarm(1000.0, lambda: times.append(kernel.now), initial_delay_ms=250.0)
    kernel.run_until(2500.0)
    assert times == [250.0, 1250.0, 2250.0]


def test_invalid_repeating_interval():
    _, _, cpu = make_cpu()
    with pytest.raises(ValueError):
        cpu.set_repeating_alarm(0.0, lambda: None)


def test_sleep_frozen_timer_freezes_while_asleep():
    """The Section 4.7 mechanism: a Thread.sleep-style timer only counts
    down while the CPU is awake, so it fires shortly after some *other*
    wakeup — never causing one itself."""
    kernel, _, cpu = make_cpu(hold_ms=1000.0)
    fired = []
    # CPU sleeps at ~1000ms.  Timer of 2000ms started at t=0 has 1000ms
    # left when the CPU sleeps.
    cpu.sleep_frozen_timer(2000.0, lambda: fired.append(kernel.now))
    kernel.run_until(60_000.0)
    assert fired == []  # frozen all this time
    assert not cpu.awake
    # An alarm wakes the CPU at t=100000; the timer resumes and fires
    # 1000ms later.
    cpu.set_alarm(40_000.0, lambda: None)
    kernel.run_until(200_000.0)
    assert fired == [101_000.0]


def test_sleep_frozen_timer_runs_normally_while_awake():
    kernel, _, cpu = make_cpu(hold_ms=10_000.0)
    fired = []
    cpu.sleep_frozen_timer(500.0, lambda: fired.append(kernel.now))
    kernel.run_until(1000.0)
    assert fired == [500.0]


def test_sleep_frozen_timer_cancel():
    kernel, _, cpu = make_cpu(hold_ms=10_000.0)
    fired = []
    timer = cpu.sleep_frozen_timer(500.0, lambda: fired.append(1))
    timer.cancel()
    kernel.run_until(1000.0)
    assert fired == []


def test_frozen_timer_fire_does_not_extend_awake_window():
    """Pogo's polling must not keep the CPU awake (Section 4.7)."""
    kernel, _, cpu = make_cpu(hold_ms=1000.0)

    polls = []

    def poll():
        polls.append(kernel.now)
        cpu.sleep_frozen_timer(400.0, poll)

    cpu.sleep_frozen_timer(400.0, poll)
    kernel.run_until(30_000.0)
    # CPU slept at ~1000ms; polls happened only before that.
    assert not cpu.awake
    assert all(t <= 1000.0 for t in polls)
    assert len(polls) == 2  # t=400, t=800


def test_wake_listeners_and_track():
    kernel, _, cpu = make_cpu(hold_ms=100.0)
    reasons = []
    cpu.on_wake.append(reasons.append)
    # The CPU keeps no awake history; a reader's track rides the
    # listeners (as Figure 4's does), opened for the boot block.
    track = IntervalTrack("cpu", kernel.read_now)
    track.open(label="boot")
    cpu.on_wake.append(lambda reason: track.open(label=reason))
    cpu.on_sleep.append(track.close)
    kernel.run_until(1000.0)
    cpu.set_alarm(500.0, lambda: None)
    kernel.run_until(5000.0)
    assert reasons == ["alarm"]
    blocks = track.closed_intervals(kernel.now)
    assert [block.label for block in blocks] == ["boot", "alarm"]
    assert blocks[0].end == pytest.approx(100.0)  # the hold after boot
    assert blocks[1].start == pytest.approx(1500.0)


def test_wake_while_awake_returns_false():
    _, _, cpu = make_cpu()
    assert cpu.awake
    assert cpu.wake("poke") is False
