"""Property-based tests for the device substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.energy import ModemStateLog
from repro.device.power import PowerRail
from repro.device.radio import CARRIERS, IDLE, KPN, Modem
from repro.device.cpu import Cpu, CpuConfig
from repro.sim import Kernel


# ---------------------------------------------------------------------------
# Rail: per-component joules add up to the total
# ---------------------------------------------------------------------------

COMPONENTS = ("platform", "cpu", "modem", "wifi")

draw_schedules = st.lists(
    st.tuples(
        st.floats(0.0, 10_000.0),    # gap before this change
        st.sampled_from(COMPONENTS),
        st.floats(0.0, 2.0),         # the component's new draw, W
    ),
    min_size=1,
    max_size=40,
)


@given(draw_schedules, st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_rail_component_joules_sum_to_total(schedule, reset_at):
    kernel = Kernel()
    rail = PowerRail(kernel)
    draws = {}
    expected = dict.fromkeys(COMPONENTS, 0.0)
    drained = 0.0
    for step, (gap, component, watts) in enumerate(schedule):
        kernel.run_until(kernel.now + gap)
        for name, w in draws.items():
            expected[name] += w * gap / 1000.0
        rail.set_draw(component, watts)
        draws[component] = watts
        if step == reset_at:
            # Zeroes the total only; the per-component books run on.
            drained += rail.reset_energy()
    kernel.run_until(kernel.now + 1_000.0)
    for name, w in draws.items():
        expected[name] += w * 1.0
    for name in COMPONENTS:
        assert abs(rail.energy_of(name) - expected[name]) <= 1e-9 * max(expected[name], 1e-3)
    total = rail.energy_joules + drained
    parts = sum(rail.energy_of(name) for name in COMPONENTS)
    assert abs(parts - total) <= 1e-9 * max(total, 1e-3)


# ---------------------------------------------------------------------------
# Radio: energy accounting is exactly dwell-time × state power
# ---------------------------------------------------------------------------

transfer_schedules = st.lists(
    st.tuples(
        st.floats(0.0, 120_000.0),   # gap before this transfer
        st.integers(1, 200_000),     # tx bytes
        st.integers(0, 500_000),     # rx bytes
    ),
    min_size=1,
    max_size=8,
)


@given(
    transfer_schedules,
    st.sampled_from(sorted(CARRIERS)),
    st.lists(st.booleans(), min_size=8, max_size=8),  # is transfer i a send
)
@settings(max_examples=80, deadline=None)
def test_radio_energy_equals_state_dwell_integral(schedule, carrier_name, sends):
    profile = CARRIERS[carrier_name]
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, profile)
    states = ModemStateLog(kernel, modem, rail)

    # Track state dwell times through the listener interface.
    dwell = {}
    state_since = {"state": modem.state, "at": kernel.now}

    def on_change(old, new):
        dwell[old] = dwell.get(old, 0.0) + kernel.now - state_since["at"]
        state_since["state"] = new
        state_since["at"] = kernel.now

    modem.on_state_change.append(on_change)

    t = 0.0
    completions = []
    # The trigger each episode should carry: the label of the transfer
    # that found the modem in IDLE.
    triggers = []

    def transfer(tx, rx, send):
        if modem.state == IDLE:
            triggers.append("flush" if send else "external")
        label = "phone@pogo:send" if send else "email"
        modem.transfer(tx, rx, on_complete=completions.append, label=label)

    for (gap, tx, rx), send in zip(schedule, sends):
        t += gap
        kernel.schedule_at(t, transfer, tx, rx, send)
    kernel.run()
    # Let all tails expire, then settle the final dwell.
    kernel.run_until(kernel.now + profile.dch_tail_ms + profile.fach_tail_ms + 1000.0)
    dwell[state_since["state"]] = (
        dwell.get(state_since["state"], 0.0) + kernel.now - state_since["at"]
    )

    watts = {"idle": profile.idle_w, "ramp": profile.ramp_w,
             "dch": profile.dch_w, "fach": profile.fach_w, "off": 0.0}
    expected = sum(dwell.get(s, 0.0) * w for s, w in watts.items()) / 1000.0
    assert abs(rail.energy_joules - expected) < 1e-6 * max(1.0, expected)

    # Every transfer completed successfully and the modem wound down.
    assert completions == [True] * len(schedule)
    assert modem.state == IDLE
    assert not modem.transferring

    # The episode record: disjoint, ordered, one per ramp-up out of IDLE,
    # each carrying who woke the modem; its joules and the rail's between
    # episodes add up to the rail's modem joules.
    episodes = states.episodes(kernel.now)
    assert all(e.start_ms < e.end_ms for e in episodes)
    assert all(a.end_ms <= b.start_ms for a, b in zip(episodes, episodes[1:]))
    assert len(episodes) == modem.rampup_count
    assert [e.trigger for e in episodes] == triggers
    idle_j = 0.0
    closed_j = 0.0
    for _, old, new, modem_j, _ in states.transitions:
        if old == IDLE:
            idle_j += modem_j - closed_j
        elif new == IDLE:
            closed_j = modem_j
    idle_j += rail.energy_of(modem.name) - closed_j
    total_j = sum(e.joules for e in episodes) + idle_j
    assert abs(total_j - rail.energy_of(modem.name)) <= 1e-9 * max(total_j, 1e-3)


@given(transfer_schedules)
@settings(max_examples=60, deadline=None)
def test_radio_byte_counters_are_exact(schedule):
    kernel = Kernel()
    modem = Modem(kernel, PowerRail(kernel), KPN)
    t = 0.0
    for gap, tx, rx in schedule:
        t += gap
        kernel.schedule_at(t, lambda tx=tx, rx=rx: modem.transfer(tx, rx))
    kernel.run()
    assert modem.bytes_tx == sum(tx for _, tx, _ in schedule)
    assert modem.bytes_rx == sum(rx for _, _, rx in schedule)
    assert modem.transfer_count == len(schedule)


# ---------------------------------------------------------------------------
# CPU: wake-lock balance implies eventual sleep; alarms always fire
# ---------------------------------------------------------------------------

alarm_plans = st.lists(st.floats(1.0, 300_000.0), min_size=1, max_size=20)


@given(alarm_plans)
@settings(max_examples=80, deadline=None)
def test_cpu_sleeps_after_any_alarm_schedule(delays):
    kernel = Kernel()
    cpu = Cpu(kernel, PowerRail(kernel), CpuConfig(awake_hold_ms=1100.0))
    fired = []
    for delay in delays:
        cpu.set_alarm(delay, fired.append, delay)
    kernel.run()
    kernel.run_until(kernel.now + 10_000.0)
    assert sorted(fired) == sorted(delays)
    assert not cpu.awake
    assert cpu.wake_locks_held == 0


@given(
    st.lists(
        st.tuples(st.floats(0.0, 10_000.0), st.sampled_from(["a", "b", "c"])),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=80, deadline=None)
def test_balanced_wake_locks_always_release(plan):
    """Acquire/release pairs in any interleaving leave zero locks held."""
    kernel = Kernel()
    cpu = Cpu(kernel, PowerRail(kernel), CpuConfig(awake_hold_ms=500.0))
    for at, tag in plan:
        kernel.schedule_at(at, cpu.acquire_wake_lock, tag)
        kernel.schedule_at(at + 100.0, cpu.release_wake_lock, tag)
    kernel.run()
    kernel.run_until(kernel.now + 5_000.0)
    assert cpu.wake_locks_held == 0
    assert not cpu.awake
