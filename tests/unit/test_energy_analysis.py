"""Unit tests for energy-trace segmentation (Figure 3 analysis)."""

import pytest

from repro.analysis.energy import (
    ModemStateLog,
    percent_increase,
    segment_tail_from_series,
    series_energy_joules,
)
from repro.device import KPN, Modem, PowerMeter, PowerRail
from repro.sim import Kernel
from repro.sim.trace import TimeSeries


def run_single_transmission(profile=KPN):
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, profile)
    states = ModemStateLog(kernel, modem)
    meter = PowerMeter(kernel, rail, interval_ms=50.0)
    meter.start()
    kernel.schedule(5000.0, modem.transfer, 2048, 20480, 1000.0, None, "email")
    total = 5000.0 + profile.ramp_ms + 1000.0 + profile.dch_tail_ms + profile.fach_tail_ms
    kernel.run_until(total + 5000.0)
    meter.stop()
    return kernel, rail, states, modem, meter


def test_series_energy_matches_rail():
    kernel, rail, states, modem, meter = run_single_transmission()
    exact = rail.energy_joules
    sampled = meter.energy_joules()
    assert sampled == pytest.approx(exact, rel=0.02)


def test_segmentation_from_state_trace_matches_profile():
    kernel, rail, states, modem, meter = run_single_transmission()
    seg = states.segment_tail(KPN)
    assert seg is not None
    assert seg.a_ramp_start_ms == pytest.approx(5000.0)
    assert seg.b_transfer_end_ms == pytest.approx(5000.0 + KPN.ramp_ms + 1000.0)
    assert seg.dch_tail_ms == pytest.approx(KPN.dch_tail_ms)
    assert seg.fach_tail_ms == pytest.approx(KPN.fach_tail_ms)
    # Figure 3's tail: b -> d ≈ 59.5 s on KPN.
    assert seg.tail_duration_ms == pytest.approx(59_500.0)


def test_segmentation_from_series_agrees_with_state_trace():
    kernel, rail, states, modem, meter = run_single_transmission()
    from_states = states.segment_tail(KPN)
    from_series = segment_tail_from_series(meter.samples, KPN)
    assert from_series is not None
    tolerance = 2 * meter.interval_ms
    assert from_series.a_ramp_start_ms == pytest.approx(from_states.a_ramp_start_ms, abs=tolerance)
    assert from_series.c_dch_end_ms == pytest.approx(from_states.c_dch_end_ms, abs=tolerance)
    assert from_series.d_fach_end_ms == pytest.approx(from_states.d_fach_end_ms, abs=tolerance)
    assert from_series.tail_energy_j == pytest.approx(from_states.tail_energy_j, rel=0.05)


def test_tail_energy_dominates_transfer_energy():
    """The premise of Section 4.7: the tail dwarfs the payload."""
    kernel, rail, states, modem, meter = run_single_transmission()
    seg = states.segment_tail(KPN)
    assert seg.tail_energy_j > 5 * seg.transfer_energy_j


def test_state_log_active_intervals():
    kernel, rail, states, modem, meter = run_single_transmission()
    (block,) = states.active_intervals(kernel.now)
    assert block.start == pytest.approx(5000.0)
    assert block.duration == pytest.approx(
        KPN.ramp_ms + 1000.0 + KPN.dch_tail_ms + KPN.fach_tail_ms
    )
    # A block still open at the horizon is closed there.
    modem.transfer(tx_bytes=100)
    (_, open_block) = states.active_intervals(kernel.now + 10.0)
    assert (open_block.start, open_block.end) == (kernel.now, kernel.now + 10.0)


def test_segmentation_none_without_transmission():
    series = TimeSeries()
    for t in range(100):
        series.append(t * 100.0, KPN.idle_w)
    assert segment_tail_from_series(series, KPN) is None
    kernel, rail, states, modem, meter = run_single_transmission()
    assert states.segment_tail(KPN, after_ms=kernel.now) is None


def test_series_energy_window():
    series = TimeSeries()
    series.append(0.0, 1.0)
    series.append(1000.0, 1.0)
    series.append(2000.0, 1.0)
    assert series_energy_joules(series) == pytest.approx(2.0)
    assert series_energy_joules(series, 0.0, 1000.0) == pytest.approx(1.0)


def test_percent_increase():
    assert percent_increase(277.59, 288.76) == pytest.approx(4.02, abs=0.05)
    assert percent_increase(0.0, 10.0) == 0.0
