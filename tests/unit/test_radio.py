"""Unit tests for the 3G modem RRC state machine."""

import pytest

from repro.device.power import PowerRail
from repro.device.radio import (
    CARRIERS,
    DCH,
    FACH,
    IDLE,
    KPN,
    OFF,
    RAMP,
    T_MOBILE,
    VODAFONE,
    Modem,
    RadioUnavailable,
)
from repro.sim import Kernel


def make_modem(profile=KPN, **kwargs):
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, profile, **kwargs)
    return kernel, rail, modem


def test_full_transmission_cycle_states_and_timing():
    kernel, _, modem = make_modem()
    done = []
    modem.transfer(tx_bytes=1000, on_complete=done.append, label="t")
    kernel.run_until(1.0)
    assert modem.state == RAMP
    kernel.run_until(KPN.ramp_ms + 1.0)
    assert modem.state == DCH
    # Transfer takes min_transfer_ms; completion then arms the DCH tail.
    kernel.run_until(KPN.ramp_ms + KPN.min_transfer_ms + 1.0)
    assert done == [True]
    transfer_end = KPN.ramp_ms + KPN.min_transfer_ms
    kernel.run_until(transfer_end + KPN.dch_tail_ms + 1.0)
    assert modem.state == FACH
    kernel.run_until(transfer_end + KPN.dch_tail_ms + KPN.fach_tail_ms + 1.0)
    assert modem.state == IDLE


def test_tail_timings_match_figure3_on_kpn():
    """Figure 3: ~6 s DCH tail, ~53.5 s FACH tail."""
    assert KPN.dch_tail_ms == pytest.approx(6000.0)
    assert KPN.fach_tail_ms == pytest.approx(53500.0)
    # KPN has by far the longest tail of the three carriers (Table 3).
    assert KPN.fach_tail_ms > VODAFONE.fach_tail_ms > T_MOBILE.fach_tail_ms


def test_transfer_duration_scales_with_bytes():
    kernel, _, modem = make_modem()
    done = []
    big = int(KPN.uplink_bytes_per_s * 2)  # 2 s of uplink
    modem.transfer(tx_bytes=big, on_complete=lambda ok: done.append(kernel.now))
    kernel.run()
    assert done[0] == pytest.approx(KPN.ramp_ms + 2000.0)


def test_duration_hint_dominates_small_payload():
    kernel, _, modem = make_modem()
    done = []
    modem.transfer(tx_bytes=10, duration_hint_ms=1500.0, on_complete=lambda ok: done.append(kernel.now))
    kernel.run()
    assert done[0] == pytest.approx(KPN.ramp_ms + 1500.0)


def test_queued_transfers_share_one_rampup():
    kernel, _, modem = make_modem()
    completions = []
    modem.transfer(tx_bytes=100, on_complete=lambda ok: completions.append("a"))
    modem.transfer(tx_bytes=100, on_complete=lambda ok: completions.append("b"))
    kernel.run()
    assert completions == ["a", "b"]
    assert modem.rampup_count == 1
    assert modem.transfer_count == 2


def test_transfer_during_dch_tail_needs_no_rampup():
    kernel, _, modem = make_modem()
    modem.transfer(tx_bytes=100)
    kernel.run_until(KPN.ramp_ms + KPN.min_transfer_ms + 1000.0)  # in DCH tail
    assert modem.state == DCH
    modem.transfer(tx_bytes=100)
    kernel.run()
    assert modem.rampup_count == 1


def test_transfer_during_fach_promotes_quickly():
    kernel, _, modem = make_modem()
    modem.transfer(tx_bytes=100)
    transfer_end = KPN.ramp_ms + KPN.min_transfer_ms
    kernel.run_until(transfer_end + KPN.dch_tail_ms + 2000.0)  # in FACH
    assert modem.state == FACH
    started = kernel.now
    done = []
    modem.transfer(tx_bytes=100, on_complete=lambda ok: done.append(kernel.now))
    kernel.run_until(started + 10_000.0)
    assert done[0] == pytest.approx(started + KPN.fach_to_dch_ms + KPN.min_transfer_ms)
    assert modem.rampup_count == 1  # promotion is not a cold ramp-up


def test_byte_counters_accumulate():
    kernel, _, modem = make_modem()
    modem.transfer(tx_bytes=500, rx_bytes=1500)
    kernel.run()
    assert modem.bytes_tx == 500
    assert modem.bytes_rx == 1500
    assert modem.total_bytes == 2000


def test_unavailable_when_data_disabled():
    kernel, _, modem = make_modem()
    modem.set_data_enabled(False)
    assert not modem.available
    with pytest.raises(RadioUnavailable):
        modem.transfer(tx_bytes=10)


def test_coverage_loss_fails_inflight_and_queued_jobs():
    kernel, _, modem = make_modem()
    results = []
    modem.transfer(tx_bytes=100, on_complete=results.append)
    modem.transfer(tx_bytes=100, on_complete=results.append)
    kernel.run_until(KPN.ramp_ms + 50.0)  # first job in flight
    modem.set_coverage(False)
    kernel.run_until(kernel.now + 10_000.0)
    assert results == [False, False]
    assert not modem.available


def test_power_off_and_on():
    kernel, rail, modem = make_modem()
    modem.power_off()
    assert modem.state == OFF
    assert rail.draw_of(modem.name) == 0.0
    modem.power_on()
    assert modem.state == IDLE
    assert rail.draw_of(modem.name) == pytest.approx(KPN.idle_w)


def test_energy_of_single_transmission_matches_state_dwell_times():
    kernel, rail, modem = make_modem()
    modem.transfer(tx_bytes=100)
    total_ms = KPN.ramp_ms + KPN.min_transfer_ms + KPN.dch_tail_ms + KPN.fach_tail_ms
    kernel.run_until(total_ms + 1000.0)
    expected = (
        KPN.ramp_ms * KPN.ramp_w
        + (KPN.min_transfer_ms + KPN.dch_tail_ms) * KPN.dch_w
        + KPN.fach_tail_ms * KPN.fach_w
        + (1000.0) * KPN.idle_w
    ) / 1000.0
    assert rail.energy_joules == pytest.approx(expected, rel=1e-6)


def test_paging_blips_only_in_idle():
    kernel, rail, modem = make_modem(simulate_paging=True)
    watts_seen = set()
    original = rail.set_draw

    kernel.run_until(3 * KPN.paging_period_ms)
    # During a blip the draw exceeds idle.
    assert modem.state == IDLE
    # Run up to just inside a blip window.
    kernel.run_until(kernel.now + KPN.paging_period_ms + KPN.paging_duration_ms / 2)
    # Whether or not we land exactly in a blip, the machinery must not
    # leave residual draw once a transfer starts.
    modem.transfer(tx_bytes=10)
    kernel.run_until(kernel.now + 10.0)
    assert rail.draw_of(modem.name) == pytest.approx(KPN.ramp_w)


def test_carrier_registry():
    assert set(CARRIERS) == {"KPN", "T-Mobile", "Vodafone"}


def test_state_change_listeners():
    kernel, _, modem = make_modem()
    changes = []
    modem.on_state_change.append(lambda old, new: changes.append((old, new)))
    modem.transfer(tx_bytes=10)
    kernel.run()
    assert changes[0] == (IDLE, RAMP)
    assert (RAMP, DCH) in changes
    assert changes[-1] == (FACH, IDLE)
