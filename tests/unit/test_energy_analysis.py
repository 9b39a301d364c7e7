"""Unit tests for energy-trace segmentation (Figure 3 analysis) and the
radio-episode record."""

import pytest

from repro.analysis.energy import (
    ModemStateLog,
    percent_increase,
    segment_tail_from_series,
    series_energy_joules,
)
from repro.core.middleware import PogoSimulation
from repro.device import KPN, Modem, PowerMeter, PowerRail
from repro.device.radio import RadioUnavailable
from repro.net.transport import is_send_label
from repro.sim import Kernel
from repro.sim.kernel import MINUTE
from repro.sim.trace import TimeSeries


def run_single_transmission(profile=KPN):
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, profile)
    states = ModemStateLog(kernel, modem, rail)
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


# ---------------------------------------------------------------------------
# The radio-episode record: who woke the modem, and the rail's joules
# ---------------------------------------------------------------------------

#: The label a device transport puts on a stanza it sends.
SEND = "phone@pogo:send"


def make_radio(**modem_kwargs):
    """A bare modem as the rail's only component: the rail's total and
    its modem joules are then the same number."""
    kernel = Kernel()
    rail = PowerRail(kernel)
    modem = Modem(kernel, rail, KPN, **modem_kwargs)
    return kernel, rail, modem, ModemStateLog(kernel, modem, rail)


def run_to_idle(kernel, modem, limit_ms=200_000.0):
    kernel.run_until(kernel.now + limit_ms)
    assert modem.state == "idle"


def test_send_label_is_the_transports():
    assert is_send_label(SEND)
    assert not is_send_label("phone@pogo:handshake")
    assert not is_send_label("email:check")


def test_an_app_wakeup_is_an_external_episode():
    kernel, rail, modem, states = make_radio()
    modem.transfer(tx_bytes=5_000, label="email")
    run_to_idle(kernel, modem)
    (episode,) = states.episodes(kernel.now)
    assert episode.trigger == "external"
    assert states.episodes_by_trigger(kernel.now) == {"flush": 0, "external": 1}
    idle_ms = kernel.now - (episode.end_ms - episode.start_ms)
    assert episode.joules + KPN.idle_w * idle_ms / 1000.0 == pytest.approx(
        rail.energy_joules, rel=1e-9
    )


def test_a_flush_from_idle_is_a_flush_episode():
    sim = PogoSimulation(seed=1)
    collector = sim.add_collector("lab")
    device = sim.add_device()
    states = ModemStateLog(sim.kernel, device.phone.modem, device.phone.rail)
    sim.start()
    sim.assign(collector, [device])
    sim.run(duration_ms=2 * MINUTE)  # the handshake's episode has closed
    assert device.phone.modem.state == "idle"
    device.node.send_to(collector.jid, {"channel": "probe"})
    assert device.node.flush() == 1
    sim.run(duration_ms=2 * MINUTE)
    handshake, flush = states.episodes(sim.kernel.now)
    assert handshake.trigger == "external"
    assert flush.trigger == "flush"
    assert flush.start_ms == pytest.approx(2 * MINUTE)
    assert flush.joules > 0.0


def test_a_send_piggybacked_on_dch_stays_external():
    kernel, rail, modem, states = make_radio()
    # The e-mail app wakes the radio...
    modem.transfer(tx_bytes=20_000, label="email")
    kernel.run_until(kernel.now + 3_000.0)
    assert modem.state == "dch"
    # ...and Pogo sends while the channel is hot.
    modem.transfer(tx_bytes=400, label=SEND)
    run_to_idle(kernel, modem)
    (episode,) = states.episodes(kernel.now)
    assert episode.trigger == "external"
    assert modem.rampup_count == 1


def test_an_episode_still_open_is_closed_at_until():
    kernel, rail, modem, states = make_radio()
    modem.transfer(tx_bytes=1_000, label="email")
    kernel.run_until(kernel.now + 4_000.0)  # mid-tail, episode open
    assert modem.state == "dch"
    (episode,) = states.episodes(kernel.now + 10.0)
    assert (episode.start_ms, episode.end_ms) == (0.0, kernel.now + 10.0)
    assert episode.joules == pytest.approx(rail.energy_of(modem.name), rel=1e-9)


def test_paging_joules_fall_outside_every_episode():
    # Paging blips draw power in IDLE without an RRC transition: only the
    # rail sees them, and they belong to no episode.
    kernel, rail, modem, states = make_radio(simulate_paging=True)
    kernel.run_until(10_000.0)
    modem.transfer(tx_bytes=5_000, label="email")
    run_to_idle(kernel, modem)
    (episode,) = states.episodes(kernel.now)
    modem_j = rail.energy_of(modem.name)
    assert modem_j == pytest.approx(rail.energy_joules, rel=1e-9)
    idle_ms = kernel.now - (episode.end_ms - episode.start_ms)
    assert modem_j - episode.joules > KPN.idle_w * idle_ms / 1000.0


def test_a_refused_send_opens_no_episode():
    kernel, rail, modem, states = make_radio()
    modem.set_data_enabled(False)
    with pytest.raises(RadioUnavailable):
        modem.transfer(tx_bytes=400, label=SEND)
    modem.set_data_enabled(True)
    kernel.run_until(1_000.0)
    assert states.episodes(kernel.now) == []
    # A later, unrelated wake-up is the app's, not the refused send's.
    modem.transfer(tx_bytes=5_000, label="email")
    run_to_idle(kernel, modem)
    assert states.episodes_by_trigger(kernel.now) == {"flush": 0, "external": 1}
