"""Figure 3 — tail energy of a 3G transmission on KPN.

Paper: the modem ramps up at *a*, finishes transmitting at *b*, stays in
high-power DCH for ~6 s until *c*, then in medium-power FACH for another
~53.5 s until *d*; b→d (≈59.5 s) is the transmission's tail.  Small
spikes before a and after d are the idle paging duty cycle.

This benchmark recreates the trace: one e-mail check on the KPN profile
with the rail sampled like the paper's shunt+ADC rig, segmented both
from the sampled power series and from the exact modem state transitions.
"""

import pytest

from repro.analysis.energy import segment_tail_from_series
from repro.analysis.plotting import render_series
from repro.apps.energy_study import EMAIL_CHECK_AFTER_MS, figure3_trace
from repro.device.radio import KPN
from repro.sim.kernel import SECOND


def run_trace():
    samples, states = figure3_trace(3)
    from_series = segment_tail_from_series(
        samples, KPN, search_from_ms=EMAIL_CHECK_AFTER_MS
    )
    from_states = states.segment_tail(KPN, after_ms=EMAIL_CHECK_AFTER_MS)
    return samples, from_series, from_states


def render(samples, seg) -> str:
    rel = lambda t: (t - seg.a_ramp_start_ms) / 1000.0
    lines = [
        "Figure 3 — tail energy of one transmission (KPN profile)",
        "",
        f"  a (ramp-up starts) {rel(seg.a_ramp_start_ms):7.2f} s",
        f"  b (transfer ends)  {rel(seg.b_transfer_end_ms):7.2f} s",
        f"  c (DCH -> FACH)    {rel(seg.c_dch_end_ms):7.2f} s    DCH tail {seg.dch_tail_ms/1000:.1f} s  ({seg.dch_tail_energy_j:.2f} J)",
        f"  d (FACH -> idle)   {rel(seg.d_fach_end_ms):7.2f} s    FACH tail {seg.fach_tail_ms/1000:.1f} s  ({seg.fach_tail_energy_j:.2f} J)",
        "",
        f"  tail b->d: {seg.tail_duration_ms/1000:.1f} s (paper: ~59.5 s), energy {seg.tail_energy_j:.2f} J",
        f"  transfer itself: {seg.transfer_energy_j:.2f} J, ramp-up: {seg.ramp_energy_j:.2f} J",
        f"  peak rail power: {samples.max():.2f} W",
        "",
        render_series(
            samples,
            start_ms=seg.a_ramp_start_ms - 20 * SECOND,
            end_ms=seg.d_fach_end_ms + 20 * SECOND,
            height=8,
            annotations=[
                (seg.a_ramp_start_ms, "a"),
                (seg.b_transfer_end_ms, "b"),
                (seg.c_dch_end_ms, "c"),
                (seg.d_fach_end_ms, "d"),
            ],
        ),
    ]
    return "\n".join(lines)


def test_figure3_tail_segmentation(benchmark, report):
    samples, from_series, from_states = benchmark.pedantic(run_trace, rounds=1, iterations=1)
    assert from_series is not None and from_states is not None
    report("figure3_tail_trace", render(samples, from_states))

    # The paper's annotated timings: ~6 s DCH, ~53.5 s FACH, b→d ≈ 59.5 s.
    assert from_states.dch_tail_ms == pytest.approx(6000.0, rel=0.05)
    assert from_states.fach_tail_ms == pytest.approx(53500.0, rel=0.05)
    assert from_states.tail_duration_ms == pytest.approx(59500.0, rel=0.05)

    # Reading the sampled power trace (as one would the paper's scope
    # shot) agrees with ground truth to within the sampling resolution.
    assert from_series.c_dch_end_ms == pytest.approx(from_states.c_dch_end_ms, abs=100.0)
    assert from_series.d_fach_end_ms == pytest.approx(from_states.d_fach_end_ms, abs=100.0)

    # The core premise of Section 4.7: tail energy dwarfs the payload's.
    assert from_states.tail_energy_j > 5.0 * from_states.transfer_energy_j

    # Power levels are ordered DCH > ramp > FACH > idle, as in the figure.
    profile = KPN
    assert profile.dch_w > profile.ramp_w > profile.fach_w > profile.idle_w
