"""Energy-trace analysis: integrating power and segmenting 3G tails.

Figure 3 annotates four instants on a power trace:

* **a** — the modem is triggered (ramp-up begins);
* **b** — data transmission ends;
* **c** — the modem drops from DCH (high) to FACH (medium), ~6 s later;
* **d** — the modem returns to idle, ~53.5 s after c (on KPN).

"The time from b to d ... is commonly referred to as the *tail-energy* of
a transmission."  This module recovers those instants (and the energy of
each phase) from a sampled power trace, the way one would from the
paper's shunt measurements — by thresholding against the known state
power levels — and can also compute them exactly from the modem's state
transitions (:class:`ModemStateLog`) for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..device.radio import DCH, FACH, IDLE, OFF, RAMP, CarrierProfile
from ..sim.trace import Interval, TimeSeries


def series_energy_joules(series: TimeSeries, start_ms: Optional[float] = None, end_ms: Optional[float] = None) -> float:
    """Trapezoidal energy of a watts-vs-milliseconds series, in joules."""
    if start_ms is not None or end_ms is not None:
        series = series.window(
            start_ms if start_ms is not None else float("-inf"),
            end_ms if end_ms is not None else float("inf"),
        )
    return series.integrate() / 1000.0


@dataclass(frozen=True)
class TailSegmentation:
    """The a/b/c/d instants and per-phase energies of one transmission."""

    a_ramp_start_ms: float
    b_transfer_end_ms: float
    c_dch_end_ms: float
    d_fach_end_ms: float
    ramp_energy_j: float
    transfer_energy_j: float
    dch_tail_energy_j: float
    fach_tail_energy_j: float

    @property
    def tail_duration_ms(self) -> float:
        """b → d: the paper's tail ("59.5 seconds in this example")."""
        return self.d_fach_end_ms - self.b_transfer_end_ms

    @property
    def tail_energy_j(self) -> float:
        return self.dch_tail_energy_j + self.fach_tail_energy_j

    @property
    def dch_tail_ms(self) -> float:
        return self.c_dch_end_ms - self.b_transfer_end_ms

    @property
    def fach_tail_ms(self) -> float:
        return self.d_fach_end_ms - self.c_dch_end_ms


def segment_tail_from_series(
    series: TimeSeries,
    profile: CarrierProfile,
    search_from_ms: float = 0.0,
) -> Optional[TailSegmentation]:
    """Find the first complete transmission+tail episode in a power trace.

    Thresholds sit between the known state power levels, as one would
    place them reading the scope trace by eye: anything above
    ``(fach + dch)/2`` is DCH/ramp territory, anything between
    ``(idle + fach)/2`` and the DCH threshold is FACH.
    """
    dch_threshold = (profile.fach_w + min(profile.ramp_w, profile.dch_w)) / 2.0
    fach_threshold = (profile.idle_w + profile.paging_w + profile.fach_w) / 2.0

    a = b = c = d = None
    # State machine over samples: idle -> high (ramp+transfer) -> ...
    phase = "idle"
    for time_ms, watts in series:
        if time_ms < search_from_ms:
            continue
        if phase == "idle":
            if watts >= dch_threshold:
                a = time_ms
                phase = "high"
        elif phase == "high":
            if watts < dch_threshold:
                # Mid-transfer dips do not occur in this model; leaving
                # the high band means the DCH tail expired.
                c = time_ms
                phase = "fach"
        elif phase == "fach":
            if watts < fach_threshold:
                d = time_ms
                break
            if watts >= dch_threshold:
                # A new transmission started during the tail; restart.
                phase = "high"
                c = None
    if a is None or c is None or d is None:
        return None
    # b (transfer end) cannot be read from power alone (DCH active and DCH
    # tail draw identically); reconstruct it as c minus the carrier's DCH
    # inactivity timeout, exactly how the paper annotates its figure.
    b = c - profile.dch_tail_ms
    return TailSegmentation(
        a_ramp_start_ms=a,
        b_transfer_end_ms=b,
        c_dch_end_ms=c,
        d_fach_end_ms=d,
        ramp_energy_j=series_energy_joules(series, a, min(a + profile.ramp_ms, b)),
        transfer_energy_j=series_energy_joules(series, min(a + profile.ramp_ms, b), b),
        dch_tail_energy_j=series_energy_joules(series, b, c),
        fach_tail_energy_j=series_energy_joules(series, c, d),
    )


class ModemStateLog:
    """A modem's RRC transitions, as ``(time_ms, old, new)`` tuples.

    The modem keeps no history of its own: this recorder rides its
    :attr:`~repro.device.radio.Modem.on_state_change` listener list, so
    it sees the transitions made after it is built.
    """

    __slots__ = ("_kernel", "transitions")

    def __init__(self, kernel, modem) -> None:
        self._kernel = kernel
        self.transitions: List[Tuple[float, str, str]] = []
        modem.on_state_change.append(self._record)

    def _record(self, old: str, new: str) -> None:
        self.transitions.append((self._kernel.now, old, new))

    def active_intervals(self, until: float) -> List[Interval]:
        """Radio-active blocks, from leaving IDLE to entering IDLE or OFF;
        a block still open is closed at ``until``."""
        blocks: List[Interval] = []
        opened: Optional[float] = None
        for time, old, new in self.transitions:
            if old == IDLE and opened is None:
                opened = time
            if new in (IDLE, OFF) and opened is not None:
                blocks.append(Interval(opened, time))
                opened = None
        if opened is not None:
            blocks.append(Interval(opened, until))
        return blocks

    def segment_tail(
        self, profile: CarrierProfile, after_ms: float = 0.0
    ) -> Optional[TailSegmentation]:
        """Exact segmentation of the first transmission whose ramp-up
        starts at or after ``after_ms``.

        b is c minus the carrier's DCH inactivity timeout: the modem arms
        that timer when its last transfer ends, exactly as
        :func:`segment_tail_from_series` reconstructs it.
        """
        a = c = d = None
        for time, old, new in self.transitions:
            if time < after_ms:
                continue
            if old == IDLE and new == RAMP and a is None:
                a = time
            elif old == DCH and new == FACH and a is not None and c is None:
                c = time
            elif old == FACH and new == IDLE and c is not None:
                d = time
                break
        if d is None:
            return None
        b = c - profile.dch_tail_ms
        ramp_end = min(a + profile.ramp_ms, b)
        return TailSegmentation(
            a_ramp_start_ms=a,
            b_transfer_end_ms=b,
            c_dch_end_ms=c,
            d_fach_end_ms=d,
            ramp_energy_j=profile.ramp_w * (ramp_end - a) / 1000.0,
            transfer_energy_j=profile.dch_w * (b - ramp_end) / 1000.0,
            dch_tail_energy_j=profile.dch_w * (c - b) / 1000.0,
            fach_tail_energy_j=profile.fach_w * (d - c) / 1000.0,
        )


def percent_increase(baseline: float, value: float) -> float:
    """Table 3's "Increase" column."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline
