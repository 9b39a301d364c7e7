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
transitions and the rail's modem joules (:class:`ModemStateLog`, also
the record of which radio episodes Pogo woke itself) for
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..device.radio import DCH, FACH, IDLE, OFF, RAMP, CarrierProfile
from ..net.transport import is_send_label
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


class RadioEpisode(NamedTuple):
    """One radio-active episode, idle → ramp → (DCH/FACH)* → idle.

    ``trigger`` is ``"flush"`` when a stanza the transport sent woke the
    modem, ``"external"`` when anything else did (another app, a push,
    the connection handshake) and Pogo at most piggybacked.  ``joules``
    is the rail's modem reading at the end minus the one at the start.
    """

    start_ms: float
    end_ms: float
    trigger: str
    joules: float


class ModemStateLog:
    """A modem's RRC transitions, as ``(time_ms, old, new, modem_j,
    woken_by)`` tuples: the rail's modem joules at the transition and the
    label of the transfer that last ramped the modem out of IDLE.

    The modem keeps no history of its own: this recorder rides its
    :attr:`~repro.device.radio.Modem.on_state_change` listener list, so
    it sees the transitions made after it is built.  Reading the rail
    (:meth:`~repro.device.power.PowerRail.energy_of`) changes nothing.
    """

    __slots__ = ("_kernel", "_modem", "_rail", "transitions")

    def __init__(self, kernel, modem, rail) -> None:
        self._kernel = kernel
        self._modem = modem
        self._rail = rail
        self.transitions: List[Tuple[float, str, str, float, str]] = []
        modem.on_state_change.append(self._record)

    def _modem_j(self) -> float:
        return self._rail.energy_of(self._modem.name)

    def _record(self, old: str, new: str) -> None:
        self.transitions.append(
            (self._kernel.now, old, new, self._modem_j(), self._modem.woken_by)
        )

    def episodes(self, until: float) -> List[RadioEpisode]:
        """Radio-active episodes, from leaving IDLE for a ramp-up to
        entering IDLE or OFF; one still open is closed at ``until`` with
        the joules the rail has read so far."""
        episodes: List[RadioEpisode] = []
        opened = None
        for time, old, new, modem_j, woken_by in self.transitions:
            if old == IDLE and new == RAMP:
                trigger = "flush" if is_send_label(woken_by) else "external"
                opened = (time, modem_j, trigger)
            elif new in (IDLE, OFF) and opened is not None:
                episodes.append(RadioEpisode(opened[0], time, opened[2], modem_j - opened[1]))
                opened = None
        if opened is not None:
            episodes.append(
                RadioEpisode(opened[0], until, opened[2], self._modem_j() - opened[1])
            )
        return episodes

    def episodes_by_trigger(self, until: float) -> Dict[str, int]:
        """How many episodes each trigger opened."""
        counts = {"flush": 0, "external": 0}
        for episode in self.episodes(until):
            counts[episode.trigger] += 1
        return counts

    def active_intervals(self, until: float) -> List[Interval]:
        """The episodes' time spans."""
        return [Interval(e.start_ms, e.end_ms) for e in self.episodes(until)]

    def segment_tail(
        self, profile: CarrierProfile, after_ms: float = 0.0
    ) -> Optional[TailSegmentation]:
        """Exact segmentation of the first transmission whose ramp-up
        starts at or after ``after_ms``, its joules read off the rail.

        b is c minus the carrier's DCH inactivity timeout: the modem arms
        that timer when its last transfer ends, exactly as
        :func:`segment_tail_from_series` reconstructs it.  The DCH joules
        from ramp end to c are split at b by time.
        """
        a = r = c = d = None
        for time, old, new, modem_j, _ in self.transitions:
            if time < after_ms:
                continue
            if old == IDLE and new == RAMP and a is None:
                a = (time, modem_j)
            elif old == RAMP and new == DCH and a is not None and r is None:
                r = (time, modem_j)
            elif old == DCH and new == FACH and r is not None and c is None:
                c = (time, modem_j)
            elif old == FACH and new == IDLE and c is not None:
                d = (time, modem_j)
                break
        if d is None:
            return None
        b = c[0] - profile.dch_tail_ms
        dch_j = c[1] - r[1]
        return TailSegmentation(
            a_ramp_start_ms=a[0],
            b_transfer_end_ms=b,
            c_dch_end_ms=c[0],
            d_fach_end_ms=d[0],
            ramp_energy_j=r[1] - a[1],
            transfer_energy_j=dch_j * (b - r[0]) / (c[0] - r[0]),
            dch_tail_energy_j=dch_j * (c[0] - b) / (c[0] - r[0]),
            fach_tail_energy_j=d[1] - c[1],
        )


def percent_increase(baseline: float, value: float) -> float:
    """Table 3's "Increase" column."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline
