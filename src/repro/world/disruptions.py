"""Deployment disruptions: the events that made Table 4 imperfect.

Section 5.3 attributes every data-quality problem in the localization
deployment to a concrete disruption:

* clusters lost or truncated because "the clustering algorithm [was]
  interrupted half-way through building a cluster ... if a phone was
  rebooted, ran out of battery, or when we uploaded a new version of the
  script";
* user 2a "made a trip abroad and turned off data roaming", so buffered
  messages aged past the 24-hour limit and were purged;
* user 3 "experienced problems with his 3G Internet access resulting in
  two days of missing data".

This module schedules exactly those events against a simulated phone (and
the Pogo runtime's script-update hook), so the Table 4 benchmark can
regenerate the paper's match/partial percentages mechanism-for-mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..sim.kernel import DAY, HOUR, MINUTE, Kernel
from ..sim.randomness import as_random

REBOOT = "reboot"
BATTERY_OUT = "battery_out"
SCRIPT_UPDATE = "script_update"
DATA_OFF = "data_off"
DATA_ON = "data_on"
CELL_OUTAGE_START = "cell_outage_start"
CELL_OUTAGE_END = "cell_outage_end"
WIFI_OFF = "wifi_off"
WIFI_ON = "wifi_on"


@dataclass(frozen=True)
class Disruption:
    """One scheduled disruption event."""

    time_ms: float
    kind: str


@dataclass
class DisruptionPlan:
    """An ordered list of disruptions for one device."""

    events: List[Disruption] = field(default_factory=list)

    def add(self, time_ms: float, kind: str) -> "DisruptionPlan":
        self.events.append(Disruption(time_ms, kind))
        return self

    def sorted_events(self) -> List[Disruption]:
        return sorted(self.events, key=lambda e: e.time_ms)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def schedule(
        self,
        kernel: Kernel,
        phone,
        on_script_update: Optional[Callable[[], None]] = None,
    ) -> None:
        """Install every event on the kernel."""
        for event in self.sorted_events():
            if event.time_ms < kernel.now:
                continue
            kernel.schedule_at(event.time_ms, self._apply, event, phone, on_script_update)

    @staticmethod
    def _apply(event: Disruption, phone, on_script_update: Optional[Callable[[], None]]) -> None:
        if event.kind == REBOOT:
            phone.reboot()
        elif event.kind == BATTERY_OUT:
            # A battery-out is a reboot with a longer outage (finding a
            # charger) from the middleware's point of view.
            phone.reboot(downtime_ms=45 * MINUTE)
        elif event.kind == SCRIPT_UPDATE:
            if on_script_update is not None:
                on_script_update()
        elif event.kind == DATA_OFF:
            phone.set_data_enabled(False)
        elif event.kind == DATA_ON:
            phone.set_data_enabled(True)
        elif event.kind == CELL_OUTAGE_START:
            phone.set_cell_coverage(False)
        elif event.kind == CELL_OUTAGE_END:
            phone.set_cell_coverage(True)
        elif event.kind == WIFI_OFF:
            # "No known networks": association suppressed, scanning works.
            phone.suppress_wifi_association(True)
        elif event.kind == WIFI_ON:
            phone.suppress_wifi_association(False)
        else:
            raise ValueError(f"unknown disruption kind: {event.kind!r}")


def random_reboots(
    rng,
    days: int,
    rate_per_day: float = 0.18,
    start_ms: float = 0.0,
) -> List[Disruption]:
    """Poisson-ish reboot schedule over the deployment.

    ``rng`` is anything :func:`~repro.sim.randomness.as_random` accepts —
    a seeded ``random.Random``, a ``RandomStreams`` registry or an int
    seed.  The bare ``random`` module is rejected: disruption schedules
    must replay bit-for-bit from the experiment seed alone.
    """
    rng = as_random(rng, "disruptions/reboots")
    events: List[Disruption] = []
    t = start_ms
    horizon = start_ms + days * DAY
    if rate_per_day <= 0:
        return events
    mean_gap = DAY / rate_per_day
    while True:
        t += rng.expovariate(1.0 / mean_gap)
        if t >= horizon:
            break
        events.append(Disruption(t, REBOOT))
    return events


def script_update_schedule(days: int, update_days: Optional[List[int]] = None) -> List[Disruption]:
    """Experimenter-driven script pushes (same instants for every user).

    Researchers "rarely get their algorithms right on the first try"
    (Section 1) — the deployment saw several mid-run updates, each of
    which restarted the scripts and (pre freeze/thaw) lost their state.
    """
    if update_days is None:
        update_days = [2, 5, 9, 16]
    return [
        Disruption(day * DAY + 14 * HOUR, SCRIPT_UPDATE)
        for day in update_days
        if day < days
    ]


def trip_abroad(start_day: float, end_day: float) -> List[Disruption]:
    """User 2a's trip: data roaming off for the whole trip.

    Abroad there are no known Wi-Fi networks either, so Wi-Fi offload is
    unavailable for the duration — which is why messages aged past the
    24-hour limit and were purged.
    """
    return [
        Disruption(start_day * DAY, DATA_OFF),
        Disruption(start_day * DAY, WIFI_OFF),
        Disruption(end_day * DAY, DATA_ON),
        Disruption(end_day * DAY, WIFI_ON),
    ]


def cell_outage(start_day: float, end_day: float) -> List[Disruption]:
    """User 3's broken 3G subscription: two days without mobile data."""
    return [
        Disruption(start_day * DAY, CELL_OUTAGE_START),
        Disruption(end_day * DAY, CELL_OUTAGE_END),
    ]


def standard_plan(
    rng,
    days: int,
    reboot_rate_per_day: float = 0.18,
    update_days: Optional[List[int]] = None,
    extra: Optional[List[Disruption]] = None,
) -> DisruptionPlan:
    """The default per-user plan: random reboots + shared script updates.

    ``rng`` follows the :func:`random_reboots` contract (seeded
    ``random.Random`` / ``RandomStreams`` / int seed; never the global
    ``random`` module).
    """
    plan = DisruptionPlan()
    plan.events.extend(random_reboots(as_random(rng, "disruptions/reboots"), days, reboot_rate_per_day))
    plan.events.extend(script_update_schedule(days, update_days))
    if extra:
        plan.events.extend(extra)
    return plan
