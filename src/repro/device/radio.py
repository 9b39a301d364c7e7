"""3G modem model: RRC power states, carrier tail timers, byte counters.

Section 4.7 and Figure 3 of the paper describe the energy behaviour this
module reproduces.  A UMTS modem moves through radio resource control
(RRC) states:

* **IDLE** — duty-cycled paging; near-zero power (small periodic spikes,
  visible in Figure 3 before *a* and after *d*).
* **ramp-up** — several seconds of channel negotiation with the cell
  tower before any data flows (Figure 3, between *a* and the start of the
  transfer).
* **DCH** — dedicated channel, high power.  After the last transfer the
  modem *stays* in DCH for a carrier-configured inactivity timeout
  (≈6 s on KPN, between *b* and *c*).
* **FACH** — shared channel, medium power, for a further long timeout
  (≈53.5 s on KPN, between *c* and *d*).

The DCH + FACH dwell after the last byte is the **tail**; the paper's
Table 3 shows it differs strongly per carrier.  Per-carrier parameters
live in :class:`CarrierProfile`; the three profiles shipped here are
calibrated so the Table 3 *shape* (KPN longest tail and highest baseline;
single-digit-percent Pogo overhead) is reproduced.

The modem also maintains cumulative byte counters for its interface —
exactly the observable that Pogo's tail detection polls (Section 4.7:
"periodically read the number of bytes received and transmitted on the
2G/3G network interface").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional

from collections import deque

from ..sim.kernel import EventHandle, Kernel
from ..sim.trace import IntervalTrack, TraceRecorder


class RadioUnavailable(Exception):
    """Raised when a transfer is requested with no usable cellular link."""


@dataclass(frozen=True)
class CarrierProfile:
    """RRC timers, power levels and bandwidths for one mobile carrier.

    Power levels approximate published Galaxy Nexus class measurements
    (Balasubramanian et al., IMC'09; Qian et al., IMC'10 — the paper's
    refs [2, 24]); tail timers are per-carrier and calibrated against
    Figure 3 (KPN: ~6 s DCH, ~53.5 s FACH).
    """

    name: str
    ramp_ms: float = 2300.0
    dch_tail_ms: float = 6000.0
    fach_tail_ms: float = 53500.0
    fach_to_dch_ms: float = 600.0
    idle_w: float = 0.004
    ramp_w: float = 0.50
    dch_w: float = 0.80
    fach_w: float = 0.24
    uplink_bytes_per_s: float = 100_000.0
    downlink_bytes_per_s: float = 300_000.0
    min_transfer_ms: float = 250.0
    #: Paging duty cycle in IDLE (the small spikes in Figure 3).  Only
    #: simulated when ``Modem.simulate_paging`` is on; long experiments
    #: disable it to keep the event count down.
    paging_period_ms: float = 2560.0
    paging_duration_ms: float = 80.0
    paging_w: float = 0.12

    def with_overrides(self, **kwargs: Any) -> "CarrierProfile":
        """A copy of the profile with selected fields replaced."""
        return replace(self, **kwargs)


#: The three major Dutch carriers the paper measured (Table 3).  KPN shows
#: by far the longest FACH tail; T-Mobile the shortest.
KPN = CarrierProfile(name="KPN", dch_tail_ms=6000.0, fach_tail_ms=53500.0)
T_MOBILE = CarrierProfile(name="T-Mobile", dch_tail_ms=4500.0, fach_tail_ms=25000.0)
VODAFONE = CarrierProfile(name="Vodafone", dch_tail_ms=5000.0, fach_tail_ms=31000.0)

CARRIERS: Dict[str, CarrierProfile] = {p.name: p for p in (KPN, T_MOBILE, VODAFONE)}

#: RRC states.
IDLE = "idle"
RAMP = "ramp"
DCH = "dch"
FACH = "fach"
OFF = "off"


@dataclass(slots=True)
class TransferJob:
    """One queued data transfer."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    #: Lower bound on the radio-active duration, for chatty exchanges
    #: (e.g. an IMAP dialogue) whose duration is latency- not
    #: bandwidth-bound.
    duration_hint_ms: float = 0.0
    on_complete: Optional[Callable[[bool], None]] = None
    label: str = ""


class Modem:
    """The cellular modem: a queue of transfers over an RRC state machine."""

    __slots__ = (
        "_kernel", "_rail", "profile", "name", "trace", "simulate_paging",
        "state", "transferring", "data_enabled", "coverage", "bytes_tx",
        "bytes_rx", "transfer_count", "rampup_count", "_queue", "_state_timer",
        "_job_timer", "_current_job", "_paging_timer", "_paging_blip_timer",
        "on_state_change", "active_track",
    )

    def __init__(
        self,
        kernel: Kernel,
        rail,
        profile: CarrierProfile,
        name: str = "modem",
        trace: Optional[TraceRecorder] = None,
        simulate_paging: bool = False,
    ) -> None:
        self._kernel = kernel
        self._rail = rail
        self.profile = profile
        self.name = name
        self.trace = trace
        self.simulate_paging = simulate_paging

        self.state = IDLE
        self.transferring = False
        self.data_enabled = True
        self.coverage = True
        #: Cumulative interface byte counters — what tail detection reads.
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.transfer_count = 0
        #: Number of times the modem left IDLE, i.e. paid a ramp-up.  A
        #: synchronized Pogo adds payload without adding ramp-ups.
        self.rampup_count = 0

        self._queue: Deque[TransferJob] = deque()
        self._state_timer: Optional[EventHandle] = None
        self._job_timer: Optional[EventHandle] = None
        self._current_job: Optional[TransferJob] = None
        self._paging_timer: Optional[EventHandle] = None
        self._paging_blip_timer: Optional[EventHandle] = None

        self.on_state_change: List[Callable[[str, str], None]] = []
        self.active_track = IntervalTrack("radio", kernel.read_now)
        self._apply_power()
        self._arm_paging()

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether data can currently be sent over this modem."""
        return self.state != OFF and self.coverage and self.data_enabled

    def set_coverage(self, coverage: bool) -> None:
        """Cell coverage appears/disappears (user 3's 3G outage)."""
        if coverage == self.coverage:
            return
        self.coverage = coverage
        if not coverage:
            self._fail_all("coverage lost")

    def set_data_enabled(self, enabled: bool) -> None:
        """Mobile data toggle (user 2a turning off data roaming)."""
        if enabled == self.data_enabled:
            return
        self.data_enabled = enabled
        if not enabled:
            self._fail_all("data disabled")

    def power_off(self) -> None:
        self._fail_all("modem off")
        self._set_state(OFF)

    def power_on(self) -> None:
        if self.state == OFF:
            self._set_state(IDLE)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(
        self,
        tx_bytes: int = 0,
        rx_bytes: int = 0,
        duration_hint_ms: float = 0.0,
        on_complete: Optional[Callable[[bool], None]] = None,
        label: str = "",
    ) -> TransferJob:
        """Queue a transfer.  ``on_complete(success)`` fires when done.

        Raises :class:`RadioUnavailable` when there is no usable link;
        callers that can buffer (Pogo's transport) check
        :attr:`available` first.
        """
        if not self.available:
            raise RadioUnavailable(
                f"{self.name}: state={self.state} coverage={self.coverage} "
                f"data_enabled={self.data_enabled}"
            )
        job = TransferJob(tx_bytes, rx_bytes, duration_hint_ms, on_complete, label)
        self._queue.append(job)
        self._pump()
        return job

    def _pump(self) -> None:
        if self.transferring or not self._queue:
            return
        if self.state == DCH:
            self._cancel_state_timer()
            self._start_job()
        elif self.state == IDLE:
            self.rampup_count += 1
            self._set_state(RAMP)
            self._state_timer = self._kernel.schedule(self.profile.ramp_ms, self._ramp_done)
        elif self.state == FACH:
            # Promotion from shared to dedicated channel is faster than a
            # cold ramp-up but not free.
            self._cancel_state_timer()
            self._set_state(RAMP)
            self._state_timer = self._kernel.schedule(self.profile.fach_to_dch_ms, self._ramp_done)
        # If already in RAMP the job starts when the ramp completes.

    def _ramp_done(self) -> None:
        self._state_timer = None
        self._set_state(DCH)
        self._start_job()

    def _start_job(self) -> None:
        if not self._queue:
            self._arm_dch_tail()
            return
        job = self._queue.popleft()
        self._current_job = job
        self.transferring = True
        # Credit the byte counters at transfer start: the OS counters rise
        # as packets flow, so a 1 Hz poll observes the change mid-burst.
        self.bytes_tx += job.tx_bytes
        self.bytes_rx += job.rx_bytes
        self.transfer_count += 1
        duration = max(
            self.profile.min_transfer_ms,
            job.duration_hint_ms,
            (
                job.tx_bytes / self.profile.uplink_bytes_per_s
                + job.rx_bytes / self.profile.downlink_bytes_per_s
            )
            * 1000.0,
        )
        if self.trace is not None:
            self.trace.record(
                self.name, "transfer_start", label=job.label, tx=job.tx_bytes, rx=job.rx_bytes
            )
        self._job_timer = self._kernel.schedule(duration, self._job_done, job)

    def _job_done(self, job: TransferJob) -> None:
        self._job_timer = None
        self._current_job = None
        self.transferring = False
        if self.trace is not None:
            self.trace.record(self.name, "transfer_done", label=job.label)
        if job.on_complete is not None:
            job.on_complete(True)
        if self._queue:
            self._start_job()
        else:
            self._arm_dch_tail()

    def _fail_all(self, reason: str) -> None:
        """Abort the in-flight and queued jobs (link loss)."""
        jobs: List[TransferJob] = []
        if self._current_job is not None:
            jobs.append(self._current_job)
            self._current_job = None
            self.transferring = False
        if self._job_timer is not None:
            self._job_timer.cancel()
            self._job_timer = None
        jobs.extend(self._queue)
        self._queue.clear()
        if self.trace is not None and jobs:
            self.trace.record(self.name, "transfers_failed", reason=reason, count=len(jobs))
        if self.state == DCH:
            self._arm_dch_tail()
        elif self.state == RAMP:
            self._cancel_state_timer()
            self._set_state(IDLE)
        for job in jobs:
            if job.on_complete is not None:
                job.on_complete(False)

    # ------------------------------------------------------------------
    # Tail timers
    # ------------------------------------------------------------------
    def _arm_dch_tail(self) -> None:
        self._cancel_state_timer()
        self._state_timer = self._kernel.schedule(self.profile.dch_tail_ms, self._dch_tail_expired)

    def _dch_tail_expired(self) -> None:
        self._state_timer = None
        self._set_state(FACH)
        self._state_timer = self._kernel.schedule(self.profile.fach_tail_ms, self._fach_tail_expired)

    def _fach_tail_expired(self) -> None:
        self._state_timer = None
        self._set_state(IDLE)

    def _cancel_state_timer(self) -> None:
        if self._state_timer is not None:
            self._state_timer.cancel()
            self._state_timer = None

    # ------------------------------------------------------------------
    # State & power
    # ------------------------------------------------------------------
    def _set_state(self, new_state: str) -> None:
        old_state = self.state
        if new_state == old_state:
            return
        self.state = new_state
        self._apply_power()
        if old_state == IDLE:
            self._disarm_paging()
            self.active_track.open(label=new_state)
        if new_state in (IDLE, OFF):
            self.active_track.close()
            if new_state == IDLE:
                self._arm_paging()
        if self.trace is not None:
            self.trace.record(self.name, "state", old=old_state, new=new_state)
        for listener in list(self.on_state_change):
            listener(old_state, new_state)

    def _apply_power(self) -> None:
        watts = {
            OFF: 0.0,
            IDLE: self.profile.idle_w,
            RAMP: self.profile.ramp_w,
            DCH: self.profile.dch_w,
            FACH: self.profile.fach_w,
        }[self.state]
        self._rail.set_draw(self.name, watts)

    # ------------------------------------------------------------------
    # Paging duty cycle (cosmetic spikes in IDLE, Figure 3)
    # ------------------------------------------------------------------
    def _arm_paging(self) -> None:
        if not self.simulate_paging or self.state != IDLE:
            return
        self._paging_timer = self._kernel.schedule(self.profile.paging_period_ms, self._paging_blip)

    def _disarm_paging(self) -> None:
        for timer_attr in ("_paging_timer", "_paging_blip_timer"):
            timer = getattr(self, timer_attr)
            if timer is not None:
                timer.cancel()
                setattr(self, timer_attr, None)

    def _paging_blip(self) -> None:
        self._paging_timer = None
        if self.state != IDLE:
            return
        self._rail.set_draw(self.name, self.profile.idle_w + self.profile.paging_w)
        self._paging_blip_timer = self._kernel.schedule(self.profile.paging_duration_ms, self._paging_blip_end)

    def _paging_blip_end(self) -> None:
        self._paging_blip_timer = None
        if self.state == IDLE:
            self._apply_power()
        self._arm_paging()

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Combined counter, the quantity Pogo's tail detector samples."""
        return self.bytes_tx + self.bytes_rx
