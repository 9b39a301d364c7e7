"""Background applications that generate the radio traffic Pogo rides on.

Section 4.7: "there are typically many applications already present on a
mobile phone that periodically trigger a 3G tail.  Examples are background
processes that check for e-mail, instant messaging applications, and
turn-based multi-player games."  The power experiment (Section 5.2) used a
single e-mail account checked at 5-minute intervals.

Each app wakes the CPU with an alarm (or reacts to a push), holds a wake
lock for the duration of its exchange, and transfers data over the phone's
active interface — which drags the modem through a ramp-up and a tail.
Pogo's tail detector observes the byte counters move and flushes its own
buffer into the same radio session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.kernel import MINUTE
from ..sim.trace import IntervalTrack


@dataclass(frozen=True)
class EmailConfig:
    """An e-mail poller (IMAP-style): small request, moderate response."""

    interval_ms: float = 5 * MINUTE
    tx_bytes: int = 2_048
    rx_bytes: int = 20_480
    #: A poll is a multi-round-trip dialogue; its radio-active time is
    #: latency-bound, not bandwidth-bound.
    duration_hint_ms: float = 800.0
    #: Local processing after the exchange (parsing, notification).
    processing_ms: float = 300.0


#: Configs are immutable, so every poller built without one shares this.
_DEFAULT_EMAIL_CONFIG = EmailConfig()


class EmailApp:
    """Checks for new mail on a repeating alarm (the Table 3 workload)."""

    __slots__ = (
        "phone", "config", "name", "check_count", "failed_checks",
        "activity_track", "_alarm", "_running",
    )

    def __init__(self, phone, config: Optional[EmailConfig] = None, name: str = "email") -> None:
        self.phone = phone
        self.config = config or _DEFAULT_EMAIL_CONFIG
        self.name = name
        self.check_count = 0
        self.failed_checks = 0
        self.activity_track = IntervalTrack(name, phone.kernel.read_now)
        self._alarm = None
        self._running = False

    def start(self, initial_delay_ms: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        self._alarm = self.phone.cpu.set_repeating_alarm(
            self.config.interval_ms, self._check, initial_delay_ms=initial_delay_ms
        )

    def _check(self) -> None:
        self.phone.cpu.acquire_wake_lock(self.name)
        self.activity_track.open(label="check")
        try:
            self.phone.transfer(
                tx_bytes=self.config.tx_bytes,
                rx_bytes=self.config.rx_bytes,
                duration_hint_ms=self.config.duration_hint_ms,
                on_complete=self._exchange_done,
                label=f"{self.name}:check",
            )
        except Exception:
            # No connectivity: give up until the next interval.
            self.failed_checks += 1
            self.activity_track.close()
            self.phone.cpu.release_wake_lock(self.name)

    def _exchange_done(self, success: bool) -> None:
        self.check_count += 1 if success else 0
        if not success:
            self.failed_checks += 1
        # Brief local processing, then release the lock.
        self.phone.kernel.schedule(self.config.processing_ms, self._processing_done)

    def _processing_done(self) -> None:
        self.activity_track.close()
        self.phone.cpu.note_activity()
        self.phone.cpu.release_wake_lock(self.name)


@dataclass
class ChattyAppConfig:
    """A randomized background app (IM client, turn-based game)."""

    mean_interval_ms: float = 12 * MINUTE
    min_interval_ms: float = 30_000.0
    tx_bytes: int = 512
    rx_bytes: int = 2_048
    duration_hint_ms: float = 400.0


class ChattyApp:
    """Randomly-timed background traffic, for richer tail-sync scenarios."""

    def __init__(self, phone, rng, config: Optional[ChattyAppConfig] = None, name: str = "im") -> None:
        self.phone = phone
        self.config = config or ChattyAppConfig()
        self.name = name
        self._rng = rng
        self.exchange_count = 0
        self._alarm = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._arm_next()

    def stop(self) -> None:
        self._running = False
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None

    def _arm_next(self) -> None:
        if not self._running:
            return
        delay = max(self.config.min_interval_ms, self._rng.expovariate(1.0 / self.config.mean_interval_ms))
        self._alarm = self.phone.cpu.set_alarm(delay, self._exchange)

    def _exchange(self) -> None:
        self.phone.cpu.acquire_wake_lock(self.name)
        try:
            self.phone.transfer(
                tx_bytes=self.config.tx_bytes,
                rx_bytes=self.config.rx_bytes,
                duration_hint_ms=self.config.duration_hint_ms,
                on_complete=self._done,
                label=f"{self.name}:exchange",
            )
        except Exception:
            self.phone.cpu.release_wake_lock(self.name)
            self._arm_next()

    def _done(self, success: bool) -> None:
        if success:
            self.exchange_count += 1
        self.phone.cpu.release_wake_lock(self.name)
        self._arm_next()
