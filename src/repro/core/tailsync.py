"""Tail detection and transmission-synchronization policies.

This is the paper's third contribution (Section 4.7): avoid paying 3G
tail energy by transmitting only when *some other application* has
already put the modem in its high-power state.

The detection mechanism is reproduced exactly:

* the detector polls the cellular interface's byte counters once per
  second;
* the poll loop runs on a **sleep-frozen timer** (``Thread.sleep``
  semantics, :class:`repro.device.cpu.SleepFrozenTimer`): while the CPU
  sleeps the loop is suspended, so the detector itself never wakes the
  device and costs essentially nothing;
* when another app's alarm wakes the CPU and its traffic moves the byte
  counters, the detector's next poll (≤1 s later, comfortably inside the
  ~6 s DCH tail) notices and fires — the transmission opportunity.

The *when to send* decision is a pluggable policy; alternatives the paper
discusses ("flush the transmit buffer at long intervals (i.e. once per
hour)", sending immediately) are implemented too, which is what the
ablation benchmark compares.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim.kernel import HOUR, SECOND, Kernel
from ..device.cpu import SleepFrozenTimer


class TailDetector:
    """Polls modem byte counters from a sleep-frozen loop."""

    __slots__ = (
        "phone", "poll_interval_ms", "on_activity", "detections", "polls",
        "_last_bytes", "_timer", "running", "_m_polls", "_m_detections",
    )

    def __init__(self, phone, poll_interval_ms: float = 1 * SECOND) -> None:
        self.phone = phone
        self.poll_interval_ms = poll_interval_ms
        self.on_activity: List[Callable[[], None]] = []
        self.detections = 0
        self.polls = 0
        self._last_bytes = phone.modem.total_bytes
        self._timer: Optional[SleepFrozenTimer] = None
        self.running = False
        self._m_polls = phone.kernel.metrics.counter("tailsync.polls")
        self._m_detections = phone.kernel.metrics.counter("tailsync.detections")

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._last_bytes = self.phone.modem.total_bytes
        self._arm()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        timer = self._timer
        if timer is not None and timer.fired and not timer.cancelled:
            # Re-run the same timer (and its kernel handle) instead of
            # allocating a new one per poll — the detector polls once a
            # second for the entire simulation.
            timer.restart(self.poll_interval_ms)
        else:
            self._timer = self.phone.cpu.sleep_frozen_timer(self.poll_interval_ms, self._poll)

    def _poll(self) -> None:
        if not self.running:
            return
        self.polls += 1
        self._m_polls.inc()
        current = self.phone.modem.total_bytes
        if current != self._last_bytes:
            self._last_bytes = current
            self.detections += 1
            self._m_detections.inc()
            for listener in list(self.on_activity):
                listener()
        self._arm()


class TransmissionPolicy:
    """Decides when the device flushes its outgoing buffer.

    The controller bound via :meth:`bind` provides ``flush(reason)``
    (no-op when the buffer is empty or the device is offline), the
    ``phone`` and the ``scheduler``.
    """

    __slots__ = ("_controller",)

    name = "base"

    def __init__(self) -> None:
        self._controller = None

    def bind(self, controller) -> None:
        self._controller = controller

    # Lifecycle -----------------------------------------------------------
    def start(self) -> None:  # pragma: no cover - overridden
        pass

    def stop(self) -> None:  # pragma: no cover - overridden
        pass

    # Hooks called by the device runtime -----------------------------------
    def on_enqueue(self) -> None:
        pass

    def on_connected(self) -> None:
        # Connectivity restored: there is buffered backlog and the
        # reconnection handshake has already spun the radio up, so a
        # flush here rides the handshake's tail.
        self._flush("connected")

    def _flush(self, reason: str) -> None:
        if self._controller is None:
            return
        kernel = self._controller.kernel
        kernel.metrics.counter(f"tailsync.flush.{reason}").inc()
        spans = kernel.spans
        if spans.enabled:
            # The decision span captures *why* the buffer moved now and
            # what state the radio was in — "tail-sync" on a hot radio is
            # the piggyback; "fallback-interval" from idle is the paid
            # ramp.  node.flush parents its span here via active_parent.
            phone = self._controller.phone
            now = kernel.now
            decision = spans.hop("tailsync.decision").record(
                0,
                0,
                now,
                now,
                {
                    "policy": self.name,
                    "reason": reason,
                    "radio": phone.modem.state if phone is not None else "?",
                },
            )
            previous = spans.active_parent
            spans.active_parent = decision
            try:
                self._controller.flush(reason)
            finally:
                spans.active_parent = previous
        else:
            self._controller.flush(reason)

    @property
    def phone(self):
        return self._controller.phone if self._controller else None


class SynchronizedPolicy(TransmissionPolicy):
    """The paper's scheme: piggyback on other apps' radio activity.

    A fallback timer bounds worst-case latency ("data gathering
    applications generally allow for long latencies"): if nothing else
    has used the radio for ``max_delay_ms``, flush anyway.  On Wi-Fi
    there is no tail to avoid, so enqueued data is sent promptly.
    """

    __slots__ = (
        "detector", "max_delay_ms", "wifi_prompt", "sync_flushes", "_fallback_task",
    )

    name = "synchronized"

    def __init__(
        self,
        detector: TailDetector,
        max_delay_ms: Optional[float] = 1 * HOUR,
        wifi_prompt: bool = True,
    ) -> None:
        super().__init__()
        self.detector = detector
        self.max_delay_ms = max_delay_ms
        self.wifi_prompt = wifi_prompt
        self.sync_flushes = 0
        self._fallback_task = None

    def start(self) -> None:
        self.detector.on_activity.append(self._on_radio_activity)
        self.detector.start()
        if self.max_delay_ms is not None:
            self._fallback_task = self._controller.scheduler.schedule_repeating(
                self.max_delay_ms, self._flush, "fallback-interval"
            )

    def stop(self) -> None:
        self.detector.stop()
        if self._on_radio_activity in self.detector.on_activity:
            self.detector.on_activity.remove(self._on_radio_activity)
        if self._fallback_task is not None:
            self._fallback_task.cancel()
            self._fallback_task = None

    def _on_radio_activity(self) -> None:
        self.sync_flushes += 1
        self._flush("tail-sync")

    def on_enqueue(self) -> None:
        if self.wifi_prompt and self.phone is not None:
            if self.phone.active_interface() == "wifi":
                self._flush("wifi-prompt")


class PeriodicPolicy(TransmissionPolicy):
    """Flush on a fixed timer regardless of other radio activity.

    The ablation baseline: every flush that does not happen to coincide
    with other traffic pays a full ramp-up + tail of its own.
    """

    name = "periodic"

    def __init__(self, interval_ms: float = 5 * 60 * SECOND, offset_ms: Optional[float] = None) -> None:
        super().__init__()
        self.interval_ms = interval_ms
        #: Phase offset of the first flush; lets experiments control
        #: whether the timer happens to align with other apps' traffic.
        self.offset_ms = offset_ms
        self._task = None

    def start(self) -> None:
        self._task = self._controller.scheduler.schedule_repeating(
            self.interval_ms, self._flush, "periodic",
            initial_delay_ms=self.offset_ms,
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None


class ImmediatePolicy(TransmissionPolicy):
    """Send every message as soon as it is enqueued (worst case)."""

    name = "immediate"

    def on_enqueue(self) -> None:
        self._flush("immediate")


class ChargerPolicy(TransmissionPolicy):
    """Flush only while the phone is plugged in.

    The other alternative Section 4.7 names ("simply delay transfer
    until the phone is plugged into the charger") — also what SystemSens
    and LiveLab do ("Both offload the collected traces to a central
    server only when the phone is charging", Section 2).  Essentially
    free energy-wise, but delivery latency is measured in *hours*, and
    anything buffered longer than the message max-age is purged — which
    is why Pogo prefers synchronization.
    """

    name = "charger"

    def __init__(self, drain_interval_ms: float = 10 * 60 * SECOND) -> None:
        super().__init__()
        #: While plugged in, keep draining at this interval (overnight
        #: sessions produce new data continuously).
        self.drain_interval_ms = drain_interval_ms
        self._drain_task = None
        self._listener_installed = False

    def start(self) -> None:
        battery = self._controller.phone.battery
        if not self._listener_installed:
            battery.on_charging_changed.append(self._charging_changed)
            self._listener_installed = True
        if battery.charging:
            self._begin_draining()

    def stop(self) -> None:
        battery = self._controller.phone.battery
        if self._listener_installed and self._charging_changed in battery.on_charging_changed:
            battery.on_charging_changed.remove(self._charging_changed)
            self._listener_installed = False
        self._end_draining()

    def _charging_changed(self, charging: bool) -> None:
        if charging:
            self._flush("charger-plugged")
            self._begin_draining()
        else:
            self._end_draining()

    def _begin_draining(self) -> None:
        if self._drain_task is None:
            self._drain_task = self._controller.scheduler.schedule_repeating(
                self.drain_interval_ms, self._drain
            )

    def _end_draining(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None

    def _drain(self) -> None:
        if self._controller.phone.battery.charging:
            self._flush("charger-drain")

    def on_connected(self) -> None:
        # Unlike the default, reconnection alone does not trigger a
        # flush: the whole point of this policy is to wait for power.
        if self._controller.phone.battery.charging:
            self._flush("connected-charging")
