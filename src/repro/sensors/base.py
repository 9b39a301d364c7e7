"""Sensor base class: demand-driven activation and rate selection.

Section 4.3: "Given the battery constraints of mobile devices it would be
wasteful to have sensors draw power when their output is not being
consumed.  The framework therefore allows sensors to listen for changes
in subscriptions to the channels they publish on.  Sensors can enable or
disable scanning based on this information, and change their behavior
depending on the subscription parameters."

And the coordination example from Section 3.5: when two scripts request
Wi-Fi scans at different rates, "it would be sufficient to scan at the
highest of the two frequencies to serve both scripts" — so the effective
interval is the *minimum* requested interval across all subscriptions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim.kernel import MINUTE


class Sensor:
    """Base class for device sensors.

    Subclasses set :attr:`channel` and :attr:`default_interval_ms` and
    implement :meth:`sample` (one reading) plus optionally
    :meth:`on_enabled` / :meth:`on_disabled` for power bookkeeping.
    """

    channel: str = ""
    default_interval_ms: float = 1 * MINUTE

    __slots__ = (
        "phone", "manager", "enabled", "interval_ms", "sample_count",
        "publish_count", "_task",
    )

    def __init__(self, phone) -> None:
        self.phone = phone
        self.manager = None
        self.enabled = False
        self.interval_ms = self.default_interval_ms
        self.sample_count = 0
        self.publish_count = 0
        self._task = None

    # ------------------------------------------------------------------
    def attach(self, manager) -> None:
        self.manager = manager

    @property
    def scheduler(self):
        return self.manager.node.scheduler

    # ------------------------------------------------------------------
    # Demand evaluation
    # ------------------------------------------------------------------
    def reevaluate(self) -> None:
        """Re-check demand for this sensor's channel and (re)configure."""
        if self.manager is None:
            return
        subscriptions = self.manager.subscriptions(self.channel)
        if not subscriptions:
            self.disable()
            return
        interval = self.effective_interval(subscriptions)
        if not self.enabled:
            self.interval_ms = interval
            self.enable()
        elif interval != self.interval_ms:
            self.interval_ms = interval
            self.retime()

    def effective_interval(self, subscriptions) -> float:
        """Highest requested rate wins (minimum interval)."""
        intervals = [
            float(s.parameter("interval", self.default_interval_ms))
            for s in subscriptions
        ]
        return max(min(intervals), 100.0)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def enable(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        self.on_enabled()
        self._task = self.scheduler.schedule_repeating(
            self.interval_ms, self._tick, initial_delay_ms=min(self.interval_ms, 1000.0)
        )

    def disable(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self.on_disabled()

    def retime(self) -> None:
        """Apply a new sampling interval."""
        if self._task is not None:
            self._task.cancel()
        self._task = self.scheduler.schedule_repeating(self.interval_ms, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.enabled:
            return
        self.sample_count += 1
        self.sample()

    def publish(self, message: Dict[str, Any]) -> None:
        """Publish a reading into every context on the node."""
        if self.manager is None:
            return
        self.publish_count += 1
        message.setdefault("timestamp", self.phone.kernel.now)
        self.manager.publish(self.channel, message)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def sample(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_enabled(self) -> None:
        """Called when the sensor turns on (claim power, warm up)."""

    def on_disabled(self) -> None:
        """Called when the sensor turns off (release power)."""
