"""The sensor manager: sensors serving all contexts, duty-cycled by demand.

Section 4.2: "sensors live inside a *sensor manager*.  They are able to
publish data to, or query subscriptions from, all contexts.  All a script
needs to do in order to obtain sensor data is to subscribe to it.  This
also works across the network; a script running on a collector node that
subscribes to battery information will automatically receive voltage
measurements from all devices in the experiment."

The manager therefore aggregates subscription state across every context
on the node (including the remote-proxy subscriptions synchronized from
collectors), applies the owner's privacy settings, and notifies each
sensor when demand for its channel changes so it can turn itself on or
off and pick its sampling rate (Section 4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .broker import Subscription
from .envelope import Envelope
from .privacy import PrivacySettings


class _SensorDemandWatch:
    """Picklable channel watcher: any subscription change re-evaluates
    the sensor's duty cycle (a lambda here would break Shard snapshots —
    watchers live on context brokers inside the pickled graph)."""

    __slots__ = ("sensor",)

    def __init__(self, sensor) -> None:
        self.sensor = sensor

    def __call__(self, _channel, _subscription, _change) -> None:
        self.sensor.reevaluate()


class SensorManager:
    """Registry and context/privacy bridge for a device's sensors."""

    __slots__ = ("node", "privacy", "sensors")

    def __init__(self, node, privacy: Optional[PrivacySettings] = None) -> None:
        self.node = node
        self.privacy = privacy or PrivacySettings()
        self.sensors: Dict[str, object] = {}
        self.privacy.on_change.append(self._privacy_changed)

    # ------------------------------------------------------------------
    def register(self, sensor) -> None:
        """Register a sensor (one per channel)."""
        if sensor.channel in self.sensors:
            raise ValueError(f"duplicate sensor for channel {sensor.channel!r}")
        self.sensors[sensor.channel] = sensor
        sensor.attach(self)
        for context in self.node.contexts.values():
            self._watch_context_channel(context, sensor.channel)
        sensor.reevaluate()

    # ------------------------------------------------------------------
    # Context integration
    # ------------------------------------------------------------------
    def on_context_added(self, context) -> None:
        """Called by the node whenever an experiment context appears."""
        for channel in self.sensors:
            self._watch_context_channel(context, channel)
        for sensor in self.sensors.values():
            sensor.reevaluate()

    def _watch_context_channel(self, context, channel: str) -> None:
        sensor = self.sensors[channel]
        context.broker.watch_channel(channel, _SensorDemandWatch(sensor))

    # ------------------------------------------------------------------
    # What sensors ask
    # ------------------------------------------------------------------
    def subscriptions(self, channel: str) -> List[Subscription]:
        """All active subscriptions for a channel across contexts.

        Returns nothing when the owner blocked the channel — from the
        sensor's point of view a blocked channel simply has no demand.
        """
        if not self.privacy.allows(channel):
            return []
        result: List[Subscription] = []
        for context in self.node.contexts.values():
            result.extend(context.broker.subscriptions(channel))
        return result

    def publish(self, channel: str, message) -> int:
        """Publish a sensor reading into every context.

        Wrapped once: a reading fanned out to many experiment contexts is
        validated and (if forwarded) serialized a single time.
        """
        if not self.privacy.allows(channel):
            self.privacy.suppressed_publishes += 1
            return 0
        envelope = Envelope.wrap(message)
        delivered = 0
        for context in self.node.contexts.values():
            delivered += context.publish_internal(channel, envelope) or 0
        return delivered

    # ------------------------------------------------------------------
    def _privacy_changed(self, channel: str, _allowed: bool) -> None:
        sensor = self.sensors.get(channel)
        if sensor is not None:
            sensor.reevaluate()

    def shutdown(self) -> None:
        for sensor in self.sensors.values():
            sensor.disable()

    def reevaluate_all(self) -> None:
        for sensor in self.sensors.values():
            sensor.reevaluate()
