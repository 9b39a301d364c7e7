"""Collector-side contexts: the multi broker.

Section 4.2: "Since contexts on collector nodes can have more than one
remote context associated with them, a *multi broker* is used to make the
communication fan out over the different devices."

A :class:`CollectorContext` is a :class:`~repro.core.context.Context`
— the collector's scripts (e.g. ``collect``), a local broker, local
subscriptions mirrored to its peers — whose peers are one
:class:`DeviceLink` per assigned device.  Fan-out rules:

* a collector script's ``subscribe()`` is announced to **every** device
  (and to devices attached later);
* a collector script's ``publish()`` is delivered locally and forwarded
  to each device whose synchronized subscription table shows interest;
* a ``pub`` arriving from a device is delivered to local scripts with the
  originating device identity attached (``_device``), since one handler
  receives data from the whole fleet.
"""

from __future__ import annotations

from typing import Any, Dict

from .context import Context
from .deployment import (
    OP_SUB_ADD,
    OP_SUB_RELEASE,
    OP_SUB_REMOVE,
    OP_SUB_RENEW,
    attach_op,
    deploy_op,
    pub_op,
    teardown_op,
)
from .envelope import Envelope, FrozenDict
from .scripting import ScriptHost


class DeviceLink:
    """Synchronized state for one device in a collector context."""

    __slots__ = ("device_jid", "remote_subs", "_active_count")

    def __init__(self, device_jid: str) -> None:
        self.device_jid = device_jid
        #: device-side subscription id -> {"channel", "params", "active"}
        self.remote_subs: Dict[int, dict] = {}
        #: channel -> number of active subscriptions, kept in lockstep
        #: with ``remote_subs`` so interest checks are O(1) instead of a
        #: scan of the whole synchronized table per publish.
        self._active_count: Dict[str, int] = {}

    def interested_in(self, channel: str) -> bool:
        return self._active_count.get(channel, 0) > 0

    def _count_active(self, channel: str, delta: int) -> None:
        count = self._active_count.get(channel, 0) + delta
        if count > 0:
            self._active_count[channel] = count
        else:
            self._active_count.pop(channel, None)

    def apply_sub_op(self, payload: dict) -> None:
        op = payload["op"]
        sub_id = int(payload["sub"])
        if op == OP_SUB_ADD:
            previous = self.remote_subs.get(sub_id)
            if previous is not None and previous["active"]:
                self._count_active(previous["channel"], -1)
            self.remote_subs[sub_id] = {
                "channel": payload["channel"],
                "params": payload.get("params") or {},
                "active": True,
            }
            self._count_active(payload["channel"], +1)
        elif op == OP_SUB_RELEASE:
            entry = self.remote_subs.get(sub_id)
            if entry is not None and entry["active"]:
                entry["active"] = False
                self._count_active(entry["channel"], -1)
        elif op == OP_SUB_RENEW:
            entry = self.remote_subs.get(sub_id)
            if entry is not None and not entry["active"]:
                entry["active"] = True
                self._count_active(entry["channel"], +1)
        elif op == OP_SUB_REMOVE:
            entry = self.remote_subs.pop(sub_id, None)
            if entry is not None and entry["active"]:
                self._count_active(entry["channel"], -1)
        else:
            raise ValueError(f"not a subscription op: {op!r}")

    def reset(self) -> None:
        self.remote_subs.clear()
        self._active_count.clear()


class CollectorContext(Context):
    """One experiment's context on the collector node."""

    DELIVER_HOP = "deliver.collector"

    def __init__(self, node, experiment_id: str) -> None:
        super().__init__(node, experiment_id)
        self.links: Dict[str, DeviceLink] = {}
        self.device_scripts: Dict[str, str] = {}
        self.received_pubs = 0

    def _peers(self):
        return self.links

    # ------------------------------------------------------------------
    # Device management (the fan-out set)
    # ------------------------------------------------------------------
    def attach_device(self, device_jid: str) -> DeviceLink:
        """Add a device: push the experiment's scripts and our subs."""
        if device_jid in self.links:
            return self.links[device_jid]
        link = DeviceLink(device_jid)
        self.links[device_jid] = link
        self.node.send_to(device_jid, attach_op(self.experiment_id))
        for name, source in self.device_scripts.items():
            self.node.send_to(device_jid, deploy_op(self.experiment_id, name, source))
        self.sync_subscriptions_to(device_jid)
        return link

    def detach_device(self, device_jid: str) -> None:
        if device_jid in self.links:
            self.node.send_to(device_jid, teardown_op(self.experiment_id))
            del self.links[device_jid]

    def push_script(self, name: str, source: str) -> None:
        """Deploy/update a device script across the whole fleet."""
        self.device_scripts[name] = source
        for device_jid in self.links:
            self.node.send_to(device_jid, deploy_op(self.experiment_id, name, source))

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_from_script(self, script: ScriptHost, channel: str, message: Any) -> None:
        envelope = Envelope.wrap(message)
        self._root_span(
            envelope, channel, script.name if script is not None else "collector"
        )
        self.broker.publish(channel, envelope)
        for device_jid, link in self.links.items():
            if link.interested_in(channel):
                # One envelope fans out to the whole fleet: each device's
                # pub op shares the same validated payload and cached JSON.
                self.node.send_to(device_jid, pub_op(self.experiment_id, channel, envelope))

    def deliver_remote(self, device_jid: str, channel: str, message: Any) -> int:
        """Deliver a device's pub to local scripts, tagged with origin."""
        self.received_pubs += 1
        envelope = Envelope.wrap(message)
        if envelope.trace_id and self._spans.enabled:
            # End-to-end terminus: from the device-side publish to here.
            # Recorded against the *incoming* envelope (the tagged re-wrap
            # below is a new envelope and would lose the trace).
            self._h_deliver.record(
                envelope.trace_id,
                envelope.hop_span,
                envelope.origin_ms,
                self._spans.now(),
                {"channel": channel, "device": device_jid},
            )
        payload = envelope.payload
        if isinstance(payload, dict):
            # Tag with the originating device.  The envelope's payload
            # values are already frozen (the construction invariant), so
            # the tagged view is a direct FrozenDict — no re-validation
            # walk over the top level.
            tagged = dict(payload)
            tagged["_device"] = device_jid
            payload = FrozenDict(tagged)
        return self._deliver_local(channel, payload)

    # ------------------------------------------------------------------
    # Subscription ops from devices
    # ------------------------------------------------------------------
    def apply_sub_op(self, device_jid: str, payload: dict) -> None:
        link = self.links.get(device_jid)
        if link is not None:
            link.apply_sub_op(payload)

    def reset_device_subs(self, device_jid: str) -> None:
        link = self.links.get(device_jid)
        if link is not None:
            link.reset()

    # ------------------------------------------------------------------
    def teardown(self) -> None:
        self.stop_all_scripts()
        for device_jid in list(self.links):
            self.detach_device(device_jid)
        self.broker.unwatch_all(self._watch_listener)
