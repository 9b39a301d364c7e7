"""Collector-side contexts: the multi broker.

Section 4.2: "Since contexts on collector nodes can have more than one
remote context associated with them, a *multi broker* is used to make the
communication fan out over the different devices."

A :class:`CollectorContext` owns the collector's scripts (e.g.
``collect``), a local broker, and one :class:`DeviceLink` per assigned
device.  Fan-out rules:

* a collector script's ``subscribe()`` is announced to **every** device
  (and to devices attached later);
* a collector script's ``publish()`` is delivered locally and forwarded
  to each device whose synchronized subscription table shows interest;
* a ``pub`` arriving from a device is delivered to local scripts with the
  originating device identity attached (``_device``), since one handler
  receives data from the whole fleet.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .broker import Broker, Subscription
from .context import LINK_OWNER
from .deployment import (
    OP_SUB_ADD,
    OP_SUB_RELEASE,
    OP_SUB_REMOVE,
    OP_SUB_RENEW,
    attach_op,
    deploy_op,
    pub_op,
    sub_add_op,
    sub_change_op,
    teardown_op,
    undeploy_op,
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


class CollectorContext:
    """One experiment's context on the collector node."""

    def __init__(self, node, experiment_id: str) -> None:
        self.node = node
        self.experiment_id = experiment_id
        self.broker = Broker(
            name=f"{experiment_id}@{node.jid}",
            metrics=node.kernel.metrics,
            spans=node.kernel.spans,
        )
        spans = node.kernel.spans
        self._spans = spans
        self._h_publish = spans.hop("publish")
        self._h_deliver = spans.hop("deliver.collector")
        self.scripts: Dict[str, ScriptHost] = {}
        self.links: Dict[str, DeviceLink] = {}
        self.device_scripts: Dict[str, str] = {}
        self._watch_listener = self._on_local_sub_change
        self.broker.watch_all(self._watch_listener)
        self.received_pubs = 0

    # ------------------------------------------------------------------
    # Scripts (collector side)
    # ------------------------------------------------------------------
    def deploy_script(self, name: str, source: str) -> ScriptHost:
        existing = self.scripts.get(name)
        if existing is not None:
            existing.update(source)
            return existing
        host = ScriptHost(self, name, source)
        self.scripts[name] = host
        host.load()
        return host

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

    def remove_script(self, name: str) -> None:
        self.device_scripts.pop(name, None)
        for device_jid in self.links:
            self.node.send_to(device_jid, undeploy_op(self.experiment_id, name))

    @staticmethod
    def _is_local_plumbing(sub: Subscription) -> bool:
        """Service/instrumentation subscriptions stay local (never synced)."""
        return bool(
            sub.owner
            and (sub.owner.startswith("service:") or sub.owner.startswith("local:"))
        )

    def sync_subscriptions_to(self, device_jid: str) -> None:
        """(Re-)announce local script subscriptions to one device."""
        for sub in self.broker.all_subscriptions():
            if sub.owner == LINK_OWNER or sub.removed or self._is_local_plumbing(sub):
                continue
            self.node.send_to(
                device_jid,
                sub_add_op(self.experiment_id, sub.id, sub.channel, sub.parameters),
            )
            if not sub.active:
                self.node.send_to(
                    device_jid,
                    sub_change_op(OP_SUB_RELEASE, self.experiment_id, sub.id),
                )

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_from_script(self, script: ScriptHost, channel: str, message: Any) -> None:
        envelope = Envelope.wrap(message)
        if self._spans.enabled and not envelope.trace_id:
            now = self._spans.now()
            envelope.origin_ms = now
            envelope.hop_span = self._h_publish.record(
                self._spans.tag(envelope),
                0,
                now,
                now,
                {
                    "channel": channel,
                    "source": script.name if script is not None else "collector",
                    "node": self.node.jid,
                },
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
        delivered = 0
        for sub in list(self.broker.subscriptions(channel)):
            if sub.owner == LINK_OWNER:
                continue
            sub.delivery_count += 1
            delivered += 1
            sub.handler(payload)
        return delivered

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
    def _on_local_sub_change(self, channel: str, sub: Subscription, change: str) -> None:
        if sub.owner == LINK_OWNER or self._is_local_plumbing(sub):
            return
        for device_jid in self.links:
            if change == "added":
                payload = sub_add_op(self.experiment_id, sub.id, channel, sub.parameters)
            elif change == "released":
                payload = sub_change_op(OP_SUB_RELEASE, self.experiment_id, sub.id)
            elif change == "renewed":
                payload = sub_change_op(OP_SUB_RENEW, self.experiment_id, sub.id)
            else:
                payload = sub_change_op(OP_SUB_REMOVE, self.experiment_id, sub.id)
            self.node.send_to(device_jid, payload)

    def teardown(self) -> None:
        for host in self.scripts.values():
            host.stop()
        for device_jid in list(self.links):
            self.detach_device(device_jid)
        self.broker.unwatch_all(self._watch_listener)
