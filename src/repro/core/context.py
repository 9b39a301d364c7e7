"""Experiment contexts: the core both ends run, and the device side.

Section 4.2: "Scripts belonging to a certain experiment run inside a
so-called *context*, which acts as a sandbox; scripts can only
communicate within the same experiment.  Each context has a counterpart
on a remote node ... Each context has a *message broker* associated with
it ... The brokers on either end synchronize with each other so that the
publish-subscribe mechanism works seamlessly across the network
boundary."

Every :class:`Context` therefore owns a broker (local scripts, and on a
phone sensor deliveries), the deployed scripts of one experiment, and
the mirroring of local script subscriptions to its peers — the one
collector on a phone, the attached devices on a collector
(:class:`~repro.core.multibroker.CollectorContext`).  A
:class:`DeviceContext` adds:

* the synchronized view of the collector's subscriptions (*remote
  proxies*): real :class:`~repro.core.broker.Subscription` objects with a
  link owner tag and a no-op handler.  They exist so sensors see remote
  interest (a collector subscribing to ``battery`` turns the device's
  battery sensor on) while actual cross-network delivery is a single
  forwarded ``pub`` per publish.
"""

from __future__ import annotations

from typing import Any, Dict

from .broker import Broker, Subscription
from .deployment import (
    OP_SUB_ADD,
    OP_SUB_RELEASE,
    OP_SUB_REMOVE,
    OP_SUB_RENEW,
    pub_op,
    sub_add_op,
    sub_change_op,
)
from .envelope import Envelope
from .scripting import ScriptHost

#: Owner tag for remote-proxy subscriptions.
LINK_OWNER = "link"


def _noop(_message: Any) -> None:
    """Handler for proxy subscriptions; forwarding happens out of band."""


class Context:
    """One experiment's sandbox, as it runs at both ends (Section 4.2).

    A subclass names its peers (``_peers``), the hop its incoming
    deliveries end at (``DELIVER_HOP``), and what publishing and remote
    delivery mean on its side.
    """

    __slots__ = (
        "node", "experiment_id", "broker", "_spans", "_h_publish", "_h_deliver",
        "scripts", "_watch_listener",
    )

    def __init__(self, node, experiment_id: str) -> None:
        self.node = node
        self.experiment_id = experiment_id
        self.broker = Broker(name=f"{experiment_id}@{node.jid}", spans=node.kernel.spans)
        node.kernel.metrics.attach(self.broker)
        spans = node.kernel.spans
        self._spans = spans
        self._h_publish = spans.hop("publish")
        self._h_deliver = spans.hop(self.DELIVER_HOP)
        self.scripts: Dict[str, ScriptHost] = {}
        self._watch_listener = self._on_local_sub_change
        self.broker.watch_all(self._watch_listener)

    # ------------------------------------------------------------------
    # Scripts
    # ------------------------------------------------------------------
    def deploy_script(self, name: str, source: str) -> ScriptHost:
        """Install or update a script (remote push, Section 3.2)."""
        existing = self.scripts.get(name)
        if existing is not None:
            existing.update(source)
            return existing
        host = ScriptHost(self, name, source)
        self.scripts[name] = host
        host.load()
        return host

    def stop_all_scripts(self) -> None:
        for host in self.scripts.values():
            host.stop()

    # ------------------------------------------------------------------
    # Publishing and delivery
    # ------------------------------------------------------------------
    def _root_span(self, envelope: Envelope, channel: str, source: str) -> None:
        """Open the message's trace at its first traced publish."""
        if not self._spans.enabled or envelope.trace_id:
            return
        now = self._spans.now()
        envelope.origin_ms = now
        envelope.hop_span = self._h_publish.record(
            self._spans.tag(envelope),
            0,
            now,
            now,
            ("channel", "source", "node"),
            channel,
            source,
            self.node.jid,
        )

    def _deliver_local(self, channel: str, payload: Any) -> int:
        """Hand a payload that arrived over the link to the local scripts
        (never back to the remote proxies)."""
        delivered = 0
        for sub in list(self.broker.subscriptions(channel)):
            if sub.owner == LINK_OWNER:
                continue
            sub.delivery_count += 1
            delivered += 1
            sub.handler(payload)
        return delivered

    # ------------------------------------------------------------------
    # Local subscription mirroring (this side -> its peers)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_local_plumbing(sub: Subscription) -> bool:
        """Node-local subscriptions (instrumentation, services) are never
        mirrored to a peer."""
        return bool(sub.owner and (sub.owner.startswith("local:") or sub.owner.startswith("service:")))

    def _on_local_sub_change(self, channel: str, sub: Subscription, change: str) -> None:
        if sub.owner == LINK_OWNER or self._is_local_plumbing(sub):
            return
        for peer_jid in self._peers():
            if change == "added":
                payload = sub_add_op(self.experiment_id, sub.id, channel, sub.parameters)
            elif change == "released":
                payload = sub_change_op(OP_SUB_RELEASE, self.experiment_id, sub.id)
            elif change == "renewed":
                payload = sub_change_op(OP_SUB_RENEW, self.experiment_id, sub.id)
            else:
                payload = sub_change_op(OP_SUB_REMOVE, self.experiment_id, sub.id)
            self.node.send_to(peer_jid, payload)

    def sync_subscriptions_to(self, peer_jid: str) -> None:
        """(Re-)announce every live local subscription to one peer."""
        for sub in self.broker.all_subscriptions():
            if sub.owner == LINK_OWNER or sub.removed or self._is_local_plumbing(sub):
                continue
            self.node.send_to(
                peer_jid,
                sub_add_op(self.experiment_id, sub.id, sub.channel, sub.parameters),
            )
            if not sub.active:
                self.node.send_to(
                    peer_jid,
                    sub_change_op(OP_SUB_RELEASE, self.experiment_id, sub.id),
                )


class DeviceContext(Context):
    """One experiment's sandbox on a device node."""

    __slots__ = ("collector_jid", "remote_subs", "forwarded_pubs")

    DELIVER_HOP = "deliver.device"

    def __init__(self, node, experiment_id: str, collector_jid: str) -> None:
        super().__init__(node, experiment_id)
        self.collector_jid = collector_jid
        #: remote subscription id (collector side) -> proxy Subscription.
        self.remote_subs: Dict[int, Subscription] = {}
        self.forwarded_pubs = 0

    def _peers(self):
        return (self.collector_jid,)

    # ------------------------------------------------------------------
    # Scripts
    # ------------------------------------------------------------------
    def reload_all_scripts(self) -> None:
        """After a reboot: scripts restart from source; thaw() recovers
        whatever they froze."""
        for host in self.scripts.values():
            try:
                host.load()
            except Exception:  # noqa: BLE001 - a broken script must not kill boot
                pass

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_from_script(self, script: ScriptHost, channel: str, message: Any) -> None:
        envelope = Envelope.wrap(message)
        self._root_span(
            envelope, channel, script.name if script is not None else "script"
        )
        self.broker.publish(channel, envelope)
        self._forward_if_remote_interest(channel, envelope)

    def publish_internal(self, channel: str, message: Any) -> int:
        """Sensor-manager publishes (sensors reach every context)."""
        envelope = Envelope.wrap(message)
        self._root_span(envelope, channel, "sensor")
        delivered = self.broker.publish(channel, envelope)
        self._forward_if_remote_interest(channel, envelope)
        return delivered

    def _forward_if_remote_interest(self, channel: str, envelope: Envelope) -> None:
        if any(
            sub.owner == LINK_OWNER and sub.active
            for sub in self.broker.subscriptions(channel)
        ):
            self.forwarded_pubs += 1
            # The envelope travels inside the pub op: the buffer, the
            # transport and the switch all reuse its cached JSON/size.
            self.node.send_to(
                self.collector_jid, pub_op(self.experiment_id, channel, envelope)
            )

    def deliver_remote(self, channel: str, message: Any) -> int:
        """Deliver a pub that arrived from the collector to local scripts."""
        envelope = Envelope.wrap(message)
        delivered = self._deliver_local(channel, envelope.payload)
        if envelope.trace_id and self._spans.enabled:
            # End-to-end terminus: span covers origin publish -> delivery.
            self._h_deliver.record(
                envelope.trace_id,
                envelope.hop_span,
                envelope.origin_ms,
                self._spans.now(),
                ("channel", "deliveries", "node"),
                channel,
                delivered,
                self.node.jid,
            )
        return delivered

    # ------------------------------------------------------------------
    # Remote subscription synchronization (collector -> device)
    # ------------------------------------------------------------------
    def apply_sub_op(self, payload: dict) -> None:
        op = payload["op"]
        sub_id = int(payload["sub"])
        if op == OP_SUB_ADD:
            existing = self.remote_subs.pop(sub_id, None)
            if existing is not None:
                existing.remove()
            proxy = self.broker.subscribe(
                payload["channel"], _noop, payload.get("params") or {}, owner=LINK_OWNER
            )
            self.remote_subs[sub_id] = proxy
        elif op == OP_SUB_RELEASE:
            proxy = self.remote_subs.get(sub_id)
            if proxy is not None:
                proxy.release()
        elif op == OP_SUB_RENEW:
            proxy = self.remote_subs.get(sub_id)
            if proxy is not None:
                proxy.renew()
        elif op == OP_SUB_REMOVE:
            proxy = self.remote_subs.pop(sub_id, None)
            if proxy is not None:
                proxy.remove()
        else:
            raise ValueError(f"not a subscription op: {op!r}")

    def clear_remote_subs(self) -> None:
        """Volatile broker state dies with a reboot; the collector
        re-announces its subscriptions on our next presence."""
        for proxy in list(self.remote_subs.values()):
            proxy.remove()
        self.remote_subs.clear()

    def teardown(self) -> None:
        self.stop_all_scripts()
        self.clear_remote_subs()
        self.broker.unwatch_all(self._watch_listener)
