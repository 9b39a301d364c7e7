"""Device and collector nodes: the running Pogo middleware.

Section 4.2: "both the researchers and device owners are running the same
middleware; the only functional difference between them is that
researcher nodes are operating in *collector* mode, which gives them the
ability to deploy scripts."

:class:`Node` is that same middleware: a scheduler over the machine's
CPU, a transport, a freeze store, the experiment contexts, and one
reliable link per peer with its send path and batch unwrapping.
:class:`DeviceNode` adds what a phone needs on top — the sensor manager,
the outgoing buffer with its 24-hour expiry, the tail-synchronization
policy, the energy ledger, and surviving a reboot.
:class:`CollectorNode` adds collector mode on a researcher's PC:
experiment deployment, collector-side services, immediate sends and
acknowledgements (it is wired), and a subscription re-sync whenever a
device comes online.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Dict, List, Optional

from ..net.acks import ReliableLink
from ..device.cpu import MainsCpu
from ..net.transport import SEND_ERRORS, DeviceTransport, WiredTransport
from ..net.xmpp import XmppServer
from ..sim.kernel import MINUTE, Kernel
from ..sim.spans import EnergyLedger
from .buffer import DEFAULT_MAX_AGE_MS, MessageBuffer, MessageStore, traced_envelope
from .messages import message_size_bytes
from .context import DeviceContext
from .deployment import (
    OP_ATTACH,
    OP_BATCH,
    OP_DEPLOY,
    OP_PUB,
    OP_SUB_ADD,
    OP_SUB_RELEASE,
    OP_SUB_REMOVE,
    OP_SUB_RENEW,
    OP_SUB_RESET,
    OP_TEARDOWN,
    OP_UNDEPLOY,
    Experiment,
    batch_op,
)
from .multibroker import CollectorContext
from .privacy import PrivacySettings
from .scheduler import PogoScheduler
from .scripting import FreezeStore
from .sensor_manager import SensorManager
from .tailsync import SynchronizedPolicy, TailDetector, TransmissionPolicy

_SUB_OPS = (OP_SUB_ADD, OP_SUB_RELEASE, OP_SUB_RENEW, OP_SUB_REMOVE)


class Node:
    """The Pogo middleware as it runs at both ends (Section 4.2).

    A subclass is a mode.  It says when a payload leaves (``send_to``),
    when an owed acknowledgement leaves (``_ack_owed``), and what an
    arriving stanza or op means on this side (``_on_stanza``,
    ``_handle_op``).
    """

    __slots__ = (
        "kernel", "jid", "scheduler", "transport", "freeze_store", "contexts",
        "links", "started", "on_link_created",
    )

    def __init__(self, kernel: Kernel, jid: str, cpu, transport) -> None:
        self.kernel = kernel
        self.jid = jid
        self.scheduler = PogoScheduler(kernel, cpu, name=f"{jid}.scheduler")
        self.transport = transport
        self.freeze_store = FreezeStore()
        self.contexts: Dict[str, Any] = {}
        self.links: Dict[str, ReliableLink] = {}
        self.started = False
        #: Called with each lazily created ReliableLink (the chaos
        #: invariant monitor attaches its protocol witness here).
        self.on_link_created: List = []
        transport.on_stanza.append(self._on_stanza)

    def link_for(self, peer_jid: str) -> ReliableLink:
        link = self.links.get(peer_jid)
        if link is None:
            link = ReliableLink(
                self.kernel,
                peer_jid,
                send_raw=partial(self._raw_send, peer_jid),
                deliver=partial(self._handle_payload, peer_jid),
                request_ack_send=partial(self._ack_owed, peer_jid),
            )
            self.links[peer_jid] = link
            for listener in list(self.on_link_created):
                listener(link)
        return link

    def _raw_send(self, peer_jid: str, stanza: dict) -> None:
        try:
            self.transport.send(peer_jid, stanza)
        except SEND_ERRORS:
            # The reliable layer keeps the envelope; it will be resent.
            pass

    def _send_ack(self, link: ReliableLink) -> None:
        ack = link.make_ack()
        if ack is not None:
            self._raw_send(link.peer, ack)

    def _handle_payload(self, from_jid: str, payload: Dict[str, Any]) -> None:
        op = payload.get("op")
        if op == OP_BATCH:
            for item in payload.get("items", []):
                self._handle_payload(from_jid, item)
            return
        self._handle_op(from_jid, op, payload)


class DeviceNode(Node):
    """The Pogo middleware on one phone."""

    __slots__ = (
        "phone", "buffer", "detector", "policy", "privacy", "sensor_manager",
        "_suspended", "on_context_added", "flush_count", "flush_reasons",
        "batches_sent", "payloads_sent", "_m_flushes", "_m_batches", "_m_payloads",
        "_m_batch_size", "_spans", "_h_flush", "energy", "deploy_errors",
    )

    def __init__(
        self,
        kernel: Kernel,
        phone,
        server: XmppServer,
        jid: str,
        policy: Optional[TransmissionPolicy] = None,
        store: Optional[MessageStore] = None,
        max_age_ms: float = DEFAULT_MAX_AGE_MS,
        poll_interval_ms: float = 1000.0,
        privacy: Optional[PrivacySettings] = None,
    ) -> None:
        super().__init__(
            kernel, jid, phone.cpu, DeviceTransport(kernel, server, jid, phone)
        )
        self.phone = phone
        self.buffer = MessageBuffer(kernel, store, max_age_ms)
        self.detector = TailDetector(phone, poll_interval_ms)
        self.policy = policy if policy is not None else SynchronizedPolicy(self.detector)
        self.privacy = privacy or PrivacySettings()
        self.sensor_manager = SensorManager(self, self.privacy)

        self._suspended = False
        #: Called with each newly created DeviceContext (instrumentation,
        #: e.g. the deployment study's SD-card scan logger).
        self.on_context_added: List = []
        self.flush_count = 0
        self.flush_reasons: Counter = Counter()
        self.batches_sent = 0
        self.payloads_sent = 0
        self._m_flushes = kernel.metrics.counter("node.flushes")
        self._m_batches = kernel.metrics.counter("node.batches_sent")
        self._m_payloads = kernel.metrics.counter("node.payloads_sent")
        self._m_batch_size = kernel.metrics.histogram("node.batch_payloads")
        self._spans = kernel.spans
        self._h_flush = kernel.spans.hop("node.flush")
        #: Per-device modem energy accounting: every RRC episode's joules,
        #: attributed to the traced messages whose flushes rode it.
        self.energy = EnergyLedger(kernel, phone.modem)
        #: (experiment, script, exception) for deploys whose script
        #: failed to load — surfaced, never propagated.
        self.deploy_errors: List = []

        self.transport.on_connected.append(self._on_connected)
        phone.on_shutdown.append(self._suspend)
        phone.on_boot.append(self._resume)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.policy.bind(self)
        self.policy.start()
        self.transport.start()

    def stop(self) -> None:
        self.started = False
        self.policy.stop()
        self.detector.stop()
        for context in self.contexts.values():
            context.stop_all_scripts()
        self.sensor_manager.shutdown()
        self.scheduler.stop()

    def _suspend(self) -> None:
        """Phone shut down (reboot / battery): volatile state dies."""
        if not self.started:
            return
        self._suspended = True
        self.policy.stop()
        self.detector.stop()
        for context in self.contexts.values():
            context.stop_all_scripts()
            context.clear_remote_subs()
        self.sensor_manager.shutdown()
        self.scheduler.stop()

    def _resume(self) -> None:
        """Phone booted: reload persisted scripts, re-sync subscriptions."""
        if not self.started or not self._suspended:
            return
        self._suspended = False
        self.scheduler.restart()
        # Tell each collector to forget our stale subscription table,
        # then reloading the scripts re-announces the fresh one.
        for context in self.contexts.values():
            self.send_to(
                context.collector_jid,
                {"op": OP_SUB_RESET, "ctx": context.experiment_id},
            )
        for context in self.contexts.values():
            context.reload_all_scripts()
        self.sensor_manager.reevaluate_all()
        self.policy.start()

    # ------------------------------------------------------------------
    # The owner's UI surface (Section 3.3: settings and script control
    # "can be changed at any time from the application interface")
    # ------------------------------------------------------------------
    def script_status(self) -> List[Dict[str, Any]]:
        """What the phone's UI lists: each script's description & state."""
        rows: List[Dict[str, Any]] = []
        for experiment_id, context in sorted(self.contexts.items()):
            for name, host in sorted(context.scripts.items()):
                rows.append(
                    {
                        "experiment": experiment_id,
                        "script": name,
                        "description": host.description,
                        "autostart": host.autostart,
                        "running": host.running,
                        "errors": len(host.errors),
                        "debug_lines": len(host.debug_lines),
                    }
                )
        return rows

    def start_script(self, experiment_id: str, name: str) -> None:
        """The user explicitly starts a non-autostart script from the UI.

        Section 4.4: "If automatic starting of a script is turned off, it
        will not run until the user explicitly starts it through the UI."
        """
        self.contexts[experiment_id].scripts[name].start()

    def stop_script(self, experiment_id: str, name: str) -> None:
        """The user stops a script from the UI."""
        self.contexts[experiment_id].scripts[name].stop()

    # ------------------------------------------------------------------
    # Outgoing path: buffer -> (flush) -> reliable link -> transport
    # ------------------------------------------------------------------
    def send_to(self, peer_jid: str, payload: Dict[str, Any]) -> None:
        """Enqueue a payload for a peer; the policy decides when it goes."""
        if self._suspended:
            return
        self.buffer.enqueue(peer_jid, payload)
        self.policy.on_enqueue()

    def flush(self, reason: str = "manual") -> int:
        """Drain the buffer into batches, one per destination.

        Also retransmits unacknowledged envelopes and sends any owed
        acknowledgements — everything rides the same radio session.
        Returns the number of payloads handed to the reliable layer.
        """
        if self._suspended or not self.transport.connected:
            return 0
        self.flush_count += 1
        self._m_flushes.inc()
        self.flush_reasons[reason] += 1
        batches = self.buffer.peek_batches()
        interface = self.phone.active_interface()
        spans = self._spans
        flush_span = 0
        if spans.enabled:
            now = self.kernel.now
            flush_span = self._h_flush.record(
                0,
                spans.active_parent,  # the tail-sync decision, when any
                now,
                now,
                {
                    "reason": reason,
                    "radio": self.phone.modem.state,
                    "interface": interface or "none",
                    "batches": len(batches),
                    "payloads": sum(len(m) for _, m in batches),
                },
            )
        if batches:
            # Register this flush's riders with the energy ledger *before*
            # the physical sends: a flush from idle opens the radio episode
            # synchronously inside link.send, and the ledger must already
            # know Pogo triggered it (self-initiated vs piggybacked is the
            # whole Table 3 distinction).
            riders = []
            for _, messages in batches:
                for message in messages:
                    envelope = traced_envelope(message.payload)
                    if envelope is not None:
                        riders.append((envelope.trace_id, envelope.wire_size))
                    else:
                        riders.append((0, message_size_bytes(message.payload)))
            self.energy.on_flush(flush_span, riders, interface, self.phone.modem.state)
        sent_payloads = 0
        previous_parent = spans.active_parent
        if flush_span:
            spans.active_parent = flush_span
        try:
            for destination, messages in batches:
                link = self.link_for(destination)
                items = [m.payload for m in messages]
                # mark_sent before the physical send: from here on the
                # reliable layer owns delivery (resend on loss).
                self.buffer.mark_sent(messages, flush_span, reason)
                link.send(batch_op(items))
                self.batches_sent += 1
                self._m_batches.inc()
                self._m_payloads.inc(len(items))
                self._m_batch_size.observe(len(items))
                sent_payloads += len(items)
            for link in self.links.values():
                link.resend_unacked(max_age_ms=self.buffer.max_age_ms)
                self._send_ack(link)
        finally:
            spans.active_parent = previous_parent
        self.energy.settle_flush()
        self.payloads_sent += sent_payloads
        return sent_payloads

    def _ack_owed(self, peer_jid: str) -> None:
        """Acks piggyback on the next flush; incoming data itself triggers
        the tail detector, so the flush follows within about a second of
        the push."""

    # ------------------------------------------------------------------
    # Incoming path
    # ------------------------------------------------------------------
    def _on_connected(self) -> None:
        if self._suspended:
            return
        self.policy.on_connected()

    def _on_stanza(self, from_jid: str, stanza: dict) -> None:
        if self._suspended:
            return
        kind = stanza.get("kind")
        if kind == "presence":
            return  # devices do not act on collector presence
        self.link_for(from_jid).on_raw(stanza)

    def _handle_op(self, from_jid: str, op: Optional[str], payload: Dict[str, Any]) -> None:
        experiment_id = payload.get("ctx", "")
        if op in (OP_ATTACH, OP_DEPLOY):
            context = self.contexts.get(experiment_id)
            if context is None:
                context = DeviceContext(self, experiment_id, from_jid)
                self.contexts[experiment_id] = context
                self.sensor_manager.on_context_added(context)
                for listener in list(self.on_context_added):
                    listener(context)
            if op == OP_DEPLOY:
                try:
                    context.deploy_script(payload["script"], payload["source"])
                except Exception as exc:  # noqa: BLE001 - a broken script
                    # must not take the middleware down; the host records
                    # the error for the device UI / researcher to see.
                    self.deploy_errors.append((experiment_id, payload["script"], exc))
            return
        context = self.contexts.get(experiment_id)
        if context is None:
            return
        if op == OP_UNDEPLOY:
            context.undeploy_script(payload["script"])
        elif op == OP_TEARDOWN:
            context.teardown()
            del self.contexts[experiment_id]
        elif op == OP_PUB:
            context.deliver_remote(payload["channel"], payload["msg"])
        elif op in _SUB_OPS:
            context.apply_sub_op(payload)
        # Unknown ops are ignored (forward compatibility).


class CollectorNode(Node):
    """The Pogo middleware in collector mode (a researcher's PC)."""

    def __init__(
        self,
        kernel: Kernel,
        server: XmppServer,
        jid: str,
        resend_interval_ms: float = 5 * MINUTE,
    ) -> None:
        super().__init__(
            kernel, jid, MainsCpu(kernel), WiredTransport(kernel, server, jid)
        )
        self.resend_interval_ms = resend_interval_ms
        #: Collector-side services (e.g. the geolocation bridge); attached
        #: to every context created by :meth:`deploy`.
        self.services: List[object] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.transport.start()
        self.scheduler.schedule_repeating(self.resend_interval_ms, self._resend_all)

    def _resend_all(self) -> None:
        for link in self.links.values():
            link.resend_unacked()

    def add_service(self, service) -> None:
        """Register a collector-side service (attached to all contexts)."""
        self.services.append(service)
        for context in self.contexts.values():
            service.attach_context(context)

    # ------------------------------------------------------------------
    # Deployment (what "collector mode" adds, Section 4.2)
    # ------------------------------------------------------------------
    def deploy(self, experiment: Experiment, device_jids: List[str]) -> CollectorContext:
        """Run an experiment on a set of devices."""
        experiment.validate()
        context = self.contexts.get(experiment.experiment_id)
        if context is None:
            context = CollectorContext(self, experiment.experiment_id)
            self.contexts[experiment.experiment_id] = context
            for service in self.services:
                service.attach_context(context)
        context.device_scripts = dict(experiment.device_scripts)
        for name, source in experiment.collector_scripts.items():
            context.deploy_script(name, source)
        for device_jid in device_jids:
            context.attach_device(device_jid)
        return context

    def push_script(self, experiment_id: str, name: str, source: str) -> None:
        """Deploy or update one device script across the fleet."""
        self.contexts[experiment_id].push_script(name, source)

    # ------------------------------------------------------------------
    def send_to(self, peer_jid: str, payload: Dict[str, Any]) -> None:
        """Collectors are wired: payloads go out immediately."""
        self.link_for(peer_jid).send(payload)

    def _ack_owed(self, peer_jid: str) -> None:
        """...and so do acknowledgements."""
        self._send_ack(self.links[peer_jid])

    # ------------------------------------------------------------------
    def _on_stanza(self, from_jid: str, stanza: dict) -> None:
        kind = stanza.get("kind")
        if kind == "presence":
            if stanza.get("available"):
                jid = stanza.get("jid", "")
                for context in self.contexts.values():
                    if jid in context.links:
                        context.sync_subscriptions_to(jid)
            return
        self.link_for(from_jid).on_raw(stanza)

    def _handle_op(self, from_jid: str, op: Optional[str], payload: Dict[str, Any]) -> None:
        experiment_id = payload.get("ctx", "")
        context = self.contexts.get(experiment_id)
        if op == OP_SUB_RESET:
            for ctx in self.contexts.values():
                ctx.reset_device_subs(from_jid)
            return
        if context is None:
            return
        if op == OP_PUB:
            context.deliver_remote(from_jid, payload["channel"], payload["msg"])
        elif op in _SUB_OPS:
            context.apply_sub_op(from_jid, payload)
