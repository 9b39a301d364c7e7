"""Online invariant monitor: the pipeline's guarantees, checked live.

The chaos engine is only half the instrument.  The other half is an
observer that states what must remain true *no matter what faults are
injected*, and checks it while the simulation runs:

1. **Buffer conservation** — ``enqueued = drained + expired + occupancy``
   for every device's outgoing store, sampled periodically and at the
   end.  A message may leave the buffer only by being handed to the
   reliable layer or by the 24-hour purge.
2. **Exactly-once, in-order** — a :class:`~repro.net.acks.LinkObserver`
   witness on every ReliableLink: no sequence number is delivered twice,
   delivered sequence numbers strictly increase, and any receiver-side
   gap is covered by an explicit sender abandonment (the ``base``
   advance), never by silent loss.
3. **Envelope conservation** — every sequence number ever transmitted is,
   at the end of the run, delivered, abandoned-and-accounted, or still
   held by the protocol (sender unacked / receiver reorder buffer).
   After the settle phase the last category must be empty: a healed
   network leaves nothing stuck in flight.
4. **Ack sanity** — cumulative acks a node emits never regress.
5. **Scheduler serialization** — the paper's "only a single thread will
   run code from a given script at any time": no serial key is ever
   re-entered while a task for it is still running.

Violations carry the simulated time, the subject (link, buffer,
scheduler key) and the trace ids of the envelopes involved, so a
failing chaos run points at the exact message that broke the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.middleware import PogoSimulation
from ..net.acks import LinkObserver, ReliableLink
from ..sim.kernel import SECOND
from .impairments import stanza_trace_ids


@dataclass
class Violation:
    """One observed breach of a pipeline invariant."""

    invariant: str
    time_ms: float
    subject: str
    detail: str
    trace_ids: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "detail": self.detail,
            "invariant": self.invariant,
            "subject": self.subject,
            "time_ms": round(self.time_ms, 3),
            "trace_ids": sorted(set(self.trace_ids)),
        }


class _LinkWitness(LinkObserver):
    """Per-link protocol witness (one direction-pair: owner <-> peer).

    Records what the link *did*; the monitor judges it.  Sender-side
    fields describe the owner→peer direction, receiver-side fields the
    peer→owner direction.
    """

    def __init__(self, monitor: "InvariantMonitor", owner: str, link: ReliableLink) -> None:
        self.monitor = monitor
        self.owner = owner
        self.peer = link.peer
        self.link = link
        # Sender side (owner -> peer).
        self.tx_trace_ids: Dict[int, List[int]] = {}
        self.tx_counts: Dict[int, int] = {}
        self.abandoned: Set[int] = set()
        # Receiver side (peer -> owner).
        self.delivered_seqs: List[int] = []
        self.delivered_set: Set[int] = set()
        self.gap_skips: List[Tuple[int, int]] = []
        self.duplicates = 0
        self.last_ack_emitted = -1

    @property
    def subject(self) -> str:
        return f"{self.owner}->{self.peer}"

    # -- LinkObserver ---------------------------------------------------
    def on_transmit(self, link: ReliableLink, seq: int, payload: Any, retransmit: bool) -> None:
        self.tx_counts[seq] = self.tx_counts.get(seq, 0) + 1
        if seq not in self.tx_trace_ids:
            self.tx_trace_ids[seq] = stanza_trace_ids({"payload": payload})

    def on_abandon(self, link: ReliableLink, seqs: List[int]) -> None:
        self.abandoned.update(seqs)

    def on_deliver(self, link: ReliableLink, seq: int, payload: Any) -> None:
        if seq in self.delivered_set:
            self.monitor.record(
                "exactly-once",
                f"{self.peer}->{self.owner}",
                f"seq {seq} delivered twice",
                stanza_trace_ids({"payload": payload}),
            )
        if self.delivered_seqs and seq <= self.delivered_seqs[-1]:
            self.monitor.record(
                "in-order",
                f"{self.peer}->{self.owner}",
                f"seq {seq} delivered after seq {self.delivered_seqs[-1]}",
                stanza_trace_ids({"payload": payload}),
            )
        self.delivered_seqs.append(seq)
        self.delivered_set.add(seq)

    def on_duplicate(self, link: ReliableLink, seq: int) -> None:
        self.duplicates += 1

    def on_gap_skip(self, link: ReliableLink, old_expected: int, base: int) -> None:
        self.gap_skips.append((old_expected, base))

    def on_ack_emitted(self, link: ReliableLink, ack: int) -> None:
        if ack < self.last_ack_emitted:
            self.monitor.record(
                "ack-monotonic",
                self.subject,
                f"emitted ack {ack} after ack {self.last_ack_emitted}",
            )
        self.last_ack_emitted = ack

    def summary(self) -> Dict[str, Any]:
        return {
            "abandoned": len(self.abandoned),
            "delivered": len(self.delivered_seqs),
            "duplicates_suppressed": self.duplicates,
            "gap_skips": len(self.gap_skips),
            "transmissions": sum(self.tx_counts.values()),
            "unacked": self.link.unacked_count,
            "unique_sent": len(self.tx_counts),
        }


class _SchedulerWitness:
    """Checks per-key serialization for one scheduler."""

    def __init__(self, monitor: "InvariantMonitor", name: str) -> None:
        self.monitor = monitor
        self.name = name
        self._depth: Dict[str, int] = {}

    def task_started(self, scheduler, key: Optional[str]) -> None:
        if key is None:
            return
        depth = self._depth.get(key, 0) + 1
        self._depth[key] = depth
        if depth > 1:
            self.monitor.record(
                "scheduler-serialization",
                f"{self.name}/{key}",
                f"serial key entered {depth} times concurrently",
            )

    def task_finished(self, scheduler, key: Optional[str]) -> None:
        if key is None:
            return
        self._depth[key] = self._depth.get(key, 0) - 1


class InvariantMonitor:
    """Attaches witnesses across a simulation and accumulates violations."""

    #: What the registry reads off the monitor (:meth:`MetricsRegistry.attach`).
    METRICS = {"chaos.violations": "violation_count"}

    def __init__(
        self,
        sim: PogoSimulation,
        check_interval_ms: Optional[float] = 30 * SECOND,
    ) -> None:
        self.sim = sim
        self.kernel = sim.kernel
        #: ``None`` makes the monitor a pure observer: witnesses still
        #: watch every link and scheduler, but no periodic check event is
        #: ever scheduled, so attaching it cannot change the kernel's
        #: event count.  Scenario runs use this so solo and sharded
        #: executions stay byte-identical.
        self.check_interval_ms = check_interval_ms
        self.violations: List[Violation] = []
        self._witnesses: Dict[Tuple[str, str], _LinkWitness] = {}
        self._finished = False
        sim.kernel.metrics.attach(self)
        self._attach()

    # ------------------------------------------------------------------
    def record(
        self, invariant: str, subject: str, detail: str, trace_ids: Optional[List[int]] = None
    ) -> Violation:
        violation = Violation(invariant, self.kernel.now, subject, detail, list(trace_ids or []))
        self.violations.append(violation)
        return violation

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        nodes = [(jid, self.sim.collectors[jid].node) for jid in sorted(self.sim.collectors)]
        nodes += [(jid, self.sim.devices[jid].node) for jid in sorted(self.sim.devices)]
        for jid, node in nodes:
            node.scheduler.observer = _SchedulerWitness(self, node.scheduler.name)
            for link in node.links.values():
                self._attach_link(jid, link)
            node.on_link_created.append(partial(self._attach_link, jid))
        if self.check_interval_ms is not None:
            self.kernel.schedule(self.check_interval_ms, self._periodic)

    def _attach_link(self, owner: str, link: ReliableLink) -> None:
        witness = _LinkWitness(self, owner, link)
        self._witnesses[(owner, link.peer)] = witness
        link.observer = witness

    # ------------------------------------------------------------------
    # Periodic checks
    # ------------------------------------------------------------------
    def _periodic(self) -> None:
        self._check_buffers()
        self.kernel.schedule(self.check_interval_ms, self._periodic)

    def _check_buffers(self) -> None:
        for jid in sorted(self.sim.devices):
            buffer = self.sim.devices[jid].node.buffer
            error = buffer.conservation_error()
            if error != 0:
                self.record(
                    "buffer-conservation",
                    f"{jid}.buffer",
                    f"enqueued-drained-expired-occupancy = {error} (expected 0)",
                )

    # ------------------------------------------------------------------
    # End-of-run judgement
    # ------------------------------------------------------------------
    def finish(self, expect_quiesced: bool = True) -> List[Violation]:
        """Run the terminal checks; idempotent.

        With ``expect_quiesced`` the network is assumed healed and
        drained (the engine's settle phase ran): anything still held by
        the protocol is reported as stuck in flight.
        """
        if self._finished:
            return self.violations
        self._finished = True
        self._check_buffers()
        for (owner, peer) in sorted(self._witnesses):
            self._judge_direction(self._witnesses[(owner, peer)], expect_quiesced)
        return self.violations

    def _judge_direction(self, witness: _LinkWitness, expect_quiesced: bool) -> None:
        """Judge the witness's *sender* direction (owner -> peer)."""
        if (
            witness.peer not in self.sim.devices
            and witness.peer not in self.sim.collectors
        ):
            # Cross-shard boundary link: delivery and acking happen on
            # the peer's shard, invisible to this monitor.  Conservation
            # across the boundary is gated fleet-wide by the sharded-vs-
            # solo report parity instead of judged here (a per-shard
            # judgement would flag every healthy boundary link).
            return
        mate = self._witnesses.get((witness.peer, witness.owner))
        link = witness.link
        # The witness reads protocol-private state; it never writes it.
        in_flight_rx: Set[int] = set(getattr(mate.link, "_out_of_order", {})) if mate else set()
        unacked: Set[int] = set(getattr(link, "_unacked", {}))
        lost: List[int] = []
        for seq in sorted(witness.tx_counts):
            if mate is not None and seq in mate.delivered_set:
                continue
            if seq in witness.abandoned or seq in unacked or seq in in_flight_rx:
                continue
            lost.append(seq)
        if lost:
            trace_ids = [t for seq in lost for t in witness.tx_trace_ids.get(seq, [])]
            self.record(
                "envelope-conservation",
                witness.subject,
                f"seqs {lost[:8]}{'...' if len(lost) > 8 else ''} transmitted but "
                "neither delivered, abandoned, nor in flight",
                trace_ids,
            )
        if mate is not None:
            for old_expected, base in mate.gap_skips:
                skipped = set(range(old_expected, base))
                unaccounted = sorted(skipped - witness.abandoned)
                if unaccounted:
                    self.record(
                        "gap-accounting",
                        witness.subject,
                        f"receiver skipped seqs {unaccounted[:8]} without a "
                        "matching sender abandonment",
                    )
        if expect_quiesced:
            if unacked:
                stuck = sorted(unacked)
                trace_ids = [t for seq in stuck for t in witness.tx_trace_ids.get(seq, [])]
                self.record(
                    "quiescence",
                    witness.subject,
                    f"{len(stuck)} envelope(s) still unacked after settle "
                    f"(seqs {stuck[:8]}{'...' if len(stuck) > 8 else ''})",
                    trace_ids,
                )
            if mate is not None and in_flight_rx:
                self.record(
                    "quiescence",
                    witness.subject,
                    f"{len(in_flight_rx)} envelope(s) stranded in the receiver's "
                    f"reorder buffer (seqs {sorted(in_flight_rx)[:8]})",
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def link_summaries(self) -> Dict[str, Dict[str, Any]]:
        return {
            f"{owner}->{peer}": self._witnesses[(owner, peer)].summary()
            for owner, peer in sorted(self._witnesses)
        }

    def violations_dicts(self) -> List[Dict[str, Any]]:
        return sorted(
            (v.to_dict() for v in self.violations),
            key=lambda d: (d["time_ms"], d["invariant"], d["subject"], d["detail"]),
        )
