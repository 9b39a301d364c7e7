"""Store-and-forward message buffer with persistence and expiry.

Section 4.6: "Messages that are to be transferred over the XMPP
connection are not sent out immediately ... Messages are therefore
buffered at the device and sent out in batches.  Buffered messages are
stored in an embedded SQL database to ensure that no messages are lost
should a device reboot or run out of battery."

And from the deployment post-mortem (Section 5.3): "we had configured
Pogo to drop messages older than 24 hours if there was no Internet
connectivity" — which is exactly what purged user 2a's and user 3's data
and produced the sub-100% match rates in Table 4.  The expiry is
therefore a first-class, configurable behaviour here.

The store is a plain in-memory list: "persistence" across simulated
reboots is simply the object surviving the phone's restart, as flash
does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from ..sim.kernel import HOUR, Kernel

#: The deployment's configured maximum message age.
DEFAULT_MAX_AGE_MS = 24 * HOUR


def traced_envelope(payload: Any):
    """The traced envelope riding an op payload, if any.

    Only ``pub`` ops carry messages; sub/attach/ack plumbing has no
    envelope and stays untraced.
    """
    if isinstance(payload, dict):
        envelope = payload.get("msg")
        if envelope is not None and getattr(envelope, "trace_id", 0):
            return envelope
    return None


@dataclass(frozen=True, slots=True)
class BufferedMessage:
    """One message waiting for transmission."""

    id: int
    created_ms: float
    destination: str
    payload: Any


class MessageStore:
    """Interface for buffer storage backends."""

    __slots__ = ()

    def append(self, message: BufferedMessage) -> None:
        raise NotImplementedError

    def remove(self, ids: Iterable[int]) -> None:
        raise NotImplementedError

    def all_messages(self) -> List[BufferedMessage]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryStore(MessageStore):
    """Flash-backed store modelled as an ordinary list."""

    __slots__ = ("_messages",)

    def __init__(self) -> None:
        self._messages: List[BufferedMessage] = []

    def append(self, message: BufferedMessage) -> None:
        self._messages.append(message)

    def remove(self, ids: Iterable[int]) -> None:
        doomed = set(ids)
        self._messages = [m for m in self._messages if m.id not in doomed]

    def all_messages(self) -> List[BufferedMessage]:
        return list(self._messages)

    def __len__(self) -> int:
        return len(self._messages)


class MessageBuffer:
    """The device's outgoing buffer: enqueue, expire, drain in batches."""

    __slots__ = (
        "_ids", "kernel", "store", "max_age_ms", "enqueued", "drained", "expired",
        "_m_enqueued", "_m_drained", "_m_expired", "_spans", "_h_enqueue", "_h_dwell",
    )

    def __init__(
        self,
        kernel: Kernel,
        store: Optional[MessageStore] = None,
        max_age_ms: float = DEFAULT_MAX_AGE_MS,
    ) -> None:
        self._ids = itertools.count(1)
        self.kernel = kernel
        # `store or ...` would discard an *empty* store (stores define
        # __len__), so compare with None explicitly.
        self.store = store if store is not None else InMemoryStore()
        self.max_age_ms = max_age_ms
        self.enqueued = 0
        self.drained = 0
        self.expired = 0
        self._m_enqueued = kernel.metrics.counter("buffer.enqueued")
        self._m_drained = kernel.metrics.counter("buffer.drained")
        self._m_expired = kernel.metrics.counter("buffer.expired")
        self._spans = kernel.spans
        self._h_enqueue = kernel.spans.hop("buffer.enqueue")
        self._h_dwell = kernel.spans.hop("buffer.dwell")


    def enqueue(self, destination: str, payload: Any) -> BufferedMessage:
        message = BufferedMessage(
            id=next(self._ids),
            created_ms=self.kernel.now,
            destination=destination,
            payload=payload,
        )
        self.store.append(message)
        self.enqueued += 1
        self._m_enqueued.inc()
        envelope = traced_envelope(payload)
        if envelope is not None and self._spans.enabled:
            now = self.kernel.now
            span_id = self._h_enqueue.record(
                envelope.trace_id,
                envelope.hop_span,
                now,
                now,
                {"destination": destination, "bytes": envelope.wire_size},
            )
            if span_id:
                envelope.hop_span = span_id
        return message

    def __len__(self) -> int:
        return len(self.store)

    @property
    def empty(self) -> bool:
        return len(self.store) == 0

    def conservation_error(self) -> int:
        """``enqueued − drained − expired − occupancy``; zero when the
        books balance.  Every message that ever entered the buffer must
        be accounted as drained (handed to the reliable layer), expired
        (the 24-hour purge) or still waiting — the buffer-occupancy
        invariant the chaos monitor checks continuously.
        """
        return self.enqueued - self.drained - self.expired - len(self.store)

    def peek_batches(self) -> List[Tuple[str, List[BufferedMessage]]]:
        """Pending messages grouped by destination, oldest first.

        Messages older than ``max_age_ms`` are dropped first, in the same
        walk: the mechanism that lost user 2a's trip and user 3's outage
        window in the paper's deployment.
        """
        messages = self.store.all_messages()
        if self.max_age_ms is not None:
            cutoff = self.kernel.now - self.max_age_ms
            doomed = [m.id for m in messages if m.created_ms < cutoff]
            if doomed:
                self.store.remove(doomed)
                self.expired += len(doomed)
                self._m_expired.inc(len(doomed))
                messages = [m for m in messages if m.created_ms >= cutoff]
        by_destination: dict = {}
        for message in messages:
            by_destination.setdefault(message.destination, []).append(message)
        return sorted(by_destination.items())

    def mark_sent(
        self,
        messages: Iterable[BufferedMessage],
        flush_span: int = 0,
        flush_reason: str = "",
    ) -> None:
        """Remove messages that were handed to the reliable layer.

        With tracing on, each traced message closes its ``buffer.dwell``
        span here — created_ms to now is exactly the latency tail-sync
        trades for energy, labelled with the flush that released it.
        """
        messages = list(messages)
        ids = [m.id for m in messages]
        self.store.remove(ids)
        self.drained += len(ids)
        self._m_drained.inc(len(ids))
        if self._spans.enabled:
            now = self.kernel.now
            for message in messages:
                envelope = traced_envelope(message.payload)
                if envelope is None:
                    continue
                span_id = self._h_dwell.record(
                    envelope.trace_id,
                    envelope.hop_span,
                    message.created_ms,
                    now,
                    {"flush_span": flush_span, "reason": flush_reason},
                )
                if span_id:
                    envelope.hop_span = span_id
