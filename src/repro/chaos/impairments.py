"""Network impairment primitives, injected at the XMPP routing seam.

The deployment in Section 5.3 met the real world's faults one at a time
— stale sessions, dead batteries, roaming data-off, a broken 3G
subscription.  This module generalizes them into the classic link
impairments (drop, duplication, reordering, added latency, partitions)
applied per (sender, receiver) pair at the one place every remote stanza
passes: :meth:`repro.net.xmpp.XmppServer.submit`.

Mechanism: :class:`ChaosInterceptor` implements the
:class:`~repro.net.xmpp.LinkInterceptor` seam.  For each stanza it
returns a *delivery plan* — a list of extra latencies, one per copy to
route.  ``[]`` drops the stanza, ``[0, 0]`` duplicates it, a large
single entry holds it past later traffic (reordering), and a modest one
adds queueing delay.  The server does the actual (re)scheduling, so the
interceptor stays pure policy and the impairment composes with the
switchboard's own loss modes (stale sessions, offline storage).

Determinism: every coin flip comes from one named stream of the
experiment's :class:`~repro.sim.randomness.RandomStreams`; two runs with
the same seed and scenario replay byte-identically, which is what lets a
failing chaos run be handed to a colleague as ``--seed N``.

Observability: every action increments a ``chaos.*`` metrics counter and
records a ``chaos.impair`` span whose attrs carry the action, the link
and the trace ids of any envelopes riding the stanza — a dropped
message's trace therefore *shows* the drop instead of dangling.
"""

from __future__ import annotations

import random
from typing import Any, List, Set, Tuple

from ..net.xmpp import LinkInterceptor
from ..sim.kernel import Kernel


def stanza_trace_ids(stanza: Any) -> List[int]:
    """Trace ids of every traced envelope riding a wire stanza.

    Walks the reliable-link wrapper (``env`` stanzas), batch ops and pub
    ops; control traffic (acks, sub ops, deploys) yields no ids.  Used
    by the impairment spans and by invariant-violation reports to name
    the exact messages a fault touched.
    """
    ids: List[int] = []
    _collect_trace_ids(stanza, ids)
    return ids


def _collect_trace_ids(value: Any, ids: List[int]) -> None:
    if not isinstance(value, dict):
        return
    envelope = value.get("msg")
    if envelope is not None:
        trace_id = getattr(envelope, "trace_id", 0)
        if trace_id:
            ids.append(trace_id)
    payload = value.get("payload")
    if payload is not None:
        _collect_trace_ids(payload, ids)
    for item in value.get("items", ()):
        _collect_trace_ids(item, ids)


class Impairment:
    """One link's impairment dial settings (all probabilities in [0, 1]).

    ``delay_ms`` adds uniform extra latency to every delivered copy;
    ``hold_ms`` is how long a reordered stanza is held back — it must
    exceed the typical inter-stanza gap to actually overtake anything.
    """

    __slots__ = ("drop", "dup", "reorder", "delay_ms", "hold_ms")

    def __init__(
        self,
        drop: float = 0.0,
        dup: float = 0.0,
        reorder: float = 0.0,
        delay_ms: Tuple[float, float] = (0.0, 0.0),
        hold_ms: Tuple[float, float] = (500.0, 3_000.0),
    ) -> None:
        for name, p in (("drop", drop), ("dup", dup), ("reorder", reorder)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability out of range: {p}")
        self.drop = drop
        self.dup = dup
        self.reorder = reorder
        self.delay_ms = delay_ms
        self.hold_ms = hold_ms


class _Rule:
    """(src pattern, dst pattern) -> Impairment; '*' matches any JID."""

    __slots__ = ("src", "dst", "impairment")

    def __init__(self, src: str, dst: str, impairment: Impairment) -> None:
        self.src = src
        self.dst = dst
        self.impairment = impairment

    def matches(self, from_jid: str, to_jid: str) -> bool:
        return (self.src == "*" or self.src == from_jid) and (
            self.dst == "*" or self.dst == to_jid
        )


#: The attr names of a ``chaos.impair`` span, by whether it carries an
#: extra latency and whether the stanza held several traces.
_IMPAIR_KEYS = {
    (False, False): ("action", "link"),
    (True, False): ("action", "link", "extra_ms"),
    (False, True): ("action", "link", "traces"),
    (True, True): ("action", "link", "extra_ms", "traces"),
}


class ChaosInterceptor(LinkInterceptor):
    """The deterministic impairment engine behind the XMPP seam."""

    def __init__(self, kernel: Kernel, rng: random.Random) -> None:
        self.kernel = kernel
        self.rng = rng
        self._rules: List[_Rule] = []
        #: Active partitions: each is a frozenset of JIDs forming an
        #: island; stanzas crossing an island boundary are dropped.
        self._partitions: List[Set[str]] = []
        metrics = kernel.metrics
        self._m_dropped = metrics.counter("chaos.dropped")
        self._m_duplicated = metrics.counter("chaos.duplicated")
        self._m_reordered = metrics.counter("chaos.reordered")
        self._m_delayed = metrics.counter("chaos.delayed")
        self._m_partition_dropped = metrics.counter("chaos.partition_dropped")
        self._m_passed = metrics.counter("chaos.passed")
        self._h_extra = metrics.histogram("chaos.extra_latency_ms")
        self._spans = kernel.spans
        self._h_impair = kernel.spans.hop("chaos.impair")

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_rule(self, src: str, dst: str, impairment: Impairment) -> None:
        """Impair stanzas from ``src`` to ``dst`` ('*' wildcards).

        First matching rule wins, so put specific links before '*'/'*'.
        """
        self._rules.append(_Rule(src, dst, impairment))

    def start_partition(self, island: Set[str]) -> None:
        """Cut ``island`` off from everyone else (both directions)."""
        self._partitions.append(set(island))

    def end_partition(self, island: Set[str]) -> None:
        island = set(island)
        self._partitions = [p for p in self._partitions if p != island]

    def heal(self) -> None:
        """Drop every rule and partition: the settle phase's clean slate."""
        self._rules.clear()
        self._partitions.clear()

    # ------------------------------------------------------------------
    # The seam
    # ------------------------------------------------------------------
    def intercept(self, from_jid: str, to_jid: str, stanza: dict) -> List[float]:
        for island in self._partitions:
            if (from_jid in island) != (to_jid in island):
                self._m_partition_dropped.inc()
                self._record("partition", from_jid, to_jid, stanza)
                return []
        impairment = None
        for rule in self._rules:
            if rule.matches(from_jid, to_jid):
                impairment = rule.impairment
                break
        if impairment is None:
            self._m_passed.inc()
            return [0.0]
        rng = self.rng
        if impairment.drop and rng.random() < impairment.drop:
            self._m_dropped.inc()
            self._record("drop", from_jid, to_jid, stanza)
            return []
        extra = 0.0
        lo, hi = impairment.delay_ms
        if hi > 0.0:
            extra = rng.uniform(lo, hi)
            self._m_delayed.inc()
            self._record("delay", from_jid, to_jid, stanza, extra_ms=extra)
        plan = [extra]
        if impairment.dup and rng.random() < impairment.dup:
            plan.append(extra)
            self._m_duplicated.inc()
            self._record("dup", from_jid, to_jid, stanza)
        if impairment.reorder and rng.random() < impairment.reorder:
            hold = rng.uniform(*impairment.hold_ms)
            plan[0] += hold
            self._m_reordered.inc()
            self._record("reorder", from_jid, to_jid, stanza, extra_ms=plan[0])
        if not (plan[0] or len(plan) > 1):
            self._m_passed.inc()
        for extra_ms in plan:
            if extra_ms:
                self._h_extra.observe(extra_ms)
        return plan

    def _record(
        self, action: str, from_jid: str, to_jid: str, stanza: dict, extra_ms: float = 0.0
    ) -> None:
        if not self._spans.enabled:
            return
        now = self.kernel.now
        values: List[Any] = [action, f"{from_jid}->{to_jid}"]
        if extra_ms:
            values.append(round(extra_ms, 3))
        trace_ids = stanza_trace_ids(stanza)
        trace_id = trace_ids[0] if trace_ids else 0
        if len(trace_ids) > 1:
            values.append(len(trace_ids))
        self._h_impair.record(
            trace_id, 0, now, now, _IMPAIR_KEYS[bool(extra_ms), len(trace_ids) > 1], *values
        )
