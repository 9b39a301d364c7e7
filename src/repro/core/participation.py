"""Participation tracking: the incentive basis of Section 3.3.

"We have a central server that can keep track of when devices are online
and what data they are sharing, which would be the basis for assigning
rewards."  This module implements that bookkeeping on the switchboard:

* per-device **online time** (session uptime as the server observed it);
* per-device **traffic contributed** (stanzas and bytes routed from it);
* a configurable **reward function** and a leaderboard-style report the
  administrator can hand to whoever pays the study credit / Mechanical
  Turk rewards.

Only pseudonymous JIDs appear anywhere — the double-blind property is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.messages import message_size_bytes
from ..net.xmpp import Session, XmppServer
from ..sim.kernel import HOUR, Kernel


@dataclass
class ParticipationRecord:
    """What the server observed about one device.

    Online time is credited per *heard-from* interval, capped at
    :attr:`ParticipationTracker.idle_cap_ms` between events: a session
    that went silent (dead interface the server has not noticed yet)
    stops earning, which is what a reward scheme needs.
    """

    jid: str
    online_ms: float = 0.0
    stanzas: int = 0
    bytes: int = 0
    sessions: int = 0
    _last_heard: Optional[float] = None

    def note_activity(self, now: float, idle_cap_ms: float) -> None:
        if self._last_heard is not None:
            self.online_ms += min(now - self._last_heard, idle_cap_ms)
        self._last_heard = now

    def snapshot_online_ms(self, now: float, idle_cap_ms: float) -> float:
        total = self.online_ms
        if self._last_heard is not None:
            total += min(now - self._last_heard, idle_cap_ms)
        return total


#: Default reward: credit per online hour plus per megabyte contributed.
def default_reward(online_h: float, megabytes: float, stanzas: int) -> float:
    return round(0.10 * online_h + 0.50 * megabytes, 2)


def _default_is_device(jid: str) -> bool:
    return jid.startswith("device-")


class _TrackedConnect:
    """Picklable wrapper around ``server.connect`` (observer tap)."""

    __slots__ = ("tracker", "original")

    def __init__(self, tracker, original) -> None:
        self.tracker = tracker
        self.original = original

    def __call__(self, jid: str, deliver, physical_rx=None):
        session = self.original(jid, deliver, physical_rx)
        tracker = self.tracker
        if tracker._is_device(jid):
            record = tracker._record(jid)
            record.sessions += 1
            record.note_activity(tracker.kernel.now, tracker.idle_cap_ms)
        return session


class _TrackedSubmit:
    """Picklable wrapper around ``server.submit`` (observer tap)."""

    __slots__ = ("tracker", "original")

    def __init__(self, tracker, original) -> None:
        self.tracker = tracker
        self.original = original

    def __call__(
        self,
        from_jid: str,
        to_jid: str,
        stanza: dict,
        parent_span: int = 0,
        size: Optional[int] = None,
    ) -> None:
        self.original(from_jid, to_jid, stanza, parent_span, size)
        tracker = self.tracker
        if tracker._is_device(from_jid):
            record = tracker._record(from_jid)
            record.stanzas += 1
            # The size the device's transport carried over, if it did.
            record.bytes += message_size_bytes(stanza) if size is None else size
            record.note_activity(tracker.kernel.now, tracker.idle_cap_ms)


class ParticipationTracker:
    """Observes an :class:`XmppServer` and accounts participation.

    Installed by wrapping the server's connect/disconnect/submit entry
    points — the tracker is an observer, not a routing participant.
    """

    #: What the registry reads off the tracker (:meth:`MetricsRegistry.attach`).
    METRICS = {"participation.stanzas": "stanzas", "participation.bytes": "bytes"}

    def __init__(
        self,
        kernel: Kernel,
        server: XmppServer,
        is_device: Optional[Callable[[str], bool]] = None,
        reward: Callable[[float, float, int], float] = default_reward,
        idle_cap_ms: float = 15 * 60 * 1000.0,
    ) -> None:
        self.kernel = kernel
        self.server = server
        self.records: Dict[str, ParticipationRecord] = {}
        self.reward = reward
        self.idle_cap_ms = idle_cap_ms
        self._is_device = is_device or _default_is_device
        kernel.metrics.attach(self)
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        self.server.connect = _TrackedConnect(self, self.server.connect)
        self.server.submit = _TrackedSubmit(self, self.server.submit)

    @property
    def stanzas(self) -> int:
        """Stanzas every device sent, summed over the records."""
        return sum(record.stanzas for record in self.records.values())

    @property
    def bytes(self) -> int:
        """Bytes every device sent, summed over the records."""
        return sum(record.bytes for record in self.records.values())

    def _record(self, jid: str) -> ParticipationRecord:
        if jid not in self.records:
            self.records[jid] = ParticipationRecord(jid)
        return self.records[jid]

    # ------------------------------------------------------------------
    def online_hours(self, jid: str) -> float:
        record = self.records.get(jid)
        if record is None:
            return 0.0
        return record.snapshot_online_ms(self.kernel.now, self.idle_cap_ms) / HOUR

    def reward_for(self, jid: str) -> float:
        record = self.records.get(jid)
        if record is None:
            return 0.0
        return self.reward(
            self.online_hours(jid), record.bytes / 1e6, record.stanzas
        )

    def report(self) -> str:
        """Administrator-facing leaderboard (pseudonymous JIDs only)."""
        lines = [
            f"{'device':<18} {'online h':>9} {'sessions':>9} {'stanzas':>8} "
            f"{'kB shared':>10} {'reward':>8}",
        ]
        ranked = sorted(
            self.records.values(),
            key=lambda r: self.reward_for(r.jid),
            reverse=True,
        )
        for record in ranked:
            lines.append(
                f"{record.jid:<18} {self.online_hours(record.jid):>9.2f} "
                f"{record.sessions:>9} {record.stanzas:>8} "
                f"{record.bytes / 1e3:>10.1f} {self.reward_for(record.jid):>8.2f}"
            )
        return "\n".join(lines)
