"""An XMPP-style message switchboard with rosters and realistic loss.

Pogo uses an off-the-shelf instant-messaging server (Openfire) purely as a
"communications switchboard" between device and collector nodes (Sections
3.1 and 4.6).  The properties of XMPP that Pogo relies on — and the ones
it has to work around — are both reproduced here:

* **JIDs and rosters.**  Device↔collector associations are roster
  entries, managed by the testbed administrator.  The server refuses to
  route between parties that are not on each other's roster.
* **Offline storage.**  Stanzas for a JID with no session are queued and
  delivered on the next connect (standard XMPP behaviour).
* **Stale-session loss.**  "Mobile phones frequently switch between
  wireless interfaces ... causing stale TCP sessions and even dropped
  messages."  When a phone's interface goes away, the server keeps
  routing into the dead session until a write into it fails or the
  client reconnects; stanzas sent into that window are *lost*.  This
  is the loss mode Pogo's end-to-end acknowledgements exist to repair.

Physical delivery to a device costs radio energy: the server-side session
delegates to the phone's active interface, so pushes from the collector
drag the modem through ramp-ups and tails like any other traffic.

A stanza is sized once.  A device's transport sizes it for the radio
and hands :meth:`XmppServer.submit` the number, from which the size of
the ``_from``-stamped copy follows; routing, the chaos seam's copies,
offline storage and the delivery carry that int alongside the stanza.
A stanza that arrives with no size (the wired collector's, presence,
cross-shard ingress) is sized at its delivery, or once at submit when
the chaos seam routes several copies of it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..sim.kernel import Kernel
from ..core.messages import message_size_bytes, size_with_member


class RoutingError(Exception):
    """Raised for routing without a roster association or unknown JIDs."""


class LinkInterceptor:
    """Interface for the chaos seam on :attr:`XmppServer.interceptor`.

    :meth:`intercept` is consulted once per submitted stanza and returns
    the *delivery plan*: a list of extra latencies (ms, on top of the
    server's base latency), one entry per copy to route.  ``[0.0]`` is
    the unimpaired path, ``[]`` drops the stanza, ``[0.0, 0.0]``
    duplicates it, and a large single entry holds it back so later
    traffic overtakes it (reordering).
    """

    def intercept(self, from_jid: str, to_jid: str, stanza: dict) -> List[float]:
        raise NotImplementedError


class Session:
    """One client's connection to the server."""

    __slots__ = ("jid", "deliver", "physical_rx", "alive")

    def __init__(
        self,
        jid: str,
        deliver: Callable[[dict], None],
        physical_rx: Optional[Callable] = None,
    ):
        self.jid = jid
        #: Upcall into the client with a received stanza.
        self.deliver = deliver
        #: Optional physical receive hook: called with (size_bytes,
        #: on_complete) to model the radio cost of the downlink.  When the
        #: physical layer fails (dead interface) the stanza is lost.
        self.physical_rx = physical_rx
        self.alive = True

    def close(self) -> None:
        self.alive = False


class _DeliveryComplete:
    """Picklable physical-rx completion for one delivery attempt.

    The device's radio calls this back after the downlink transfer; it
    sits in the kernel's event queue mid-flight, so it must survive a
    Shard snapshot (a nested closure would not).
    """

    __slots__ = ("server", "session", "stanza", "route_ctx")

    def __init__(self, server, session, stanza, route_ctx):
        self.server = server
        self.session = session
        self.stanza = stanza
        self.route_ctx = route_ctx

    def __call__(self, success: bool) -> None:
        server = self.server
        session = self.session
        if success and session.alive:
            server._route_span(self.route_ctx, session.jid, "delivered")
            session.deliver(self.stanza)
        else:
            # Sent into a dead interface: the loss the paper observed.
            # The failed write also reveals the session is gone, so
            # subsequent stanzas go to offline storage instead.
            server._route_span(self.route_ctx, session.jid, "lost")
            server._lose(session, self.stanza)


class XmppServer:
    """The central switchboard."""

    #: What the registry reads off the server (:meth:`MetricsRegistry.attach`).
    METRICS = {
        "xmpp.stanzas_routed": "stanzas_routed",
        "xmpp.stanzas_lost": "stanzas_lost",
        "xmpp.stanzas_stored_offline": "stanzas_stored_offline",
    }

    def __init__(self, kernel: Kernel, latency_ms: float = 80.0) -> None:
        self.kernel = kernel
        self.latency_ms = latency_ms
        self._accounts: Set[str] = set()
        self._rosters: Dict[str, Set[str]] = {}
        self._sessions: Dict[str, Session] = {}
        #: Per JID, the stored ``(stanza, size)`` pairs; ``size`` is
        #: ``None`` for a stanza not sized yet.
        self._offline: Dict[str, Deque[Tuple[dict, Optional[int]]]] = {}
        self._last_heard: Dict[str, float] = {}
        #: Chaos seam (repro.chaos).  When set, every submitted stanza asks
        #: the interceptor for its fate: a list of extra latencies, one per
        #: delivery attempt (empty = dropped, two entries = duplicated, a
        #: large entry = held back past later traffic, i.e. reordered).
        #: ``None`` keeps the plain single-delivery path with zero overhead.
        self.interceptor: Optional["LinkInterceptor"] = None
        #: Cross-shard seam.  When set, a stanza submitted for a JID this
        #: server does not host is handed to ``egress(from_jid, to_jid,
        #: stamped_stanza)`` instead of raising ``RoutingError``; the
        #: owning :class:`~repro.core.shard.Shard` queues it for the
        #: epoch barrier and the peer shard replays it via
        #: :meth:`ingress_at`.  ``None`` keeps the single-switchboard
        #: behaviour (unknown JIDs are an error).
        self.egress: Optional[Callable[[str, str, dict], None]] = None
        #: Count of roster edges pointing at JIDs this server does not
        #: host (:meth:`add_remote_roster`).  The fleet coordinator reads
        #: it (via ``Shard.egress_capable``) as topology lookahead: zero
        #: remote edges means this shard cannot originate cross-shard
        #: traffic, so its local events never bound the barrier window.
        #: Conservatively monotone: registering a formerly-remote JID
        #: locally leaves stale (harmless) capability, never the reverse.
        self.remote_edges = 0
        self.stanzas_routed = 0
        self.stanzas_egressed = 0
        self.stanzas_lost = 0
        self.stanzas_stored_offline = 0
        self.restarts = 0
        kernel.metrics.attach(self)
        self._m_bytes = kernel.metrics.counter("xmpp.bytes_delivered")
        self._spans = kernel.spans
        self._h_route = kernel.spans.hop("xmpp.route")

    # ------------------------------------------------------------------
    # Accounts and rosters (the administrator's surface, Section 3.1)
    # ------------------------------------------------------------------
    def register(self, jid: str) -> None:
        self._accounts.add(jid)
        self._rosters.setdefault(jid, set())

    def registered(self, jid: str) -> bool:
        return jid in self._accounts

    def add_roster_pair(self, a: str, b: str) -> None:
        """Associate two JIDs (the admin assigning a device to a researcher)."""
        for jid in (a, b):
            if jid not in self._accounts:
                raise RoutingError(f"unknown JID: {jid}")
        self._rosters[a].add(b)
        self._rosters[b].add(a)

    def add_remote_roster(self, local_jid: str, remote_jid: str) -> None:
        """Roster edge to a JID another shard hosts (a federated assign).

        Only the local half of the pair is recorded — the remote server
        keeps the mirror edge.  Presence for ``local_jid`` then crosses
        the boundary through ``egress`` instead of being dropped.
        """
        if local_jid not in self._accounts:
            raise RoutingError(f"unknown JID: {local_jid}")
        if remote_jid in self._accounts:
            raise RoutingError(
                f"{remote_jid} is hosted on this server; use add_roster_pair"
            )
        if remote_jid not in self._rosters[local_jid]:
            self._rosters[local_jid].add(remote_jid)
            self.remote_edges += 1

    def roster(self, jid: str) -> Set[str]:
        return set(self._rosters.get(jid, set()))

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def connect(
        self,
        jid: str,
        deliver: Callable[[dict], None],
        physical_rx: Optional[Callable] = None,
    ) -> Session:
        """Open a session; replaces (and kills) any existing one."""
        if jid not in self._accounts:
            raise RoutingError(f"unknown JID: {jid}")
        old = self._sessions.get(jid)
        if old is not None:
            old.close()
        session = Session(jid, deliver, physical_rx)
        self._sessions[jid] = session
        self._last_heard[jid] = self.kernel.now
        self._drain_offline(jid, session)
        # XMPP presence: roster peers with live sessions learn that this
        # JID is (back) online.  Collectors use this to re-synchronize
        # subscription tables after a device reboot.
        for peer in self._rosters.get(jid, set()):
            peer_session = self._sessions.get(peer)
            if peer_session is not None and self._session_considered_alive(peer_session):
                self.kernel.schedule(
                    self.latency_ms,
                    self._deliver_via,
                    peer_session,
                    {"kind": "presence", "jid": jid, "available": True},
                )
            elif peer not in self._accounts and self.egress is not None:
                # A remote roster peer (add_remote_roster): presence
                # crosses the shard boundary and the owning server
                # replays it via presence_at.
                self.stanzas_egressed += 1
                self.egress(jid, peer, {"kind": "presence", "jid": jid, "available": True})
        return session

    def disconnect(self, session: Session) -> None:
        """Graceful disconnect: the server knows immediately."""
        session.close()
        if self._sessions.get(session.jid) is session:
            del self._sessions[session.jid]

    def restart(self) -> List[str]:
        """Server process restart: every live TCP session dies at once.

        Clients observe a connection reset and must re-handshake (the
        chaos engine tells their transports via
        ``notice_connection_lost``).  Offline storage survives — Openfire
        keeps it in its database — so only stanzas in flight into the
        dead sessions are at risk, which is exactly the loss window the
        end-to-end acks repair.  Returns the JIDs that were connected.
        """
        jids = sorted(self._sessions)
        for session in list(self._sessions.values()):
            session.close()
        self._sessions.clear()
        self.restarts += 1
        return jids

    def session_of(self, jid: str) -> Optional[Session]:
        return self._sessions.get(jid)

    def note_heard_from(self, jid: str) -> None:
        """Any inbound traffic refreshes the liveness clock."""
        self._last_heard[jid] = self.kernel.now

    def _session_considered_alive(self, session: Session) -> bool:
        """Whether the server still believes this session works.

        An idle TCP connection stays up indefinitely; the server only
        learns a session is dead when a delivery into it fails (stale
        interface) or the client reconnects/disconnects.  Stanzas sent
        into a not-yet-detected-dead session are *lost* — the window the
        paper's end-to-end acks repair.
        """
        return session.alive

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def submit(
        self,
        from_jid: str,
        to_jid: str,
        stanza: dict,
        parent_span: int = 0,
        size: Optional[int] = None,
    ) -> None:
        """Accept a stanza from ``from_jid`` for routing to ``to_jid``.

        ``parent_span`` is the sender's transport span; the routing span
        recorded at the outcome (delivered / offline / lost) hangs off it.
        ``size`` is the stanza's wire size when the sender has it (a
        device's transport sized it for the radio); the stamped copy's
        size follows from it, and travels with the copy to delivery.
        """
        remote = to_jid not in self._accounts
        if remote and self.egress is None:
            raise RoutingError(f"unknown destination JID: {to_jid}")
        if not remote and to_jid not in self._rosters.get(from_jid, set()):
            raise RoutingError(f"{from_jid} and {to_jid} are not associated")
        self.note_heard_from(from_jid)
        stamped = dict(stanza)
        stamped["_from"] = from_jid
        if remote:
            # Destined for a JID another shard hosts: hand the stamped
            # stanza across the boundary; the peer replays it through
            # :meth:`ingress_at` at the next epoch barrier.
            self.stanzas_egressed += 1
            self.egress(from_jid, to_jid, stamped)
            return
        if size is not None:
            size = size_with_member(stanza, size, "_from", from_jid)
        route_ctx = (self.kernel.now, parent_span) if self._spans.enabled else None
        interceptor = self.interceptor
        if interceptor is None:
            self.kernel.schedule(
                self.latency_ms, self._route, from_jid, to_jid, stamped, route_ctx, size
            )
            return
        plan = interceptor.intercept(from_jid, to_jid, stamped)
        if size is None and len(plan) > 1:
            # Several copies of one stanza: size it once for all of them.
            size = message_size_bytes(stamped)
        for extra_ms in plan:
            self.kernel.schedule(
                self.latency_ms + extra_ms, self._route, from_jid, to_jid, stamped, route_ctx,
                size,
            )

    def ingress_at(
        self, from_jid: str, to_jid: str, stanza: dict, due_ms: float
    ) -> None:
        """Accept a stanza handed over from another shard's egress, for
        delivery at an absolute kernel time.

        The stanza is already stamped with ``_from`` by the sending
        switchboard; only the local delivery leg (offline storage, loss
        windows) is simulated here.  Roster checks were the sending
        side's responsibility — federated servers trust each other, as
        XMPP server-to-server links do.

        The fleet coordinator replays handoffs with their original submit
        time so the cross-shard leg costs exactly ``latency_ms`` — the
        same as a local route — making a partitioned run byte-identical
        to the single-shard one.  ``due_ms`` must not be in this kernel's
        past: a violation means the epoch barrier ran longer than the
        minimum cross-shard latency, which would silently distort the
        simulation, so it fails loudly here instead.
        """
        if to_jid not in self._accounts:
            raise RoutingError(f"ingress for unknown local JID: {to_jid}")
        if due_ms < self.kernel.now:
            raise RoutingError(
                f"late cross-shard handoff for {to_jid}: due at {due_ms} ms "
                f"but local clock is already {self.kernel.now} ms — the "
                f"epoch barrier exceeded the minimum cross-shard latency "
                f"({self.latency_ms} ms)"
            )
        # The routing span is recorded here, on the owning shard: the
        # sender egressed before opening one, and its span ids are
        # meaningless in this kernel anyway (parent stays 0).  Recovering
        # the submit time keeps the span's extent identical to the local
        # case.
        route_ctx = (
            (due_ms - self.latency_ms, 0) if self._spans.enabled else None
        )
        self.kernel.schedule_at(
            due_ms, self._route, from_jid, to_jid, stanza, route_ctx, None
        )

    def presence_at(self, to_jid: str, stanza: dict, due_ms: float) -> None:
        """Replay a cross-shard presence notification.

        Presence is a server-internal delivery, not a routed stanza — it
        goes straight into the peer's session exactly as :meth:`connect`
        would have scheduled it locally, and does not touch the routing
        counters.  The liveness check happens here (the sending shard
        cannot see this session); if the session is gone the presence is
        dropped, just as connect would never have scheduled it.
        """
        if to_jid not in self._accounts:
            raise RoutingError(f"ingress for unknown local JID: {to_jid}")
        if due_ms < self.kernel.now:
            raise RoutingError(
                f"late cross-shard presence for {to_jid}: due at {due_ms} ms "
                f"but local clock is already {self.kernel.now} ms"
            )
        session = self._sessions.get(to_jid)
        if session is None or not self._session_considered_alive(session):
            return
        self.kernel.schedule_at(due_ms, self._deliver_via, session, stanza)

    def _route_span(self, route_ctx, to_jid: str, outcome: str) -> None:
        if route_ctx is None or not self._spans.enabled:
            return
        start_ms, parent = route_ctx
        self._h_route.record(
            0, parent, start_ms, self.kernel.now, ("to", "outcome"), to_jid, outcome
        )

    def _route(
        self, from_jid: str, to_jid: str, stanza: dict, route_ctx, size: Optional[int]
    ) -> None:
        self.stanzas_routed += 1
        session = self._sessions.get(to_jid)
        if session is None:
            self._store_offline(to_jid, stanza, size)
            self._route_span(route_ctx, to_jid, "offline")
            return
        if not self._session_considered_alive(session):
            # Keepalive expired: tear the session down and store instead.
            self.disconnect(session)
            self._store_offline(to_jid, stanza, size)
            self._route_span(route_ctx, to_jid, "offline")
            return
        self._deliver_via(session, stanza, route_ctx, size)

    def _deliver_via(
        self, session: Session, stanza: dict, route_ctx=None, size: Optional[int] = None
    ) -> None:
        # The size submit carried over, or, for a stanza that came with
        # none, the one sizing it gets.
        if size is None:
            size = message_size_bytes(stanza)
        self._m_bytes.inc(size)
        if session.physical_rx is None:
            # Wired client (collector PC): delivery always succeeds.
            self._route_span(route_ctx, session.jid, "delivered")
            session.deliver(stanza)
            return

        # A dead interface is reported through ``complete(False)``
        # (:meth:`_lose`); anything the hook raises is a bug and is not
        # turned into a lost stanza.
        session.physical_rx(size, _DeliveryComplete(self, session, stanza, route_ctx))

    def _lose(self, session: Session, stanza: dict) -> None:
        self.stanzas_lost += 1
        if self._sessions.get(session.jid) is session:
            self.disconnect(session)

    # ------------------------------------------------------------------
    # Offline storage
    # ------------------------------------------------------------------
    def _store_offline(self, jid: str, stanza: dict, size: Optional[int]) -> None:
        self.stanzas_stored_offline += 1
        queue = self._offline.get(jid)
        if queue is None:
            queue = self._offline[jid] = deque()
        queue.append((stanza, size))

    def _drain_offline(self, jid: str, session: Session) -> None:
        for stanza, size in self._offline.pop(jid, ()):
            self.kernel.schedule(
                self.latency_ms, self._deliver_via, session, stanza, None, size
            )

    def offline_count(self, jid: str) -> int:
        return len(self._offline.get(jid, ()))
