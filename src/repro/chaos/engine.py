"""The chaos engine: schedules faults against a whole simulated testbed.

:class:`ChaosEngine` wraps a :class:`~repro.core.middleware.PogoSimulation`
and turns the impairment primitives into *campaigns*: link impairments
with wildcard scope, timed network partitions, XMPP server restarts (the
Openfire-bounce the deployment suffered: sessions die, offline storage
survives), and per-device churn — reboots and mobile-data gaps drawn
from seeded streams, generalizing the Section 5.3 disruption zoo.

Everything is scheduled on the simulation kernel, so a chaos campaign is
just more deterministic events: same seed, same faults, same outcome,
bit for bit.

The engine also owns the *settle* phase: :meth:`settle` lifts every
rule/partition and restores device connectivity so the invariant
monitor's end-of-run liveness checks ("nothing still stuck in flight")
are judged against a network that has been allowed to heal.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..core.middleware import PogoSimulation, SimulatedDevice
from ..sim.kernel import MINUTE, SECOND
from ..world.disruptions import DATA_OFF, DATA_ON, REBOOT, Disruption, DisruptionPlan
from .impairments import ChaosInterceptor, Impairment


class ChaosEngine:
    """Fault campaigns against one simulated testbed."""

    #: What the registry reads off the engine (:meth:`MetricsRegistry.attach`):
    #: the engine is what restarts the server.
    METRICS = {"chaos.server_restarts": "sim.server.restarts"}

    def __init__(self, sim: PogoSimulation) -> None:
        self.sim = sim
        self.kernel = sim.kernel
        self.interceptor = ChaosInterceptor(
            sim.kernel, sim.streams.stream("chaos/impairments")
        )
        sim.server.interceptor = self.interceptor
        sim.kernel.metrics.attach(self)
        self._churn_plans: List[DisruptionPlan] = []

    # ------------------------------------------------------------------
    # Link impairments & partitions
    # ------------------------------------------------------------------
    def impair(self, src: str = "*", **dials) -> Impairment:
        """Impair every link out of ``src`` ('*' for all) with the
        :class:`Impairment` ``dials`` describe, and return it."""
        impairment = Impairment(**dials)
        self.interceptor.add_rule(src, "*", impairment)
        return impairment

    def partition(self, island: Iterable[str], at_ms: float, duration_ms: float) -> None:
        """Cut ``island`` off from the rest of the roster for a window."""
        members: Set[str] = set(island)
        self.kernel.schedule_at(at_ms, self.interceptor.start_partition, members)
        self.kernel.schedule_at(at_ms + duration_ms, self.interceptor.end_partition, members)

    # ------------------------------------------------------------------
    # Server restarts
    # ------------------------------------------------------------------
    def server_restart(self, at_ms: float) -> None:
        """Bounce the XMPP server at ``at_ms``.

        Sessions die and in-flight stanzas land in the loss window;
        offline storage survives (it is a database in the real
        deployment).  Every transport is told its connection is gone so
        it re-runs its reconnect path — without that nudge a phone
        parked on a stable interface would never notice the restart.
        """
        self.kernel.schedule_at(at_ms, self._do_restart)

    def _do_restart(self) -> None:
        self.sim.server.restart()
        # Sorted JIDs: the notification order must not depend on dict
        # insertion order, or a merged/restored shard reconnects its
        # fleet in a different sequence than the original run.
        for jid in sorted(self.sim.collectors):
            self.sim.collectors[jid].node.transport.notice_connection_lost()
        for jid in sorted(self.sim.devices):
            self.sim.devices[jid].node.transport.notice_connection_lost()

    # ------------------------------------------------------------------
    # Device churn
    # ------------------------------------------------------------------
    def device_churn(
        self,
        device: SimulatedDevice,
        minutes: float,
        reboot_rate_per_hour: float = 1.0,
        outage_rate_per_hour: float = 2.0,
        mean_outage_s: float = 90.0,
    ) -> DisruptionPlan:
        """Schedule reboots and mobile-data gaps for one phone, from now
        for ``minutes``.

        Draws come from a per-device named stream
        (``chaos/churn/<jid>``), so adding a phone to the fleet never
        perturbs another phone's fault schedule.  Data gaps are emitted
        as DATA_OFF/DATA_ON pairs clamped inside the chaos window; the
        settle phase re-enables data regardless, as a belt-and-braces
        measure against an unlucky horizon clip.
        """
        rng = self.sim.streams.stream(f"chaos/churn/{device.jid}")
        start = self.kernel.now
        horizon = start + minutes * MINUTE
        plan = DisruptionPlan()
        if reboot_rate_per_hour > 0:
            t = start
            mean_gap = 60.0 * MINUTE / reboot_rate_per_hour
            while True:
                t += rng.expovariate(1.0 / mean_gap)
                if t >= horizon:
                    break
                plan.events.append(Disruption(t, REBOOT))
        if outage_rate_per_hour > 0:
            t = start
            mean_gap = 60.0 * MINUTE / outage_rate_per_hour
            while True:
                t += rng.expovariate(1.0 / mean_gap)
                if t >= horizon:
                    break
                duration = rng.expovariate(1.0 / (mean_outage_s * SECOND))
                plan.events.append(Disruption(t, DATA_OFF))
                plan.events.append(Disruption(min(t + duration, horizon), DATA_ON))
                t += duration
        plan.schedule(self.kernel, device.phone)
        self._churn_plans.append(plan)
        return plan

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Lift every fault and restore connectivity.

        After this the only thing between the pipeline and quiescence is
        its own recovery machinery (reconnects, resends, acks) — which
        is exactly what the monitor's liveness invariants judge.
        """
        self.interceptor.heal()
        for jid in sorted(self.sim.devices):
            phone = self.sim.devices[jid].phone
            phone.set_data_enabled(True)
            phone.set_cell_coverage(True)
            phone.suppress_wifi_association(False)

    def drive_resends(self) -> None:
        """Poke every node's resend/ack machinery once (settle helper).

        Devices flush (which also retransmits and emits owed acks) when
        connected; collectors retransmit their unacked envelopes without
        waiting for their five-minute timer.
        """
        for jid in sorted(self.sim.devices):
            node = self.sim.devices[jid].node
            if node.started and node.transport.connected:
                node.flush("chaos-settle")
        for jid in sorted(self.sim.collectors):
            node = self.sim.collectors[jid].node
            for peer in sorted(node.links):
                link = node.links[peer]
                link.resend_unacked()
                ack = link.make_ack()
                if ack is not None:
                    node._raw_send(link.peer, ack)
