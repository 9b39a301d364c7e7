"""The Shard: one self-contained, picklable simulation partition.

ROADMAP item 1 (multiprocess fleets past the 500-device throughput
cliff) needs the simulation core to be *partitionable*: a unit holding
one kernel, its randomness streams, world, XMPP switchboard, devices,
collectors and instrumentation planes — with nothing shared through
module-level state — so that several such units can run side by side in
one process, or be pickled into spawned workers, and still produce
byte-identical results.  That unit is the :class:`Shard`.

Three contracts define it:

* **One object graph** — the cross-cutting simulation state hangs off
  the shard: its kernel (which carries the metrics and span planes, so
  most components take just the kernel) and its named random streams.
  Everything a component needs reaches it through this graph; nothing
  may live at module level.
* **The pickling contract** — ``snapshot()`` pickles the whole shard;
  ``restore()`` brings it back, mid-run, byte-deterministically.  Every
  callback reachable from the kernel's event heap must therefore be a
  bound method, ``functools.partial`` of one, or a module-level callable
  class — never a lambda or nested closure.  Script namespaces are the
  one exception: exec'd functions cannot be pickled, so
  :class:`~repro.core.scripting.ScriptHost` drops them on pickle and
  re-executes its source on restore (see its ``__setstate__``).
* **The cross-shard boundary** — an egress/ingress seam for stanzas
  addressed to JIDs another shard hosts, plus the epoch-barrier hooks
  (:meth:`run_until_epoch`, :meth:`pending_cross_shard`) a conservative
  time-windowed multiprocess scheduler needs: run every shard to the
  barrier, exchange the queued stanzas, repeat.

:class:`~repro.core.middleware.PogoSimulation` remains the public facade
— it *is* a single-shard deployment with the historical constructor.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..device.apps import EmailApp, EmailConfig
from ..device.phone import Phone
from ..device.radio import CARRIERS, KPN, CarrierProfile
from ..net.xmpp import XmppServer
from ..sensors.accelerometer import AccelerometerSensor
from ..sensors.battery_sensor import BatterySensor
from ..sensors.location import LocationSensor
from ..sensors.microphone import MicrophoneSensor, ambient_db_for
from ..sensors.wifi_scanner import WifiScanSensor
from ..sim.hostgc import building, reclaim
from ..sim.kernel import HOUR, MINUTE, Kernel
from ..sim.randomness import RandomStreams
from ..world.environment import ConnectivityDriver, UserWorld, build_user_world
from ..world.mobility import TRAVEL, UserProfile
from .node import CollectorNode, DeviceNode
from .tailsync import TransmissionPolicy
from .testbed import TestbedAdmin


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceSpec:
    """Declarative description of one device in a shard roster.

    ``jid`` pins the device's identifier instead of taking the next
    ``device-N@pogo`` from the per-shard counter.  The fleet partitioner
    sets it so every shard keeps the *global* numbering — per-device
    random streams are keyed by JID, so this is what makes a partitioned
    run draw the same randomness as the single-shard one.
    """

    with_sensors: bool = True
    with_email_app: bool = False
    world_days: Optional[int] = None
    simulate_paging: bool = False
    capabilities: Optional[frozenset] = None
    jid: Optional[str] = None
    #: Carrier *name* (key into :data:`~repro.device.radio.CARRIERS`);
    #: ``None`` means the shard's default carrier.  A name, not a
    #: profile, so the spec stays plain data for multi-carrier rosters.
    carrier: Optional[str] = None


class Handoff(NamedTuple):
    """One cross-shard stanza, queued at egress for the coordinator.

    ``submit_ms`` is the sender-shard kernel time at which the stanza
    entered the switchboard; the receiving shard replays it due at
    ``submit_ms + latency`` so the cross-shard leg costs exactly what a
    local route would.  ``seq`` is the sender shard's running egress
    counter — ``(submit_ms, from_jid, seq)`` totally orders handoffs
    (a JID lives on exactly one shard, so ``from_jid`` disambiguates
    equal-time submissions from different shards and ``seq`` preserves
    the sender's program order within one shard).
    """

    submit_ms: float
    seq: int
    from_jid: str
    to_jid: str
    stanza: dict


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build a Shard, as plain picklable data.

    A spec crosses process boundaries (a forked worker inherits it; a
    spawned one, off Linux, unpickles it), so it holds only values: the
    seed, the carrier profile, the device roster and the instrumentation
    flags.  Building the same spec twice yields byte-identical shards.
    """

    shard_id: str = "shard-0"
    seed: int = 0
    carrier: CarrierProfile = KPN
    spans: bool = True
    metrics: bool = True
    #: Base switchboard latency in milliseconds — every stanza (local or
    #: cross-shard) spends at least this long in flight.  It is also the
    #: fleet's determinism contract: the epoch-barrier window must not
    #: exceed the *minimum* latency across shards, so a partitioned run
    #: is byte-identical to the solo run **at the same latency**.
    #: Changing it changes the simulated schedule itself (it is physics,
    #: not tuning), so solo and sharded runs only compare at equal
    #: values.  Must be positive.
    latency_ms: float = 80.0
    collectors: Tuple[str, ...] = ()
    devices: Tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.latency_ms, (int, float))
                and self.latency_ms > 0):
            raise ValueError(
                f"latency_ms must be a positive number of milliseconds, "
                f"got {self.latency_ms!r}"
            )


@dataclass(slots=True)
class SimulatedDevice:
    """One enrolled phone with its middleware and (optional) world."""

    jid: str
    phone: Phone
    node: DeviceNode
    user_world: Optional[UserWorld] = None
    apps: List[object] = field(default_factory=list)

    def email_app(self) -> Optional[EmailApp]:
        for app in self.apps:
            if isinstance(app, EmailApp):
                return app
        return None


@dataclass
class SimulatedCollector:
    """One researcher's collector node."""

    jid: str
    node: CollectorNode


# ---------------------------------------------------------------------------
# World-backed sensor sources (picklable callables, not closures)
# ---------------------------------------------------------------------------

class _WorldScanSource:
    __slots__ = ("world", "kernel")

    def __init__(self, world: UserWorld, kernel: Kernel) -> None:
        self.world = world
        self.kernel = kernel

    def __call__(self):
        return self.world.scan(self.kernel.now)


class _WorldPositionSource:
    __slots__ = ("world", "kernel")

    def __init__(self, world: UserWorld, kernel: Kernel) -> None:
        self.world = world
        self.kernel = kernel

    def __call__(self):
        return self.world.position(self.kernel.now)


class _WorldAmbientSource:
    __slots__ = ("world", "kernel")

    def __init__(self, world: UserWorld, kernel: Kernel) -> None:
        self.world = world
        self.kernel = kernel

    def __call__(self) -> float:
        place = self.world.current_place(self.kernel.now)
        return ambient_db_for(place.category if place else None)


class _WorldActivitySource:
    __slots__ = ("world", "kernel")

    def __init__(self, world: UserWorld, kernel: Kernel) -> None:
        self.world = world
        self.kernel = kernel

    def __call__(self) -> str:
        return "walking" if self.world.segment(self.kernel.now).kind == TRAVEL else "still"


# ---------------------------------------------------------------------------
# The Shard
# ---------------------------------------------------------------------------

class Shard:
    """One kernel + world + switchboard + fleet, fully self-contained.

    Everything reachable from a shard belongs to that shard; nothing is
    shared with any other shard or stored at module level.  The whole
    object graph pickles (``snapshot``/``restore``) and two shards built
    from equal specs — in one process, two processes, or before/after a
    pickle round-trip — execute byte-identically.
    """

    @building()
    def __init__(self, spec: ShardSpec) -> None:
        reclaim()
        self.spec = spec
        self.shard_id = spec.shard_id
        self.seed = spec.seed
        self.kernel = Kernel()
        if not spec.spans:
            # Kill switch: lifecycle tracing off, hop handles become no-ops.
            self.kernel.spans.disable()
        if not spec.metrics:
            # Production-shape hot path: counters/histograms become no-ops.
            self.kernel.metrics.disable()
        self.streams = RandomStreams(spec.seed)
        self.server = XmppServer(self.kernel, latency_ms=spec.latency_ms)
        self.admin = TestbedAdmin(self.server)
        self.default_carrier = spec.carrier
        self.devices: Dict[str, SimulatedDevice] = {}
        self.collectors: Dict[str, SimulatedCollector] = {}
        #: Scenario/tooling attachments (chaos engine, invariant monitor,
        #: …) that must survive a snapshot/restore alongside the shard.
        self.extras: Dict[str, Any] = {}
        self._egress: List[Handoff] = []
        self._egress_seq = 0
        self._started = False
        for name in spec.collectors:
            self.add_collector(name)
        for device_spec in spec.devices:
            self.add_device(
                carrier=(
                    CARRIERS[device_spec.carrier]
                    if device_spec.carrier is not None
                    else None
                ),
                with_sensors=device_spec.with_sensors,
                with_email_app=device_spec.with_email_app,
                world_days=device_spec.world_days,
                simulate_paging=device_spec.simulate_paging,
                capabilities=(
                    set(device_spec.capabilities)
                    if device_spec.capabilities is not None
                    else None
                ),
                jid=device_spec.jid,
            )

    # ------------------------------------------------------------------
    # Building the fleet
    # ------------------------------------------------------------------
    def add_collector(self, name: str) -> SimulatedCollector:
        jid = self.admin.enroll_researcher(name)
        node = CollectorNode(self.kernel, self.server, jid)
        collector = SimulatedCollector(jid, node)
        self.collectors[jid] = collector
        return collector

    def add_device(
        self,
        carrier: Optional[CarrierProfile] = None,
        with_sensors: bool = True,
        with_email_app: bool = False,
        email_config: Optional[EmailConfig] = None,
        user_world: Optional[UserWorld] = None,
        world_days: Optional[int] = None,
        user_profile: Optional[UserProfile] = None,
        propagation=None,
        policy: Optional[TransmissionPolicy] = None,
        simulate_paging: bool = False,
        capabilities: Optional[set] = None,
        jid: Optional[str] = None,
    ) -> SimulatedDevice:
        """Enroll one phone, optionally with a generated user world."""
        jid = self.admin.enroll_device(
            capabilities or {"wifi", "battery", "location"}, jid=jid
        )
        phone = Phone(
            self.kernel,
            name=jid,
            profile=carrier or self.default_carrier,
            simulate_paging=simulate_paging,
        )
        node = DeviceNode(self.kernel, phone, self.server, jid, policy=policy)

        if user_world is None and world_days is not None:
            user_world = build_user_world(
                jid, self.streams, days=world_days, profile=user_profile,
                propagation=propagation,
            )
        device = SimulatedDevice(jid, phone, node, user_world=user_world)

        if with_sensors:
            self._install_sensors(device)
        if with_email_app:
            app = EmailApp(phone, email_config)
            device.apps.append(app)
        self.devices[jid] = device
        return device

    def _install_sensors(self, device: SimulatedDevice) -> None:
        node, phone = device.node, device.phone
        node.sensor_manager.register(BatterySensor(phone))
        wifi_sensor = WifiScanSensor(phone)
        node.sensor_manager.register(wifi_sensor)
        location = LocationSensor(phone)
        # The registry, not a stream: nothing is seeded until a sensor
        # is first sampled, and most fleets never subscribe to these two.
        accel = AccelerometerSensor(
            phone, rng=self.streams, stream=f"accel/{device.jid}"
        )
        microphone = MicrophoneSensor(
            phone, rng=self.streams, stream=f"microphone/{device.jid}"
        )
        node.sensor_manager.register(location)
        node.sensor_manager.register(accel)
        node.sensor_manager.register(microphone)
        if device.user_world is not None:
            self._wire_world(device)

    def _wire_world(self, device: SimulatedDevice) -> None:
        """Point the device's sensors at its world's ground truth."""
        world = device.user_world
        sensors = device.node.sensor_manager.sensors
        device.phone.wifi.scan_source = _WorldScanSource(world, self.kernel)
        sensors["locations"].position_source = _WorldPositionSource(world, self.kernel)
        sensors["audio"].level_source = _WorldAmbientSource(world, self.kernel)
        sensors["accel"].activity_source = _WorldActivitySource(world, self.kernel)

    def attach_world(self, jid: str, world: UserWorld) -> None:
        """Attach a pre-built world to an already-enrolled device.

        Scenario workloads build worlds *after* spec construction (the
        roster comes from a compiled :class:`ShardSpec`, the worlds from
        the scenario's own derived randomness).  Must happen before
        :meth:`start`, which installs the connectivity driver.
        """
        if self._started:
            raise RuntimeError("attach_world must be called before start()")
        device = self.devices[jid]
        device.user_world = world
        self._wire_world(device)

    # ------------------------------------------------------------------
    # Wiring and running
    # ------------------------------------------------------------------
    def assign(self, collector: SimulatedCollector, devices: List[SimulatedDevice]) -> None:
        self.admin.assign(collector.jid, [d.jid for d in devices])

    @building()
    def start(self) -> None:
        """Start every node, app and connectivity driver."""
        if self._started:
            return
        self._started = True
        for collector in self.collectors.values():
            collector.node.start()
        for device in self.devices.values():
            if device.user_world is not None:
                ConnectivityDriver(self.kernel, device.user_world, device.phone).start()
            device.node.start()
            for app in device.apps:
                app.start()

    def run(
        self,
        duration_ms: Optional[float] = None,
        minutes: Optional[float] = None,
        hours: Optional[float] = None,
        days: Optional[float] = None,
    ) -> None:
        """Advance the simulation by the given amount of time."""
        total = 0.0
        if duration_ms is not None:
            total += duration_ms
        if minutes is not None:
            total += minutes * MINUTE
        if hours is not None:
            total += hours * HOUR
        if days is not None:
            total += days * 24 * HOUR
        if total <= 0:
            raise ValueError("specify a positive duration")
        self.kernel.run_until(self.kernel.now + total)

    # ------------------------------------------------------------------
    # Snapshot / restore (the pickling contract)
    # ------------------------------------------------------------------
    @building()
    def snapshot(self) -> bytes:
        """Serialize the entire shard — kernel heap, fleet, scripts,
        instrumentation — into bytes.  ``restore`` resumes it exactly
        where it stopped, in this process or another.

        Like the build, both directions run with collection paused: the
        pickler's temporaries are freed by reference count and what the
        unpickler allocates is the shard, so a pass would find nothing.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    @building()
    def restore(cls, blob: bytes) -> "Shard":
        reclaim()
        shard = pickle.loads(blob)
        if not isinstance(shard, Shard):
            raise TypeError(f"snapshot does not contain a Shard: {type(shard)!r}")
        return shard

    # ------------------------------------------------------------------
    # Cross-shard boundary (egress/ingress + epoch barrier)
    # ------------------------------------------------------------------
    def open_boundary(self) -> None:
        """Accept stanzas for JIDs this shard does not host.

        Instead of raising ``RoutingError``, the switchboard hands such
        stanzas to the shard's egress queue; a fleet coordinator drains
        it at each epoch barrier (:meth:`pending_cross_shard`) and
        replays the handoffs into the owning shard (:meth:`ingress`).
        """
        self.server.egress = self._queue_egress

    def _queue_egress(self, from_jid: str, to_jid: str, stanza: dict) -> None:
        self._egress_seq += 1
        self._egress.append(
            Handoff(self.kernel.now, self._egress_seq, from_jid, to_jid, stanza)
        )

    def pending_cross_shard(self) -> List[Handoff]:
        """Drain and return the stanzas queued for other shards."""
        pending, self._egress = self._egress, []
        return pending

    @property
    def egress_capable(self) -> bool:
        """Whether this shard's topology can still emit cross-shard traffic.

        True while the switchboard holds at least one remote roster edge
        (:meth:`~repro.net.xmpp.XmppServer.add_remote_roster`).  The
        fleet coordinator's adaptive barrier uses this as topology
        lookahead: a shard with no remote edges cannot originate
        handoffs, so its local events never bound the barrier window.
        The contract is that cross-shard traffic only flows along
        remote-roster edges created *before* the window that uses them —
        all built-in workloads wire their edges at setup — and the
        coordinator fails loudly (never silently mis-times a delivery)
        if a shard that reported incapable egresses anyway.
        """
        return self.server.remote_edges > 0

    def ingress(self, handoffs: List[Handoff]) -> int:
        """Replay cross-shard handoffs into this shard's switchboard.

        Each handoff is a :class:`Handoff` as produced by another shard's
        :meth:`pending_cross_shard`, replayed due at its original
        ``submit_ms`` plus the switchboard latency, so the cross-shard
        leg costs exactly what a local route would.

        Every destination is validated *before* anything is scheduled: a
        JID this shard does not host raises a descriptive
        :class:`~repro.net.xmpp.RoutingError` and the whole batch is
        rejected, rather than silently dropping (or partially applying)
        misrouted traffic.  Returns the number replayed.
        """
        from ..net.xmpp import RoutingError

        unknown = sorted(
            {h.to_jid for h in handoffs if not self.server.registered(h.to_jid)}
        )
        if unknown:
            raise RoutingError(
                f"shard {self.shard_id!r} does not host "
                f"{', '.join(unknown)}: the coordinator routed "
                f"{len(unknown)} of {len(handoffs)} handoffs to the wrong "
                f"shard (no stanza was replayed)"
            )
        for handoff in handoffs:
            stanza = handoff.stanza
            due_ms = handoff.submit_ms + self.server.latency_ms
            # Presence crossing the boundary is server-internal, never
            # submit()-stamped — data stanzas always carry "_from".
            if stanza.get("kind") == "presence" and "_from" not in stanza:
                self.server.presence_at(handoff.to_jid, stanza, due_ms)
            else:
                self.server.ingress_at(
                    handoff.from_jid, handoff.to_jid, stanza, due_ms
                )
        return len(handoffs)

    def run_until_epoch(self, epoch_ms: float) -> List[Handoff]:
        """Run to the epoch barrier; return the queued cross-shard stanzas.

        The conservative time-windowed sync PR 7's multiprocess fleet
        uses: every shard runs to the same barrier, the coordinator
        exchanges the returned handoffs via :meth:`ingress`, and only
        then does any shard pass the barrier.  Cross-shard latency is
        thereby ≥ one epoch — the epoch must be chosen below the minimum
        cross-shard stanza latency for this to be exact.
        """
        self.kernel.run_until(epoch_ms)
        return self.pending_cross_shard()

    # ------------------------------------------------------------------
    # Canonical reporting
    # ------------------------------------------------------------------
    def fleet_report(self) -> Dict[str, Any]:
        """Deterministic per-shard summary (sorted JIDs, stable keys).

        Two identical seeded runs — in-process, restored from a
        snapshot, or spawned into a worker — must produce byte-identical
        :func:`fleet_report_json` output; CI pins this.
        """
        devices: Dict[str, Any] = {}
        for jid in sorted(self.devices):
            device = self.devices[jid]
            node = device.node
            devices[jid] = {
                "batches_sent": node.batches_sent,
                "energy_j": round(device.phone.energy_joules, 6),
                "flushes": node.flush_count,
                "payloads_sent": node.payloads_sent,
            }
        collectors: Dict[str, Any] = {}
        for jid in sorted(self.collectors):
            node = self.collectors[jid].node
            collectors[jid] = {
                "links": {
                    peer: {
                        "delivered": node.links[peer].delivered,
                        "duplicates": node.links[peer].duplicates,
                    }
                    for peer in sorted(node.links)
                },
            }
        return {
            "collectors": collectors,
            "devices": devices,
            "events_executed": self.kernel.events_executed,
            "now_ms": self.kernel.now,
            "seed": self.seed,
            "server": {
                "stanzas_lost": self.server.stanzas_lost,
                "stanzas_routed": self.server.stanzas_routed,
                "stanzas_stored_offline": self.server.stanzas_stored_offline,
            },
            "shard": self.shard_id,
        }

    def fleet_report_json(self) -> str:
        return json.dumps(self.fleet_report(), sort_keys=True, indent=2) + "\n"
