"""Deterministic fleet partitioning: one root spec → K shard specs.

The partitioner is pure data manipulation — no kernel is built here.
Three properties make the partitioned run byte-identical to the solo
one:

* **Global JID numbering.**  Device JIDs are assigned from the *root*
  roster order (``device-1@pogo`` … ``device-N@pogo``) and pinned into
  every per-shard :class:`DeviceSpec`.  Per-device random streams are
  keyed by JID (``accel/device-7@pogo`` …), so a shard hosting devices
  {2, 5, 8} draws, for each of them, exactly the bytes the single-shard
  run would have drawn.
* **Shared root seed.**  Every shard spec carries the root seed
  unchanged; :class:`~repro.sim.randomness.RandomStreams` derives each
  named stream from ``(seed, name)`` by hashing, so per-shard streams
  are independent of which other streams exist on the shard.
* **Deterministic assignment.**  Device *i* (0-based root order) lives
  on shard ``i % K``; collectors live on shard 0.  The mapping is a
  function of (roster, K) only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.shard import DeviceSpec, ShardSpec
from ..device.radio import KPN, CarrierProfile


class PartitionError(ValueError):
    """Raised for rosters that cannot be partitioned unambiguously."""


def device_jid(index: int) -> str:
    """The global JID of the ``index``-th device (0-based root order)."""
    return f"device-{index + 1}@pogo"


def collector_jid(name: str) -> str:
    return f"{name}@pogo"


def fleet_spec(
    devices: int,
    *,
    seed: int = 0,
    collector: str = "fleet",
    shard_id: str = "fleet",
    carrier: CarrierProfile = KPN,
    record_trace: bool = False,
    spans: bool = True,
    metrics: bool = True,
    latency_ms: float = 80.0,
    device: Optional[DeviceSpec] = None,
) -> ShardSpec:
    """Build the root spec for a homogeneous N-device fleet.

    The default device shape is the Table 3 one: sensors plus the e-mail
    app whose radio activity batches piggyback on.

    ``latency_ms`` is the switchboard's base stanza latency — simulated
    physics, not a tuning knob: it changes the schedule itself, and it
    bounds the fleet's epoch-barrier window (see
    :class:`~repro.core.shard.ShardSpec`).  Partitioning copies it to
    every shard, so solo and K-shard runs of one spec always agree.
    """
    if devices < 0:
        raise PartitionError(f"device count must be >= 0, got {devices}")
    template = device if device is not None else DeviceSpec(with_email_app=True)
    return ShardSpec(
        shard_id=shard_id,
        seed=seed,
        carrier=carrier,
        record_trace=record_trace,
        spans=spans,
        metrics=metrics,
        latency_ms=latency_ms,
        collectors=(collector,),
        devices=tuple(template for _ in range(devices)),
    )


@dataclass(frozen=True)
class FleetPlan:
    """The full deterministic partition of one fleet.

    ``root`` is the input spec with every device JID made explicit —
    running ``Shard(plan.root)`` solo is the reference execution the
    merged K-shard run must reproduce byte for byte.  ``owners`` maps
    every JID (devices and collectors) to the index of the shard spec
    in ``shards`` that hosts it.
    """

    root: ShardSpec
    shards: Tuple[ShardSpec, ...]
    owners: Dict[str, int]
    device_jids: Tuple[str, ...]
    collector_jids: Tuple[str, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def owner_of(self, jid: str) -> int:
        try:
            return self.owners[jid]
        except KeyError:
            raise PartitionError(f"no shard in this plan hosts {jid}") from None


def plan_fleet(root: ShardSpec, shards: int) -> FleetPlan:
    """Split ``root`` into ``shards`` per-shard specs.

    Devices are dealt round-robin (device *i* → shard ``i % K``) so every
    shard carries an equal share of the fleet; collectors are placed on
    shard 0.  Shard ids are ``{root.shard_id}/{k}``.
    """
    if shards < 1:
        raise PartitionError(f"shard count must be >= 1, got {shards}")

    resolved_devices = []
    jids_seen: Dict[str, int] = {}
    for index, spec in enumerate(root.devices):
        jid = spec.jid if spec.jid is not None else device_jid(index)
        if jid in jids_seen:
            raise PartitionError(
                f"duplicate device JID {jid!r} at roster positions "
                f"{jids_seen[jid]} and {index}"
            )
        jids_seen[jid] = index
        resolved_devices.append(replace(spec, jid=jid))

    collector_names = list(root.collectors)
    if len(set(collector_names)) != len(collector_names):
        raise PartitionError(f"duplicate collector names: {collector_names}")
    collector_jids_ = tuple(collector_jid(name) for name in collector_names)
    clash = set(collector_jids_) & set(jids_seen)
    if clash:
        raise PartitionError(f"collector/device JID clash: {sorted(clash)}")

    resolved_root = replace(root, devices=tuple(resolved_devices))

    owners: Dict[str, int] = {}
    per_shard_devices: list = [[] for _ in range(shards)]
    for index, spec in enumerate(resolved_devices):
        shard_index = index % shards
        per_shard_devices[shard_index].append(spec)
        owners[spec.jid] = shard_index
    for jid in collector_jids_:
        owners[jid] = 0

    shard_specs = tuple(
        replace(
            resolved_root,
            shard_id=f"{root.shard_id}/{k}",
            collectors=root.collectors if k == 0 else (),
            devices=tuple(per_shard_devices[k]),
        )
        for k in range(shards)
    )
    return FleetPlan(
        root=resolved_root,
        shards=shard_specs,
        owners=owners,
        device_jids=tuple(spec.jid for spec in resolved_devices),
        collector_jids=collector_jids_,
    )
