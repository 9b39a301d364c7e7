"""High-level facade: build a whole Pogo testbed simulation in a few lines.

This is the public entry point examples and benchmarks use::

    sim = PogoSimulation(seed=7)
    collector = sim.add_collector("researcher")
    device = sim.add_device()
    sim.start()
    sim.assign(collector, [device])
    collector.node.deploy(experiment, [device.jid])
    sim.run(hours=1)

Everything underneath — kernel, XMPP switchboard, testbed admin, phones,
sensors, worlds — is ordinary library surface and can be composed by hand
when an experiment needs something unusual (the benchmarks do both).

The actual machinery lives in :mod:`repro.core.shard`: a
``PogoSimulation`` *is* a single :class:`~repro.core.shard.Shard` with
the historical constructor.  Code that needs the sharded surface —
``snapshot()``/``restore()``, the cross-shard egress/ingress seam, epoch
barriers, declarative ``ShardSpec`` construction — gets it for free on
every ``PogoSimulation``, or can build :class:`Shard` directly.
"""

from __future__ import annotations

from .shard import (  # noqa: F401  (re-exported public surface)
    DeviceSpec,
    Shard,
    ShardSpec,
    SimulatedCollector,
    SimulatedDevice,
)
from ..device.radio import KPN, CarrierProfile


class PogoSimulation(Shard):
    """A complete simulated testbed (one shard, historical constructor)."""

    def __init__(
        self,
        seed: int = 0,
        carrier: CarrierProfile = KPN,
        spans: bool = True,
        metrics: bool = True,
    ) -> None:
        super().__init__(ShardSpec(
            shard_id="sim", seed=seed, carrier=carrier, spans=spans,
            metrics=metrics,
        ))
