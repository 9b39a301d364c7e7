"""The per-shard telemetry sampler: one snapshot per epoch barrier.

:func:`sample_shard` reads a :class:`~repro.core.shard.Shard`'s state
into one plain dict; a telemetry-armed fleet driver calls it at every
barrier.  Sampling is strictly *pull*: nothing is scheduled on the
kernel, no callback is installed, no counter is added to any hot path —
a telemetry-enabled run executes exactly the same events as a dark one,
which is what lets the timeline ride next to the byte-identical-merge
guarantee instead of endangering it.

Two kinds of fields live in a snapshot, and they never mix:

* **Simulation-keyed fields** — the kernel registry's snapshot under
  ``metrics`` (counts, gauges, histograms, the ``hop.*`` latencies
  among them), plus what the registry does not hold: handoff counts,
  energy, invariant status.  These are pure functions of the seed: two
  same-seed runs produce byte-identical values, and the additive slice
  sums across shards to exactly the solo run's totals
  (:func:`repro.obs.timeline.aggregate_totals`).
* **Wall-clock fields** — worker CPU seconds, RSS, time spent stalled
  at the pipe waiting for the next barrier grant.  These live under the
  single ``wall`` key so the deterministic exporter can strip them with
  one ``pop``.

Energy is reported as integer microjoules (each device rounded, then
summed) so the fleet total is an exact integer sum no matter how devices
are partitioned — float addition order cannot leak into the totals.

Telemetry is a run option, not a shard property: ``run_fleet(telemetry=
True)`` (or an ``observer``) arms every shard's driver, and a dark run
never calls the sampler.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def energy_microjoules(shard) -> int:
    """Total device energy as an exact integer sum of per-device µJ.

    Rounding *per device* before summing makes the total independent of
    partitioning: a 4-shard fleet's four sums add to the solo run's sum
    bit for bit, which a float total (addition-order dependent) would
    not guarantee.
    """
    return sum(
        int(round(device.phone.energy_joules * 1e6))
        for device in shard.devices.values()
    )


def invariant_status(shard) -> Optional[Dict[str, Any]]:
    """Invariant verdict, when a monitor rides in ``shard.extras``.

    Chaos campaigns attach their :class:`~repro.chaos.invariants.InvariantMonitor`
    as ``extras["invariant_monitor"]``; plain fleet runs have none and
    report ``None``.
    """
    monitor = shard.extras.get("invariant_monitor")
    if monitor is None:
        return None
    violations = getattr(monitor, "violations", ())
    return {"ok": not violations, "violations": len(violations)}


def sample_shard(
    shard,
    epoch: int,
    barrier_ms: float,
    handoffs_in: int = 0,
    handoffs_out: int = 0,
    wall: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """One snapshot of ``shard`` at the barrier ending ``barrier_ms``.

    ``metrics`` is the kernel registry's snapshot; the rest is what the
    registry does not hold.  ``handoffs_in``/``handoffs_out`` are the
    cross-shard counts of the window just finished (the driver knows
    both).  ``wall`` is the driver's wall-clock section, passed through
    untouched.
    """
    sample: Dict[str, Any] = {
        "kind": "sample",
        "epoch": epoch,
        "barrier_ms": barrier_ms,
        "shard": shard.shard_id,
        "handoffs": {"in": handoffs_in, "out": handoffs_out},
        "energy_uj": energy_microjoules(shard),
        "invariants": invariant_status(shard),
        "metrics": shard.kernel.metrics.snapshot(),
    }
    if wall is not None:
        sample["wall"] = wall
    return sample
