"""Turning a :class:`ScenarioSpec` into a running shard workload.

Split into three stages so every execution mode reuses the same code:

* :func:`attach_scenario` — build and wire the generative worlds, the
  surge radio contention, and the (pure-observer) invariant monitor onto
  an un-started shard;
* :func:`start_scenario` — start the shard and deploy the campaigns,
  solo or against the fleet coordinator's global roster;
* :func:`scenario_summary` — the order-insensitive per-shard summary the
  runner merges into the canonical scenario report.

:func:`setup_scenario` composes the first two behind the fleet worker's
``WORKLOADS`` registry.  This module deliberately never imports
:mod:`repro.fleet`, so the fleet worker can import it at module level
without a cycle.

Determinism rules honoured throughout:

* world construction draws only from private ``derive_seed`` RNGs keyed
  by ``(scenario seed, jid)`` — placement-independent by construction;
* attendance/contention/targeting are pure functions of the spec;
* the monitor runs with ``check_interval_ms=None`` so attaching it adds
  zero kernel events (solo and sharded event counts must match);
* every summary statistic is a set/sum — no dependence on the order in
  which same-timestamp deliveries interleave at the collector.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..anonytl.compiler import compile_task
from ..anonytl.tasks import (
    AcceptPredicate,
    AnonyTLTask,
    ReportSpec,
    accepted_jids,
)
from ..apps import battery_monitor, contact_tracing, noise_map
from ..chaos.invariants import InvariantMonitor
from ..core.shard import Shard
from ..sim.hostgc import building
from ..sim.kernel import HOUR
from ..sim.randomness import derive_seed
from ..world.city import build_city, build_citizen_world
from ..world.disruptions import DATA_OFF, DATA_ON, DisruptionPlan
from .spec import CampaignSpec, ScenarioSpec, attends, carrier_for, contends


def _global_jids(spec: ScenarioSpec) -> List[str]:
    """Every device JID in global index order."""
    from ..fleet.partition import device_jid

    return [device_jid(i) for i in range(spec.devices)]


def _world_days(spec: ScenarioSpec) -> int:
    import math

    return max(1, math.ceil(spec.hours / 24.0))


# ---------------------------------------------------------------------------
# Stage 1: attach worlds, contention and the monitor
# ---------------------------------------------------------------------------

def attach_scenario(shard: Shard, spec: ScenarioSpec) -> None:
    """Build the scenario's worlds onto ``shard``'s local devices."""
    spec.validate()
    city = build_city(spec.seed, spec.city_places, spec.venues)
    days = _world_days(spec)

    world_stats = {"places": 0, "segments": 0, "splices": 0}
    for jid in sorted(shard.devices):
        surges = [
            (surge, surge.start_h * HOUR, surge.end_h * HOUR)
            for surge in spec.surges
            if attends(spec.seed, surge, jid)
        ]
        world, stats = build_citizen_world(
            jid, spec.seed, city, days, surges=surges
        )
        shard.attach_world(jid, world)
        for key in world_stats:
            world_stats[key] += stats[key]
    world_stats["city_places"] = city.n_places

    # Crowd-congestion radio contention: attending-and-contending devices
    # have mobile data flap during the surge window.  Times come from a
    # per-(surge, jid) derived RNG so placement never changes them.
    for surge in spec.surges:
        start_ms, end_ms = surge.start_h * HOUR, surge.end_h * HOUR
        for jid in sorted(shard.devices):
            if not contends(spec.seed, surge, jid):
                continue
            rng = random.Random(
                derive_seed(spec.seed, f"scenario/contention/{surge.name}/{jid}")
            )
            times = sorted(
                rng.uniform(start_ms, end_ms) for _ in range(2 * surge.flaps)
            )
            plan = DisruptionPlan()
            for k in range(surge.flaps):
                plan.add(times[2 * k], DATA_OFF).add(times[2 * k + 1], DATA_ON)
            plan.schedule(shard.kernel, shard.devices[jid].phone)

    # Pure observer: no periodic check event, so the kernel's event
    # count — part of the canonical report — is untouched.
    shard.extras["invariant_monitor"] = InvariantMonitor(
        shard, check_interval_ms=None
    )
    shard.extras["scenario_state"] = {"spec": spec, "world": world_stats}


# ---------------------------------------------------------------------------
# Stage 2: start and deploy campaigns
# ---------------------------------------------------------------------------

def _campaign_experiment(campaign: CampaignSpec, spec: ScenarioSpec, index: int):
    if campaign.kind == "battery-monitor":
        return battery_monitor.build_experiment()
    if campaign.kind == "noise-map":
        return noise_map.build_experiment()
    if campaign.kind == "contact-tracing":
        return contact_tracing.build_experiment()
    if campaign.kind == "anonytl":
        requirements = ()
        if campaign.carrier is not None:
            requirements = (("carrier", campaign.carrier),)
        task = AnonyTLTask(
            task_id=9000 + index,
            expires=None,
            accept=AcceptPredicate(requirements) if requirements else None,
            reports=(ReportSpec(fields=("location",), interval_ms=300_000.0),),
        )
        return compile_task(task)
    raise ValueError(f"unknown campaign kind {campaign.kind!r}")


def campaign_targets(
    campaign: CampaignSpec, spec: ScenarioSpec, all_jids: List[str]
) -> List[str]:
    """The global target set of one campaign — pure function of the spec."""
    indexed = list(enumerate(all_jids))
    if campaign.subset == "even":
        indexed = [(i, j) for i, j in indexed if i % 2 == 0]
    elif campaign.subset == "odd":
        indexed = [(i, j) for i, j in indexed if i % 2 == 1]
    if campaign.kind == "anonytl" and campaign.carrier is not None:
        attributes = {
            jid: {"carrier": carrier_for(spec, i)} for i, jid in indexed
        }
        task = AnonyTLTask(
            task_id=0,
            expires=None,
            accept=AcceptPredicate((("carrier", campaign.carrier),)),
            reports=(ReportSpec(fields=("location",), interval_ms=300_000.0),),
        )
        return accepted_jids(task, attributes)
    return sorted(jid for _, jid in indexed)


def start_scenario(shard: Shard, spec: ScenarioSpec, fleet_ctx: Dict[str, Any]) -> None:
    """Start the shard and deploy every campaign over its target set.

    Mirrors the battery-monitor fleet contract: the collector's shard
    assigns local devices and deploys to the *global* roster, with
    one-sided roster edges for remote JIDs on both sides so presence
    crosses the boundary exactly as the solo run delivers it locally.
    """
    shard.start()
    all_jids = _global_jids(spec)
    for index, jid in enumerate(all_jids):
        if jid in shard.devices:
            record = shard.admin.devices.get(jid)
            if record is not None:
                record.attributes["carrier"] = carrier_for(spec, index)

    local_jids = sorted(shard.devices)
    names = sorted(shard.collectors)
    if not fleet_ctx["collector_jids"]:
        return
    collector_jid = fleet_ctx["collector_jids"][0]
    remote_jids = [j for j in sorted(all_jids) if j not in shard.devices]

    if names:
        collector = shard.collectors[names[0]]
        shard.assign(collector, [shard.devices[jid] for jid in local_jids])
        for jid in remote_jids:
            shard.server.add_remote_roster(collector_jid, jid)
        for index, campaign in enumerate(spec.campaigns):
            experiment = _campaign_experiment(campaign, spec, index)
            targets = campaign_targets(campaign, spec, all_jids)
            collector.node.deploy(experiment, targets)
    else:
        for jid in local_jids:
            shard.server.add_remote_roster(jid, collector_jid)


@building()
def setup_scenario(shard: Shard, fleet_ctx: Optional[Dict[str, Any]] = None) -> None:
    """The fleet worker's ``"scenario"`` workload entry point.

    The spec rides in ``fleet_ctx["scenario"]`` (the coordinator passes
    it through ``workload_ctx``, so it crosses the spawn pipe as data).
    """
    if fleet_ctx is None or "scenario" not in fleet_ctx:
        raise ValueError("scenario workload needs fleet_ctx['scenario']")
    spec = fleet_ctx["scenario"]
    attach_scenario(shard, spec)
    start_scenario(shard, spec, fleet_ctx)


class _MidEpochBomb:
    """Module-level callable (picklable) that detonates mid-epoch."""

    def __call__(self) -> None:
        raise RuntimeError("scenario mid-epoch crash canary")


def setup_scenario_crash(
    shard: Shard, fleet_ctx: Optional[Dict[str, Any]] = None
) -> None:
    """Scenario workload that crashes one worker mid-epoch (test-only):
    the shard holding device ``fleet_ctx["crash_device"]`` (default 0).

    Device *i* lands on shard ``i % K`` under round-robin partitioning,
    so the crash site is deterministic for a given shard count.
    """
    setup_scenario(shard, fleet_ctx)
    from ..fleet.partition import device_jid

    if device_jid(fleet_ctx.get("crash_device", 0)) in shard.devices:
        shard.kernel.schedule_at(1_000.0, _MidEpochBomb())


# ---------------------------------------------------------------------------
# Stage 3: the order-insensitive per-shard summary
# ---------------------------------------------------------------------------

def scenario_summary(shard: Shard) -> Optional[Dict[str, Any]]:
    """Summarize a scenario shard for the merged report.

    Returns ``None`` for non-scenario shards.  Every statistic is a count
    over sets/sums, so the value is independent of the interleaving of
    same-timestamp deliveries — the property that makes sharded runs
    byte-identical to solo ones.
    """
    state = shard.extras.get("scenario_state")
    if state is None:
        return None
    spec: ScenarioSpec = state["spec"]

    violations: List[Dict[str, Any]] = []
    monitor = shard.extras.get("invariant_monitor")
    if monitor is not None:
        # Scenario horizons cut through in-flight traffic by design, so
        # quiescence is not expected at finish time.
        monitor.finish(expect_quiesced=False)
        violations = monitor.violations_dicts()

    campaigns: Dict[str, Any] = {}
    for cjid in sorted(shard.collectors):
        node = shard.collectors[cjid].node
        for experiment_id, context in sorted(node.contexts.items()):
            host = context.scripts.get("collect")
            if host is None:
                continue
            ns = host.namespace
            if experiment_id == battery_monitor.EXPERIMENT_ID:
                campaigns["battery-monitor"] = {"readings": len(ns["readings"])}
            elif experiment_id == noise_map.EXPERIMENT_ID:
                campaigns["noise-map"] = {
                    "cells": len(ns["noise_map"]),
                    "digests": len(ns["digests"]),
                }
            elif experiment_id == contact_tracing.EXPERIMENT_ID:
                campaigns["contact-tracing"] = {
                    "beacons": ns["counters"]["beacons"],
                    "pairs": len(ns["contacts"]),
                    "anchors": len(ns["anchors"]),
                }
            elif experiment_id.startswith("anonytl-"):
                campaigns["anonytl"] = {"reports": len(ns["reports"])}

    return {
        "scenario": spec.name,
        "world": state["world"],
        "campaigns": campaigns,
        "violations": violations,
        "violation_count": len(violations),
    }
