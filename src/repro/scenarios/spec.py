"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single source of truth for one generative
workload: the city, the crowd surges, the campaigns, the carriers, the
seed.  It is a frozen value object — two equal specs always produce
byte-identical runs — and it compiles to a plain
:class:`~repro.core.shard.ShardSpec`, which is what lets every preset run
solo, sharded via ``repro fleet``, and under the chaos engine unchanged.

Everything derived from a spec (who attends a surge, who suffers radio
contention, which devices a campaign targets) is a *pure function* of the
spec, computed via :func:`~repro.sim.randomness.derive_seed` so the answer
is independent of shard placement and evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..device.radio import CARRIERS
from ..sim.randomness import derive_seed

#: Campaign kinds the workload knows how to deploy.
CAMPAIGN_KINDS = ("battery-monitor", "noise-map", "contact-tracing", "anonytl")

#: Device subsets a campaign can target (by global device index).
SUBSETS = ("all", "even", "odd")

#: The researcher name every scenario's one collector enrolls under.
COLLECTOR = "scenario"


class ScenarioError(ValueError):
    """A scenario spec failed validation."""


@dataclass(frozen=True)
class SurgeSpec:
    """A crowd surge: many users converge on one venue at once.

    ``attendance`` is the probability any given device attends;
    ``contention`` the probability an attendee's mobile data flaps from
    crowd congestion (``flaps`` off/on pairs during the window).
    """

    name: str
    venue: str
    start_h: float
    end_h: float
    attendance: float = 0.5
    contention: float = 0.0
    flaps: int = 2


@dataclass(frozen=True)
class CampaignSpec:
    """One sensing campaign deployed over a subset of the fleet."""

    kind: str
    #: For "anonytl": restrict the task to devices on this carrier.
    carrier: Optional[str] = None
    subset: str = "all"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seeded, composable scenario description."""

    name: str
    seed: int = 7
    devices: int = 8
    hours: float = 2.0
    carriers: Tuple[str, ...] = ("KPN",)
    city_places: int = 64
    venues: Tuple = ()  # Tuple[VenueSpec, ...]
    surges: Tuple[SurgeSpec, ...] = ()
    campaigns: Tuple[CampaignSpec, ...] = (CampaignSpec("battery-monitor"),)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if self.devices < 1:
            raise ScenarioError("scenario needs at least one device")
        if self.hours <= 0:
            raise ScenarioError("scenario duration must be positive")
        if not self.carriers:
            raise ScenarioError("scenario needs at least one carrier")
        for carrier in self.carriers:
            if carrier not in CARRIERS:
                raise ScenarioError(f"unknown carrier {carrier!r}")
        if self.city_places < 1:
            raise ScenarioError("city needs at least one place")
        venue_names = [v.name for v in self.venues]
        if len(venue_names) != len(set(venue_names)):
            raise ScenarioError("venue names must be unique")
        surge_names = [s.name for s in self.surges]
        if len(surge_names) != len(set(surge_names)):
            raise ScenarioError("surge names must be unique")
        for surge in self.surges:
            if surge.venue not in venue_names:
                raise ScenarioError(
                    f"surge {surge.name!r} references unknown venue {surge.venue!r}"
                )
            if not 0.0 <= surge.start_h < surge.end_h <= self.hours:
                raise ScenarioError(
                    f"surge {surge.name!r} window must satisfy "
                    f"0 <= start < end <= hours"
                )
            if not 0.0 <= surge.attendance <= 1.0:
                raise ScenarioError(f"surge {surge.name!r} attendance out of [0, 1]")
            if not 0.0 <= surge.contention <= 1.0:
                raise ScenarioError(f"surge {surge.name!r} contention out of [0, 1]")
            if surge.flaps < 1:
                raise ScenarioError(f"surge {surge.name!r} needs at least one flap")
        kinds = [c.kind for c in self.campaigns]
        if len(kinds) != len(set(kinds)):
            raise ScenarioError("campaign kinds must be unique within a scenario")
        for campaign in self.campaigns:
            if campaign.kind not in CAMPAIGN_KINDS:
                raise ScenarioError(f"unknown campaign kind {campaign.kind!r}")
            if campaign.subset not in SUBSETS:
                raise ScenarioError(f"unknown campaign subset {campaign.subset!r}")
            if campaign.carrier is not None and campaign.carrier not in CARRIERS:
                raise ScenarioError(
                    f"campaign {campaign.kind!r} references unknown "
                    f"carrier {campaign.carrier!r}"
                )

    # ------------------------------------------------------------------
    def compile(self):
        """Compile to a root :class:`~repro.core.shard.ShardSpec`.

        The result is an ordinary shard spec: it can be run solo, handed
        to ``plan_fleet`` for sharding, or wrapped by the chaos engine.
        """
        from ..core.shard import DeviceSpec, ShardSpec
        from ..fleet.partition import device_jid

        self.validate()
        devices = tuple(
            DeviceSpec(
                with_email_app=False,
                jid=device_jid(i),
                carrier=carrier_for(self, i),
            )
            for i in range(self.devices)
        )
        return ShardSpec(
            shard_id=f"scenario-{self.name}",
            seed=self.seed,
            collectors=(COLLECTOR,),
            devices=devices,
        )


# ----------------------------------------------------------------------
# Pure derivations: placement- and order-independent by construction.

def carrier_for(spec: ScenarioSpec, index: int) -> str:
    """The carrier of the device at global ``index`` (round-robin)."""
    return spec.carriers[index % len(spec.carriers)]


def _coin(seed: int, name: str, probability: float) -> bool:
    return derive_seed(seed, name) % 1_000_000 < probability * 1_000_000


def attends(seed: int, surge: SurgeSpec, jid: str) -> bool:
    """Whether ``jid`` attends ``surge`` — pure function of the seed."""
    return _coin(seed, f"scenario/attend/{surge.name}/{jid}", surge.attendance)


def contends(seed: int, surge: SurgeSpec, jid: str) -> bool:
    """Whether an attending ``jid`` suffers radio contention."""
    return attends(seed, surge, jid) and _coin(
        seed, f"scenario/contend/{surge.name}/{jid}", surge.contention
    )
