"""The scenario engine: generative city-scale workloads.

Declarative :class:`ScenarioSpec` values compile to ordinary shard specs
and run solo or sharded — always under the invariant monitor, always
emitting a canonical byte-deterministic report.

The runner names are resolved lazily (PEP 562): the spec/preset layer
must stay importable from :mod:`repro.fleet.worker` without importing
the fleet package back.
"""

from .presets import LONG_PRESETS, PRESETS, build_preset, preset_names
from .spec import (
    CAMPAIGN_KINDS,
    CampaignSpec,
    ScenarioError,
    ScenarioSpec,
    SurgeSpec,
    attends,
    carrier_for,
    contends,
)
from ..world.city import VenueSpec

_LAZY = {
    "ScenarioResult", "run_scenario_spec", "scenario_report",
    "report_json", "render_report",
}

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignSpec",
    "LONG_PRESETS",
    "PRESETS",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "SurgeSpec",
    "VenueSpec",
    "attends",
    "build_preset",
    "carrier_for",
    "contends",
    "preset_names",
    "render_report",
    "report_json",
    "run_scenario_spec",
    "scenario_report",
]


def __getattr__(name):
    if name in _LAZY:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
