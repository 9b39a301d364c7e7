"""The scenario engine: generative city-scale workloads.

Declarative :class:`ScenarioSpec` values compile to ordinary shard specs
and run solo or sharded — always under the invariant monitor, always
emitting a canonical byte-deterministic report.

The runner names are resolved lazily (PEP 562): the spec, preset and
workload modules load no fleet coordinator, which the runner imports.
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

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignSpec",
    "LONG_PRESETS",
    "PRESETS",
    "ScenarioError",
    "ScenarioSpec",
    "SurgeSpec",
    "attends",
    "build_preset",
    "carrier_for",
    "contends",
    "preset_names",
    "render_report",
    "run_scenario_spec",
]


def __getattr__(name):
    if name in ("render_report", "run_scenario_spec"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
