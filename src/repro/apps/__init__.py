"""Ready-made Pogo applications (the paper's example experiments)."""

from . import (
    battery_monitor,
    contact_tracing,
    deployment_study,
    energy_study,
    localization,
    noise_map,
    roguefinder,
)

__all__ = [
    "battery_monitor",
    "contact_tracing",
    "deployment_study",
    "energy_study",
    "localization",
    "noise_map",
    "roguefinder",
]
