"""Per-script power modelling (the paper's first future-work item).

Section 6: "In the future we would like to implement power modelling to
estimate the resource consumption of individual scripts."  This module
implements that estimator on top of the middleware's existing accounting:

* **CPU** — each call into a script (handler, timer, ``start``) runs in a
  scheduler task that wakes/holds the CPU; cost ≈ calls × (awake-hold ×
  awake power), apportioned when several scripts share one wakeup.
* **Sensors** — each sensor knows its per-sample energy (a Wi-Fi scan is
  ~1.5 s of scan power plus the wake lock window; a battery read is
  almost free); the cost of a sample is split across the subscriptions
  that demanded it, so two scripts sharing a sensor each pay half —
  mirroring how the framework shares the physical sampling (Section 3.5).
* **Radio** — bytes a script publishes toward the collector cost marginal
  DCH airtime; with tail synchronization there is no per-message tail to
  attribute (that is the whole point), so the estimate charges transfer
  time only, plus an amortized share of flush overhead.

The estimator is deliberately *a model*, not ground truth: the simulation
knows exact joules per component but cannot split the rail per script any
better than a real phone could.  Tests validate the model's sanity
against the exact totals (the per-script sum never exceeds measured
energy; a heavy script dominates a light one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.kernel import Kernel


@dataclass
class ScriptPowerEstimate:
    """Estimated resource consumption of one script."""

    script: str
    invocations: int = 0
    cpu_j: float = 0.0
    sensor_j: float = 0.0
    radio_j: float = 0.0
    published_bytes: int = 0
    sensor_samples: float = 0.0

    @property
    def total_j(self) -> float:
        return self.cpu_j + self.sensor_j + self.radio_j

    def row(self) -> str:
        return (
            f"{self.script:<24} {self.invocations:>8} {self.cpu_j:>8.2f} "
            f"{self.sensor_samples:>8.0f} {self.sensor_j:>8.2f} "
            f"{self.published_bytes:>10,} {self.radio_j:>8.2f} {self.total_j:>8.2f}"
        )


#: Per-sample energy by sensor channel (joules).  Derived from
#: the device models: a Wi-Fi scan is ~1.5 s at 0.45 W plus ~1.5 s of
#: awake CPU; a battery read or network location fix is just the wakeup;
#: a GPS fix adds ~6 s at 0.35 W.
SENSOR_SAMPLE_J = {
    "wifi-scan": 1.5 * 0.45 + 1.5 * 0.16,
    "battery": 0.02,
    "locations": 0.05,
    "accel": 0.01,
}
GPS_FIX_EXTRA_J = 6.0 * 0.35


class ScriptPowerModel:
    """Estimates per-script energy on one device node."""

    def __init__(self, node) -> None:
        self.node = node

    # ------------------------------------------------------------------
    def _cpu_cost_per_invocation(self) -> float:
        cpu = self.node.phone.cpu.config
        # One scheduler task holds the CPU awake for roughly the hold
        # window; tasks triggered by the same wakeup share it, which the
        # 0.7 utilization factor approximates.
        return 0.7 * (cpu.awake_hold_ms / 1000.0) * cpu.awake_w

    def _radio_cost_per_byte(self) -> float:
        profile = self.node.phone.modem.profile
        return profile.dch_w / profile.uplink_bytes_per_s

    # ------------------------------------------------------------------
    def estimate(self) -> List[ScriptPowerEstimate]:
        """Estimate every deployed script on the node."""
        estimates: Dict[str, ScriptPowerEstimate] = {}
        cpu_per_call = self._cpu_cost_per_invocation()
        radio_per_byte = self._radio_cost_per_byte()

        for context in self.node.contexts.values():
            for name, host in context.scripts.items():
                key = host.serial_key
                estimate = estimates.setdefault(key, ScriptPowerEstimate(script=key))
                estimate.invocations += host.invocations
                estimate.cpu_j += host.invocations * cpu_per_call
                estimate.published_bytes += host.published_bytes
                estimate.radio_j += host.published_bytes * radio_per_byte

        # Sensor sampling, split across the demanding subscriptions.
        for channel, sensor in self.node.sensor_manager.sensors.items():
            samples = sensor.sample_count
            if samples == 0:
                continue
            per_sample = SENSOR_SAMPLE_J.get(channel, 0.05)
            if channel == "locations" and getattr(sensor, "provider", "") == "gps":
                per_sample += GPS_FIX_EXTRA_J
            owners = self._channel_demanders(channel)
            if not owners:
                continue
            share = samples * per_sample / len(owners)
            for owner in owners:
                estimate = estimates.setdefault(owner, ScriptPowerEstimate(script=owner))
                estimate.sensor_j += share
                estimate.sensor_samples += samples / len(owners)

        return sorted(estimates.values(), key=lambda e: e.total_j, reverse=True)

    def _channel_demanders(self, channel: str) -> List[str]:
        """Who is subscribed to a sensor channel, across contexts.

        Local script subscriptions are attributed to the script; remote
        (collector) subscriptions to the experiment's collector — so a
        researcher streaming raw sensor data sees that cost too.
        """
        owners: List[str] = []
        for context in self.node.contexts.values():
            for sub in context.broker.subscriptions(channel):
                if sub.owner and sub.owner.startswith("script:"):
                    owners.append(f"{context.experiment_id}/{sub.owner[7:]}")
                elif sub.owner == "link":
                    owners.append(f"{context.experiment_id}/<collector>")
        return owners

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable per-script table."""
        lines = [
            f"{'script':<24} {'calls':>8} {'cpu J':>8} {'samples':>8} "
            f"{'sens J':>8} {'tx bytes':>10} {'radio J':>8} {'total J':>8}",
        ]
        for estimate in self.estimate():
            lines.append(estimate.row())
        measured = self.node.phone.energy_joules
        modeled = sum(e.total_j for e in self.estimate())
        lines.append(
            f"{'(modeled / measured device total)':<24} "
            f"{modeled:>10.2f} / {measured:.2f} J"
        )
        return "\n".join(lines)
