"""Battery model: state of charge, voltage curve and energy accounting.

The localization deployment sampled battery voltage once a minute (Section
5.2), and the example collector receives exactly those readings, so the
battery needs a plausible voltage curve.  The model is deliberately
simple:

* a fixed usable energy capacity (J), drained by the rail's integral;
* an open-circuit voltage that falls piecewise-linearly with state of
  charge (Li-ion-ish: 4.20 V full, ~3.70 V mid, 3.40 V empty);
* a load-dependent sag ``I * R_internal`` so that heavy radio activity is
  visible in the voltage signal, as it is on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.kernel import Kernel
from .power import PowerRail

#: Open-circuit voltage curve as (state_of_charge, volts) breakpoints.
DEFAULT_VOLTAGE_CURVE = (
    (0.00, 3.40),
    (0.05, 3.55),
    (0.20, 3.68),
    (0.50, 3.78),
    (0.80, 3.95),
    (1.00, 4.20),
)


@dataclass(frozen=True)
class BatteryConfig:
    """Capacity and electrical parameters.

    The Galaxy Nexus shipped a 1750 mAh battery; at a 3.8 V nominal
    voltage that is roughly 1750 mAh * 3.6 * 3.8 ≈ 23,940 J.
    """

    capacity_j: float = 23_940.0
    internal_resistance_ohm: float = 0.25
    nominal_voltage: float = 3.8


#: Configs are immutable, so every battery built without one shares this.
_DEFAULT_CONFIG = BatteryConfig()


class Battery:
    """Tracks state of charge from the rail's energy integral."""

    __slots__ = (
        "_kernel", "_rail", "config", "_initial_level", "_baseline_energy",
        "on_depleted", "_depleted_notified", "charging", "on_charging_changed",
        "_off_charger_j", "_off_charger_mark",
    )

    def __init__(
        self,
        kernel: Kernel,
        rail: PowerRail,
        config: Optional[BatteryConfig] = None,
        initial_level: float = 1.0,
    ) -> None:
        if not 0.0 <= initial_level <= 1.0:
            raise ValueError("initial_level must be within [0, 1]")
        self._kernel = kernel
        self._rail = rail
        self.config = config or _DEFAULT_CONFIG
        self._initial_level = initial_level
        self._baseline_energy = rail.energy_joules
        self.on_depleted: List[Callable[[], None]] = []
        self._depleted_notified = False
        #: Charger state: SystemSens/LiveLab-style tools (and the
        #: alternative transmission policy the paper mentions) key off
        #: whether the phone is plugged in.
        self.charging = False
        self.on_charging_changed: List[Callable[[bool], None]] = []
        # Energy drawn while *unplugged* — what actually costs battery.
        self._off_charger_j = 0.0
        self._off_charger_mark = rail.energy_joules

    @property
    def drained_joules(self) -> float:
        """Energy drawn from the battery since construction/last recharge."""
        return self._rail.energy_joules - self._baseline_energy

    @property
    def level(self) -> float:
        """State of charge in [0, 1]."""
        level = self._initial_level - self.drained_joules / self.config.capacity_j
        return max(0.0, min(1.0, level))

    @property
    def depleted(self) -> bool:
        return self.level <= 0.0

    def check_depleted(self) -> bool:
        """Poll for depletion; fires ``on_depleted`` once when flat."""
        if self.depleted and not self._depleted_notified:
            self._depleted_notified = True
            for listener in list(self.on_depleted):
                listener()
        return self.depleted

    def recharge(self, level: float = 1.0) -> None:
        """Recharge to the given state of charge."""
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be within [0, 1]")
        self._initial_level = level
        self._baseline_energy = self._rail.energy_joules
        self._depleted_notified = False

    def set_charging(self, charging: bool) -> None:
        """Plug in / unplug the charger.

        The model does not simulate charge current; unplugging simply
        tops the state of charge up to full if the phone was plugged in
        long enough to matter (overnight charging).  What the middleware
        cares about is the *event*: the charger-delay transmission policy
        flushes on plug-in.
        """
        if charging == self.charging:
            return
        if charging:
            # Close the unplugged accounting interval.
            self._off_charger_j += self._rail.energy_joules - self._off_charger_mark
        else:
            self._off_charger_mark = self._rail.energy_joules
        self.charging = charging
        if not charging:
            self.recharge(1.0)
        for listener in list(self.on_charging_changed):
            listener(charging)

    @property
    def discharge_joules(self) -> float:
        """Cumulative energy drawn from the battery (excludes time on the
        charger, when the rail is mains-powered)."""
        total = self._off_charger_j
        if not self.charging:
            total += self._rail.energy_joules - self._off_charger_mark
        return total

    def open_circuit_voltage(self) -> float:
        """Voltage from the SoC curve, ignoring load."""
        soc = self.level
        curve = DEFAULT_VOLTAGE_CURVE
        for (s0, v0), (s1, v1) in zip(curve, curve[1:]):
            if soc <= s1:
                if s1 == s0:
                    return v1
                frac = (soc - s0) / (s1 - s0)
                return v0 + frac * (v1 - v0)
        return curve[-1][1]

    def voltage(self) -> float:
        """Terminal voltage under the present load (with IR sag)."""
        ocv = self.open_circuit_voltage()
        current_a = self._rail.total_watts / max(ocv, 1e-6)
        return max(0.0, ocv - current_a * self.config.internal_resistance_ohm)

    def reading(self) -> dict:
        """A battery-sensor style reading (what the example app reports)."""
        return {
            "voltage": round(self.voltage(), 4),
            "level": round(self.level, 4),
            "drained_j": round(self.drained_joules, 3),
        }
