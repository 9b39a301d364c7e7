"""Power accounting: the simulated battery rail and power meter.

The paper measured power by inserting a 0.33 Ω shunt in the battery line of
a Samsung Galaxy Nexus and sampling the voltage drop with an NI USB-6009
ADC (Section 5.2).  We reproduce the *measurement surface* rather than the
instrument: every hardware component (CPU, 3G modem, Wi-Fi) registers its
current draw with a :class:`PowerRail`, which

* keeps the exact piecewise-constant power function (breakpoints),
* integrates total energy in joules as the simulation advances, and
* optionally feeds a :class:`PowerMeter` that samples at a fixed rate like
  the ADC did, producing the trace plotted in Figure 3.

Units: power in **watts**, time in **milliseconds**, energy in **joules**.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.kernel import EventHandle, Kernel
from ..sim.trace import TimeSeries


class PowerRail:
    """Aggregates per-component power draw and integrates energy."""

    __slots__ = (
        "_kernel", "_draws", "_total_w", "_energy_j", "_last_change",
        "track_history", "history",
    )

    def __init__(self, kernel: Kernel, track_history: bool = False) -> None:
        self._kernel = kernel
        self._draws: Dict[str, float] = {}
        self._total_w = 0.0
        self._energy_j = 0.0
        self._last_change = kernel.now
        #: When true, every draw change appends a breakpoint to
        #: :attr:`history`.  Disabled by default: long simulations (the
        #: 24-day localization run) would otherwise accumulate millions of
        #: breakpoints nobody reads.
        self.track_history = track_history
        self.history = TimeSeries("rail_watts")
        if track_history:
            self.history.append(kernel.now, 0.0)

    def _settle(self) -> None:
        """Integrate energy for the interval since the last change."""
        now = self._kernel.now
        if now > self._last_change:
            self._energy_j += self._total_w * (now - self._last_change) / 1000.0
            self._last_change = now

    def set_draw(self, component: str, watts: float) -> None:
        """Set a component's instantaneous draw (overwrites previous)."""
        if watts < 0:
            raise ValueError(f"negative power draw for {component!r}: {watts}")
        self._settle()
        previous = self._draws.get(component, 0.0)
        if watts == previous:
            return
        self._draws[component] = watts
        self._total_w += watts - previous
        # Guard against float drift accumulating over long runs.
        if self._total_w < 1e-12:
            self._total_w = sum(self._draws.values())
        if self.track_history:
            # Two points per change draw the step edges exactly.
            self.history.append(self._kernel.now, self._total_w - (watts - previous))
            self.history.append(self._kernel.now, self._total_w)

    def draw_of(self, component: str) -> float:
        """Current draw of one component (0.0 if never registered)."""
        return self._draws.get(component, 0.0)

    @property
    def total_watts(self) -> float:
        """Instantaneous total draw on the rail."""
        return self._total_w

    @property
    def energy_joules(self) -> float:
        """Total energy drawn since construction, up to the current time."""
        self._settle()
        return self._energy_j

    def reset_energy(self) -> float:
        """Zero the energy counter; returns the value before the reset."""
        self._settle()
        energy, self._energy_j = self._energy_j, 0.0
        return energy


class PowerMeter:
    """Fixed-rate sampler of the rail, like the paper's shunt + ADC rig.

    The exact energy integral is always available from the rail itself;
    the meter exists to produce Figure 3 style traces and to let tests
    check that sampled and exact energies agree.
    """

    def __init__(self, kernel: Kernel, rail: PowerRail, interval_ms: float = 10.0) -> None:
        if interval_ms <= 0:
            raise ValueError("sampling interval must be positive")
        self._kernel = kernel
        self._rail = rail
        self.interval_ms = interval_ms
        self.samples = TimeSeries("meter_watts")
        self._pending: Optional[EventHandle] = None
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._sample()

    def stop(self) -> None:
        self.running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _sample(self) -> None:
        if not self.running:
            return
        self.samples.append(self._kernel.now, self._rail.total_watts)
        self._pending = self._kernel.schedule(self.interval_ms, self._sample)

    def energy_joules(self) -> float:
        """Energy estimate from the sampled trace (trapezoidal rule)."""
        return self.samples.integrate() / 1000.0
