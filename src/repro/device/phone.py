"""The simulated smartphone: composition of all hardware components.

A :class:`Phone` owns a power rail, CPU, battery, cellular modem and Wi-Fi
radio, and adds the two cross-cutting behaviours the middleware interacts
with:

* **Connectivity management.**  "Mobile phones frequently switch between
  wireless interfaces as the user moves in- or out of range of access
  points and cell towers" (Section 4.6).  The phone tracks the active
  interface (Wi-Fi preferred over cellular, like Android) and notifies
  listeners on changes, which is what drives Pogo's reconnection logic.
* **Lifecycle.**  Phones reboot and run out of battery (Section 5.3 lists
  these as causes of lost cluster state).  ``reboot()`` takes the device
  down for a configurable time and fires shutdown/boot listeners the Pogo
  runtime registers with.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim.kernel import Kernel, SECOND
from ..sim.trace import TraceRecorder
from .battery import Battery, BatteryConfig
from .cpu import Cpu, CpuConfig
from .power import PowerRail
from .radio import KPN, CarrierProfile, Modem, RadioUnavailable
from .wifi import WifiConfig, WifiInterface, WifiUnavailable

#: Active-interface names.
INTERFACE_WIFI = "wifi"
INTERFACE_CELLULAR = "cellular"


class PhoneOffline(Exception):
    """Raised when a transfer is requested with no interface available."""


class Phone:
    """A simulated Android handset."""

    __slots__ = (
        "kernel", "name", "trace", "rail", "cpu", "battery", "modem", "wifi",
        "alive", "reboot_count", "_wifi_desired", "wifi_association_suppressed",
        "on_interface_change", "on_shutdown", "on_boot", "_last_interface",
    )

    def __init__(
        self,
        kernel: Kernel,
        name: str = "phone",
        profile: CarrierProfile = KPN,
        cpu_config: Optional[CpuConfig] = None,
        wifi_config: Optional[WifiConfig] = None,
        battery_config: Optional[BatteryConfig] = None,
        trace: Optional[TraceRecorder] = None,
        simulate_paging: bool = False,
        track_power_history: bool = False,
        platform_floor_w: float = 0.003,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.trace = trace
        self.rail = PowerRail(kernel, track_history=track_power_history)
        # Always-on platform components (PMIC, RAM self-refresh, RTC).
        self.rail.set_draw("platform", platform_floor_w)
        self.cpu = Cpu(kernel, self.rail, cpu_config, name=f"{name}.cpu", trace=trace)
        self.battery = Battery(kernel, self.rail, battery_config)
        self.modem = Modem(
            kernel,
            self.rail,
            profile,
            name=f"{name}.modem",
            trace=trace,
            simulate_paging=simulate_paging,
        )
        self.wifi = WifiInterface(kernel, self.rail, wifi_config, name=f"{name}.wifi", trace=trace)
        self.wifi.on_connectivity.append(self._on_wifi_connectivity)

        self.alive = True
        self.reboot_count = 0
        self._wifi_desired = False
        #: When True the phone never associates with Wi-Fi (no *known*
        #: networks in range — e.g. abroad).  Scanning still works; only
        #: internet-over-Wi-Fi is affected.
        self.wifi_association_suppressed = False
        self.on_interface_change: List[Callable[[Optional[str]], None]] = []
        self.on_shutdown: List[Callable[[], None]] = []
        self.on_boot: List[Callable[[], None]] = []
        self._last_interface = self.active_interface()

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def active_interface(self) -> Optional[str]:
        """The interface data would use right now (Wi-Fi preferred)."""
        if not self.alive:
            return None
        if self.wifi.available:
            return INTERFACE_WIFI
        if self.modem.available:
            return INTERFACE_CELLULAR
        return None

    def _on_wifi_connectivity(self, _connected: bool) -> None:
        self._interface_changed()

    def _interface_changed(self) -> None:
        current = self.active_interface()
        if current == self._last_interface:
            return
        self._last_interface = current
        if self.trace is not None:
            self.trace.record(self.name, "interface_change", interface=current)
        # Interface changes are pushed to apps by the OS, waking the CPU.
        if self.alive:
            self.cpu.wake("connectivity")
        for listener in list(self.on_interface_change):
            listener(current)

    def set_cell_coverage(self, coverage: bool) -> None:
        self.modem.set_coverage(coverage)
        self._interface_changed()

    def set_data_enabled(self, enabled: bool) -> None:
        self.modem.set_data_enabled(enabled)
        self._interface_changed()

    def set_wifi_connected(self, connected: bool) -> None:
        self._wifi_desired = connected
        if self.alive:
            self.wifi.set_connected(connected and not self.wifi_association_suppressed)
        # wifi.on_connectivity already routes to _interface_changed().

    def suppress_wifi_association(self, suppressed: bool) -> None:
        """No known Wi-Fi networks available (user 2a abroad)."""
        self.wifi_association_suppressed = suppressed
        self.set_wifi_connected(self._wifi_desired)
        self._interface_changed()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transfer(
        self,
        tx_bytes: int = 0,
        rx_bytes: int = 0,
        duration_hint_ms: float = 0.0,
        on_complete: Optional[Callable[[bool], None]] = None,
        label: str = "",
    ):
        """Send/receive over the active interface (Wi-Fi preferred)."""
        interface = self.active_interface()
        if interface == INTERFACE_WIFI:
            return self.wifi.transfer(tx_bytes, rx_bytes, duration_hint_ms, on_complete, label)
        if interface == INTERFACE_CELLULAR:
            return self.modem.transfer(tx_bytes, rx_bytes, duration_hint_ms, on_complete, label)
        raise PhoneOffline(f"{self.name}: no active interface")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reboot(self, downtime_ms: float = 45 * SECOND) -> None:
        """Power-cycle the device (loses all volatile state up the stack)."""
        if not self.alive:
            return
        self.alive = False
        self.reboot_count += 1
        if self.trace is not None:
            self.trace.record(self.name, "shutdown")
        for listener in list(self.on_shutdown):
            listener()
        self.modem.power_off()
        self.wifi.set_connected(False)
        self._interface_changed()
        self.kernel.schedule(downtime_ms, self._boot)

    def _boot(self) -> None:
        self.alive = True
        if self.trace is not None:
            self.trace.record(self.name, "boot")
        self.cpu.wake("boot")
        self.modem.power_on()
        self.wifi.set_connected(self._wifi_desired and not self.wifi_association_suppressed)
        self._interface_changed()
        for listener in list(self.on_boot):
            listener()

    @property
    def energy_joules(self) -> float:
        """Total energy drawn from the battery so far."""
        return self.rail.energy_joules
