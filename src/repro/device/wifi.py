"""Wi-Fi interface model: data transfers and access-point scans.

Two distinct roles, matching the paper:

* **Data.** One participant (user 7) had no mobile Internet and offloaded
  over Wi-Fi; phones also switch to Wi-Fi when in range of a known access
  point.  Wi-Fi transfers have no multi-second RRC tail, so they are
  modelled as a simple active-power burst.
* **Scanning.** The localization application's ``scan`` script requests an
  access-point scan every minute.  A scan takes 1–2 seconds ("If the CPU
  is not kept awake during the 1-2 seconds the process generally
  requires, the application will not be notified upon scan completion",
  Section 4.5) — callers must hold a wake lock for the result to arrive,
  which Pogo's scheduler does on their behalf.

The actual scan *contents* come from the world model: the environment
installs a ``scan_source`` callback returning the visible access points
at the phone's current location.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

from ..sim.kernel import Kernel


class WifiUnavailable(Exception):
    """Raised when a data transfer is requested without a connection."""


@dataclass(frozen=True)
class WifiConfig:
    """Power and timing parameters for the Wi-Fi radio."""

    idle_connected_w: float = 0.004
    active_w: float = 0.70
    scan_w: float = 0.45
    scan_duration_ms: float = 1500.0
    uplink_bytes_per_s: float = 500_000.0
    downlink_bytes_per_s: float = 1_000_000.0
    min_transfer_ms: float = 80.0


#: The one Wi-Fi chipset every phone carries.
WIFI = WifiConfig()


@dataclass(slots=True)
class WifiJob:
    tx_bytes: int = 0
    rx_bytes: int = 0
    duration_hint_ms: float = 0.0
    on_complete: Optional[Callable[[bool], None]] = None
    label: str = ""


class WifiInterface:
    """Wi-Fi radio with scanning and (tail-free) data transfer."""

    __slots__ = (
        "_kernel", "_rail", "name", "connected",
        "bytes_tx", "bytes_rx", "scan_count", "scan_source", "on_connectivity",
        "_queue", "_busy", "_scan_busy",
    )

    def __init__(self, kernel: Kernel, rail, name: str = "wifi") -> None:
        self._kernel = kernel
        self._rail = rail
        self.name = name

        self.connected = False
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.scan_count = 0

        #: Callback installed by the world model; returns the list of
        #: access-point readings visible at the phone's location.
        self.scan_source: Optional[Callable[[], List[Any]]] = None
        self.on_connectivity: List[Callable[[bool], None]] = []

        self._queue: Deque[WifiJob] = deque()
        self._busy = False
        self._scan_busy = False
        self._apply_power()

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        return self.connected

    def set_connected(self, connected: bool) -> None:
        """Association with a known AP appears/disappears (world-driven)."""
        if connected == self.connected:
            return
        self.connected = connected
        if not connected:
            self._fail_all()
        self._apply_power()
        for listener in list(self.on_connectivity):
            listener(connected)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def transfer(
        self,
        tx_bytes: int = 0,
        rx_bytes: int = 0,
        duration_hint_ms: float = 0.0,
        on_complete: Optional[Callable[[bool], None]] = None,
        label: str = "",
    ) -> WifiJob:
        if not self.available:
            raise WifiUnavailable(f"{self.name}: not connected")
        job = WifiJob(tx_bytes, rx_bytes, duration_hint_ms, on_complete, label)
        self._queue.append(job)
        self._pump()
        return job

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        job = self._queue.popleft()
        self._busy = True
        self.bytes_tx += job.tx_bytes
        self.bytes_rx += job.rx_bytes
        duration = max(
            WIFI.min_transfer_ms,
            job.duration_hint_ms,
            (
                job.tx_bytes / WIFI.uplink_bytes_per_s
                + job.rx_bytes / WIFI.downlink_bytes_per_s
            )
            * 1000.0,
        )
        self._apply_power()
        self._kernel.schedule(duration, self._job_done, job)

    def _job_done(self, job: WifiJob) -> None:
        self._busy = False
        self._apply_power()
        if job.on_complete is not None:
            job.on_complete(True)
        self._pump()

    def _fail_all(self) -> None:
        jobs = list(self._queue)
        self._queue.clear()
        for job in jobs:
            if job.on_complete is not None:
                job.on_complete(False)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(self, on_complete: Callable[[List[Any]], None]) -> bool:
        """Start an access-point scan; results delivered asynchronously.

        Returns ``False`` if a scan is already in flight (results will be
        shared by the earlier request in real Android; here the caller
        simply retries on its next interval).
        """
        if self._scan_busy:
            return False
        self._scan_busy = True
        self.scan_count += 1
        self._apply_power()
        self._kernel.schedule(WIFI.scan_duration_ms, self._scan_done, on_complete)
        return True

    def _scan_done(self, on_complete: Callable[[List[Any]], None]) -> None:
        self._scan_busy = False
        self._apply_power()
        readings = self.scan_source() if self.scan_source is not None else []
        on_complete(readings)

    # ------------------------------------------------------------------
    def _apply_power(self) -> None:
        if self._busy:
            watts = WIFI.active_w
        elif self._scan_busy:
            watts = WIFI.scan_w
        else:
            watts = WIFI.idle_connected_w if self.connected else 0.001
        self._rail.set_draw(self.name, watts)

    @property
    def total_bytes(self) -> int:
        return self.bytes_tx + self.bytes_rx
