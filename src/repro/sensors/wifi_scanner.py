"""The Wi-Fi scanning sensor (publishes on ``wifi-scan``).

The workhorse of the localization application: ``subscribe('wifi-scan',
handleScan, {interval: 60 * 1000})`` requests one scan per minute.  Each
scan holds a wake lock for its 1–2 second duration (Section 4.5's
motivating example: without the lock the completion callback would never
arrive), drives the Wi-Fi radio's scan power state, and publishes::

    {"timestamp": <ms>, "aps": [{"bssid": ..., "ssid": ..., "rssi": <dBm>}, ...]}

The actual readings come from the world model via
``phone.wifi.scan_source``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..sim.kernel import MINUTE
from .base import Sensor

WAKE_LOCK_TAG = "wifi-scan"


class WifiScanSensor(Sensor):
    """Scans for access points on demand."""

    channel = "wifi-scan"
    default_interval_ms = 1 * MINUTE

    __slots__ = ("completed_scans", "failed_scans")

    def __init__(self, phone) -> None:
        super().__init__(phone)
        self.completed_scans = 0
        self.failed_scans = 0

    def sample(self) -> None:
        if not self.phone.alive:
            return
        self.phone.cpu.acquire_wake_lock(WAKE_LOCK_TAG)
        started = self.phone.wifi.scan(self._scan_done)
        if not started:
            self.failed_scans += 1
            self.phone.cpu.release_wake_lock(WAKE_LOCK_TAG)

    def _scan_done(self, readings: List[Any]) -> None:
        self.completed_scans += 1
        try:
            aps = [self._reading_to_dict(r) for r in readings]
            self.publish({"aps": aps})
        finally:
            self.phone.cpu.release_wake_lock(WAKE_LOCK_TAG)

    @staticmethod
    def _reading_to_dict(reading: Any) -> Dict[str, Any]:
        if isinstance(reading, dict):
            return reading
        return reading.to_message()
