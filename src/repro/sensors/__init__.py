"""Device sensors: demand-driven, duty-cycled by subscription state."""

from .accelerometer import AccelerometerSensor
from .battery_sensor import BatterySensor
from .location import LocationSensor
from .wifi_scanner import WifiScanSensor

__all__ = [
    "AccelerometerSensor",
    "BatterySensor",
    "LocationSensor",
    "WifiScanSensor",
]
