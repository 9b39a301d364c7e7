"""Simulated phone hardware: CPU, battery, radios, power, background apps."""

from .power import PowerMeter, PowerRail
from .radio import KPN, Modem, RadioUnavailable
from .wifi import WifiUnavailable
from .apps import ChattyApp, ChattyAppConfig, EmailApp
from .phone import INTERFACE_CELLULAR, INTERFACE_WIFI, Phone, PhoneOffline

__all__ = [
    "PowerMeter",
    "PowerRail",
    "KPN",
    "Modem",
    "RadioUnavailable",
    "WifiUnavailable",
    "ChattyApp",
    "ChattyAppConfig",
    "EmailApp",
    "INTERFACE_CELLULAR",
    "INTERFACE_WIFI",
    "Phone",
    "PhoneOffline",
]
