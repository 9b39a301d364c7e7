"""Simulated phone hardware: CPU, battery, radios, power, background apps."""

from .battery import Battery, BatteryConfig
from .cpu import Alarm, Cpu, CpuConfig, MainsCpu, SleepFrozenTimer
from .power import PowerMeter, PowerRail
from .radio import (
    CARRIERS,
    DCH,
    FACH,
    IDLE,
    KPN,
    OFF,
    RAMP,
    T_MOBILE,
    VODAFONE,
    CarrierProfile,
    Modem,
    RadioUnavailable,
)
from .wifi import WifiConfig, WifiInterface, WifiUnavailable
from .apps import ChattyApp, ChattyAppConfig, EmailApp, EmailConfig
from .phone import INTERFACE_CELLULAR, INTERFACE_WIFI, Phone, PhoneOffline

__all__ = [
    "Battery",
    "BatteryConfig",
    "Alarm",
    "Cpu",
    "CpuConfig",
    "MainsCpu",
    "SleepFrozenTimer",
    "PowerMeter",
    "PowerRail",
    "CARRIERS",
    "DCH",
    "FACH",
    "IDLE",
    "KPN",
    "OFF",
    "RAMP",
    "T_MOBILE",
    "VODAFONE",
    "CarrierProfile",
    "Modem",
    "RadioUnavailable",
    "WifiConfig",
    "WifiInterface",
    "WifiUnavailable",
    "ChattyApp",
    "ChattyAppConfig",
    "EmailApp",
    "EmailConfig",
    "INTERFACE_CELLULAR",
    "INTERFACE_WIFI",
    "Phone",
    "PhoneOffline",
]
