"""Unit tests for the battery model."""

import pytest

from repro.device.battery import Battery, BatteryConfig
from repro.device.power import PowerRail
from repro.sim import Kernel


def make_battery(capacity_j=100.0):
    kernel = Kernel()
    rail = PowerRail(kernel)
    battery = Battery(kernel, rail, BatteryConfig(capacity_j=capacity_j))
    return kernel, rail, battery


def test_level_drains_with_energy():
    kernel, rail, battery = make_battery(capacity_j=100.0)
    rail.set_draw("load", 1.0)  # 1 W
    kernel.run_until(50_000.0)  # 50 s -> 50 J
    assert battery.level == pytest.approx(0.5)
    assert battery.drained_joules == pytest.approx(50.0)


def test_level_clamped_at_zero():
    kernel, rail, battery = make_battery(capacity_j=10.0)
    rail.set_draw("load", 1.0)
    kernel.run_until(60_000.0)
    assert battery.level == 0.0


def test_recharge_restores_level():
    kernel, rail, battery = make_battery(capacity_j=100.0)
    rail.set_draw("load", 1.0)
    kernel.run_until(80_000.0)
    battery.recharge(1.0)
    assert battery.level == pytest.approx(1.0)
    kernel.run_until(90_000.0)
    assert battery.level == pytest.approx(0.9)


def test_invalid_levels_rejected():
    kernel = Kernel()
    rail = PowerRail(kernel)
    battery = Battery(kernel, rail)
    assert battery.level == 1.0  # a phone starts fully charged
    with pytest.raises(ValueError):
        battery.recharge(1.5)
    with pytest.raises(ValueError):
        battery.recharge(-0.1)


def test_voltage_decreases_with_discharge():
    kernel, rail, battery = make_battery(capacity_j=100.0)
    v_full = battery.open_circuit_voltage()
    rail.set_draw("load", 1.0)
    kernel.run_until(70_000.0)
    v_low = battery.open_circuit_voltage()
    assert v_full == pytest.approx(4.20)
    assert v_low < v_full
    assert v_low >= 3.40


def test_voltage_sags_under_load():
    kernel, rail, battery = make_battery(capacity_j=10_000.0)
    unloaded = battery.voltage()
    rail.set_draw("load", 2.0)
    loaded = battery.voltage()
    assert loaded < unloaded


def test_reading_shape():
    _, _, battery = make_battery()
    reading = battery.reading()
    assert set(reading) == {"voltage", "level", "drained_j"}
    assert reading["level"] == 1.0
