"""Unit tests for the power rail and power meter."""

import pytest

from repro.device.power import PowerMeter, PowerRail
from repro.sim import Kernel


def test_energy_integrates_piecewise_constant_draw():
    kernel = Kernel()
    rail = PowerRail(kernel)
    rail.set_draw("cpu", 1.0)  # 1 W from t=0
    kernel.schedule(1000.0, rail.set_draw, "cpu", 0.0)  # off at 1 s
    kernel.run()
    kernel.run_until(5000.0)
    assert rail.energy_joules == pytest.approx(1.0)


def test_multiple_components_sum():
    kernel = Kernel()
    rail = PowerRail(kernel)
    rail.set_draw("a", 0.3)
    rail.set_draw("b", 0.7)
    assert rail.total_watts == pytest.approx(1.0)
    kernel.run_until(2000.0)
    assert rail.energy_joules == pytest.approx(2.0)
    assert rail.draw_of("a") == pytest.approx(0.3)
    assert rail.draw_of("missing") == 0.0


def test_overwriting_draw_replaces_not_adds():
    kernel = Kernel()
    rail = PowerRail(kernel)
    rail.set_draw("cpu", 0.5)
    rail.set_draw("cpu", 0.2)
    assert rail.total_watts == pytest.approx(0.2)


def test_negative_draw_rejected():
    rail = PowerRail(Kernel())
    with pytest.raises(ValueError):
        rail.set_draw("cpu", -0.1)


def test_reset_energy():
    kernel = Kernel()
    rail = PowerRail(kernel)
    rail.set_draw("cpu", 1.0)
    kernel.run_until(3000.0)
    drained = rail.reset_energy()
    assert drained == pytest.approx(3.0)
    assert rail.energy_joules == pytest.approx(0.0)
    kernel.run_until(4000.0)
    assert rail.energy_joules == pytest.approx(1.0)


def test_meter_sampling_approximates_exact_energy():
    kernel = Kernel()
    rail = PowerRail(kernel)
    meter = PowerMeter(kernel, rail, interval_ms=10.0)
    meter.start()
    rail.set_draw("cpu", 2.0)
    kernel.schedule(1000.0, rail.set_draw, "cpu", 0.0)
    kernel.run_until(2000.0)
    meter.stop()
    exact = rail.energy_joules
    sampled = meter.energy_joules()
    assert exact == pytest.approx(2.0)
    assert sampled == pytest.approx(exact, rel=0.05)


def test_meter_interval_validation_and_idempotent_start():
    kernel = Kernel()
    rail = PowerRail(kernel)
    with pytest.raises(ValueError):
        PowerMeter(kernel, rail, interval_ms=0.0)
    meter = PowerMeter(kernel, rail, interval_ms=5.0)
    meter.start()
    meter.start()
    kernel.run_until(100.0)
    meter.stop()
    count = len(meter.samples)
    kernel.run_until(200.0)
    assert len(meter.samples) == count  # stopped for real
