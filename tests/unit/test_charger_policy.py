"""Unit tests for charging state and the charger-delay policy."""

import pytest

from repro.core.scheduler import PogoScheduler
from repro.core.tailsync import CHARGER_DRAIN_MS, ChargerPolicy
from repro.device import Phone
from repro.sim import DAY, HOUR, Kernel, RandomStreams
from repro.world.environment import ChargingRoutine


class FakeController:
    def __init__(self, kernel, phone):
        self.kernel = kernel
        self.phone = phone
        self.scheduler = PogoScheduler(kernel, phone.cpu)
        self.flushes = []

    def flush(self, reason):
        self.flushes.append((self.kernel.now, reason))


def make_setup():
    kernel = Kernel()
    phone = Phone(kernel)
    controller = FakeController(kernel, phone)
    return kernel, phone, controller


class TestBatteryCharging:
    def test_charging_events_fire_once_per_change(self):
        kernel, phone, _ = make_setup()
        events = []
        phone.battery.on_charging_changed.append(events.append)
        phone.battery.set_charging(True)
        phone.battery.set_charging(True)
        phone.battery.set_charging(False)
        assert events == [True, False]

    def test_unplug_tops_up_charge(self):
        kernel, phone, _ = make_setup()
        phone.rail.set_draw("load", 2.0)
        kernel.run_until(1 * HOUR)
        assert phone.battery.level < 0.9
        phone.battery.set_charging(True)
        phone.battery.set_charging(False)
        assert phone.battery.level == pytest.approx(1.0)


class TestChargerPolicy:
    def test_flushes_on_plug_in(self):
        kernel, phone, controller = make_setup()
        policy = ChargerPolicy()
        policy.bind(controller)
        policy.start()
        kernel.run_until(1 * HOUR)
        assert controller.flushes == []
        phone.battery.set_charging(True)
        assert controller.flushes[-1][1] == "charger-plugged"

    def test_drains_periodically_while_plugged(self):
        kernel, phone, controller = make_setup()
        policy = ChargerPolicy()
        policy.bind(controller)
        policy.start()
        phone.battery.set_charging(True)
        kernel.run_until(2 * HOUR)
        drains = [r for _, r in controller.flushes if r == "charger-drain"]
        assert len(drains) == 2 * HOUR // CHARGER_DRAIN_MS == 12
        phone.battery.set_charging(False)
        count = len(controller.flushes)
        kernel.run_until(6 * HOUR)
        assert len(controller.flushes) == count  # stops when unplugged

    def test_reconnect_does_not_flush_unless_charging(self):
        kernel, phone, controller = make_setup()
        policy = ChargerPolicy()
        policy.bind(controller)
        policy.start()
        policy.on_connected()
        assert controller.flushes == []
        phone.battery.set_charging(True)
        controller.flushes.clear()
        policy.on_connected()
        assert controller.flushes[-1][1] == "connected-charging"

    def test_stop_detaches_listener(self):
        kernel, phone, controller = make_setup()
        policy = ChargerPolicy()
        policy.bind(controller)
        policy.start()
        policy.stop()
        phone.battery.set_charging(True)
        assert controller.flushes == []


class TestChargingRoutine:
    def test_nightly_cycle(self):
        kernel = Kernel()
        phone = Phone(kernel)
        rng = RandomStreams(9).stream("charging")
        ChargingRoutine(kernel, phone, rng, days=3).start()
        transitions = []
        phone.battery.on_charging_changed.append(
            lambda charging: transitions.append((kernel.now / HOUR, charging))
        )
        kernel.run_until(3 * DAY)
        plugs = [t for t, c in transitions if c]
        unplugs = [t for t, c in transitions if not c]
        assert len(plugs) == 3
        assert len(unplugs) >= 2
        # Plugged in during the late evening, unplugged in the morning.
        for t in plugs:
            assert 20.0 < t % 24 or t % 24 < 2.0
        for t in unplugs:
            assert 5.0 < t % 24 < 10.0
