"""Unit tests for the composed phone: interfaces, lifecycle, apps."""

import pytest

from repro.device import (
    INTERFACE_CELLULAR,
    INTERFACE_WIFI,
    ChattyApp,
    ChattyAppConfig,
    EmailApp,
    Phone,
    PhoneOffline,
)
from repro.sim import Kernel, MINUTE, RandomStreams


def test_wifi_preferred_over_cellular():
    kernel = Kernel()
    phone = Phone(kernel)
    assert phone.active_interface() == INTERFACE_CELLULAR
    phone.set_wifi_connected(True)
    assert phone.active_interface() == INTERFACE_WIFI
    phone.set_wifi_connected(False)
    assert phone.active_interface() == INTERFACE_CELLULAR


def test_no_interface_when_all_down():
    kernel = Kernel()
    phone = Phone(kernel)
    phone.set_cell_coverage(False)
    assert phone.active_interface() is None
    with pytest.raises(PhoneOffline):
        phone.transfer(tx_bytes=10)


def test_interface_change_listeners_fire_once_per_change():
    kernel = Kernel()
    phone = Phone(kernel)
    changes = []
    phone.on_interface_change.append(changes.append)
    phone.set_wifi_connected(True)
    phone.set_wifi_connected(True)
    phone.set_cell_coverage(False)  # wifi still preferred: no change
    phone.set_wifi_connected(False)  # now nothing
    assert changes == [INTERFACE_WIFI, None]


def test_transfer_routes_to_active_interface():
    kernel = Kernel()
    phone = Phone(kernel)
    phone.transfer(tx_bytes=100)
    kernel.run()
    assert phone.modem.bytes_tx == 100
    phone.set_wifi_connected(True)
    phone.transfer(tx_bytes=200)
    kernel.run()
    assert phone.wifi.bytes_tx == 200
    assert phone.modem.bytes_tx == 100


def test_reboot_cycle_fires_listeners_and_restores_radios():
    kernel = Kernel()
    phone = Phone(kernel)
    phone.set_wifi_connected(True)
    events = []
    phone.on_shutdown.append(lambda: events.append("down"))
    phone.on_boot.append(lambda: events.append("up"))
    phone.reboot(downtime_ms=5000.0)
    assert not phone.alive
    assert phone.active_interface() is None
    kernel.run_until(10_000.0)
    assert phone.alive
    assert events == ["down", "up"]
    # Wi-Fi association desired before the reboot is restored.
    assert phone.active_interface() == INTERFACE_WIFI
    assert phone.reboot_count == 1


def test_reboot_while_dead_is_noop():
    kernel = Kernel()
    phone = Phone(kernel)
    phone.reboot(downtime_ms=5000.0)
    phone.reboot(downtime_ms=5000.0)
    assert phone.reboot_count == 1


def test_email_app_checks_on_interval():
    kernel = Kernel()
    phone = Phone(kernel)
    app = EmailApp(phone)
    app.start()
    kernel.run_until(31 * MINUTE)
    assert app.check_count == 6
    assert phone.modem.rampup_count == 6
    assert phone.cpu.wake_locks_held == 0  # all released


def test_email_app_survives_offline_checks():
    kernel = Kernel()
    phone = Phone(kernel)
    phone.set_cell_coverage(False)
    app = EmailApp(phone)
    app.start()
    kernel.run_until(16 * MINUTE)
    assert app.check_count == 0
    assert app.failed_checks == 3
    assert phone.cpu.wake_locks_held == 0


def test_chatty_app_generates_randomized_traffic():
    kernel = Kernel()
    phone = Phone(kernel)
    rng = RandomStreams(5).stream("im")
    app = ChattyApp(phone, rng, ChattyAppConfig(mean_interval_ms=2 * MINUTE))
    app.start()
    kernel.run_until(60 * MINUTE)
    assert app.exchange_count > 5
    assert phone.cpu.wake_locks_held == 0
    app.stop()


def test_energy_accounting_exposed():
    kernel = Kernel()
    phone = Phone(kernel)
    kernel.run_until(10_000.0)
    assert phone.energy_joules > 0.0
