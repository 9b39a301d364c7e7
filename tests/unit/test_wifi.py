"""Unit tests for the Wi-Fi interface model."""

import pytest

from repro.device.power import PowerRail
from repro.device.wifi import WIFI, WifiInterface, WifiUnavailable
from repro.sim import Kernel


def make_wifi(**kwargs):
    kernel = Kernel()
    rail = PowerRail(kernel)
    wifi = WifiInterface(kernel, rail, **kwargs)
    return kernel, rail, wifi


def test_transfer_requires_connection():
    kernel, _, wifi = make_wifi()
    with pytest.raises(WifiUnavailable):
        wifi.transfer(tx_bytes=10)
    wifi.set_connected(True)
    done = []
    wifi.transfer(tx_bytes=10, on_complete=done.append)
    kernel.run()
    assert done == [True]


def test_transfer_updates_counters_and_power():
    kernel, rail, wifi = make_wifi()
    wifi.set_connected(True)
    wifi.transfer(tx_bytes=1000, rx_bytes=2000)
    kernel.run_until(1.0)
    assert rail.draw_of(wifi.name) == pytest.approx(WIFI.active_w)
    kernel.run()
    assert wifi.total_bytes == 3000
    assert rail.draw_of(wifi.name) == pytest.approx(WIFI.idle_connected_w)


def test_disconnect_fails_queued_transfers():
    kernel, _, wifi = make_wifi()
    wifi.set_connected(True)
    results = []
    wifi.transfer(tx_bytes=10, duration_hint_ms=500.0, on_complete=results.append)
    wifi.transfer(tx_bytes=10, on_complete=results.append)
    kernel.run_until(100.0)
    wifi.set_connected(False)
    kernel.run()
    # In-flight job still completes (bytes already in the air model);
    # the queued one fails.
    assert False in results


def test_connectivity_listeners():
    _, _, wifi = make_wifi()
    seen = []
    wifi.on_connectivity.append(seen.append)
    wifi.set_connected(True)
    wifi.set_connected(True)  # no duplicate notification
    wifi.set_connected(False)
    assert seen == [True, False]


def test_scan_returns_environment_readings():
    kernel, rail, wifi = make_wifi()
    wifi.scan_source = lambda: ["ap1", "ap2"]
    got = []
    assert wifi.scan(got.append)
    kernel.run_until(1.0)
    assert rail.draw_of(wifi.name) == pytest.approx(WIFI.scan_w)
    kernel.run_until(WIFI.scan_duration_ms + 1.0)
    assert got == [["ap1", "ap2"]]
    assert wifi.scan_count == 1


def test_concurrent_scan_rejected():
    kernel, _, wifi = make_wifi()
    wifi.scan_source = lambda: []
    assert wifi.scan(lambda r: None)
    assert not wifi.scan(lambda r: None)
    kernel.run()
    assert wifi.scan(lambda r: None)


def test_scan_without_source_returns_empty():
    kernel, _, wifi = make_wifi()
    got = []
    wifi.scan(got.append)
    kernel.run()
    assert got == [[]]
