"""Integration: tail sync against a realistic mix of background apps.

Section 4.7: "there are typically many applications already present on a
mobile phone that periodically trigger a 3G tail" — e-mail, instant
messaging, turn-based games.  With several apps generating irregular
traffic, Pogo's delivery latency drops (more piggyback opportunities)
while it still causes no radio sessions of its own.
"""

import pytest

from repro.apps import battery_monitor
from repro.core.middleware import PogoSimulation
from repro.device.apps import ChattyApp, ChattyAppConfig
from repro.sim import HOUR, MINUTE


def run_with_apps(app_mix, seed=17, hours=4):
    sim = PogoSimulation(seed=seed)
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app="email" in app_mix)
    if "im" in app_mix:
        device.apps.append(
            ChattyApp(
                device.phone,
                sim.streams.stream("im"),
                ChattyAppConfig(mean_interval_ms=8 * MINUTE),
            )
        )
    if "game" in app_mix:
        device.apps.append(
            ChattyApp(
                device.phone,
                sim.streams.stream("game"),
                ChattyAppConfig(mean_interval_ms=25 * MINUTE, rx_bytes=6_000),
            )
        )
    sim.start()
    sim.assign(collector, [device])
    context = collector.node.deploy(battery_monitor.build_experiment(), [device.jid])

    arrivals = []
    context.broker.subscribe(
        "battery",
        lambda msg: arrivals.append((sim.kernel.now, msg["timestamp"])),
        owner="local:probe",
    )
    sim.run(hours=hours)
    latencies = [(a - t) / MINUTE for a, t in arrivals]
    foreign_sessions = sum(
        getattr(app, "check_count", 0) + getattr(app, "exchange_count", 0)
        for app in device.apps
    )
    return {
        "device": device,
        "delivered": len(arrivals),
        "mean_latency_min": sum(latencies) / len(latencies) if latencies else None,
        "rampups": device.phone.modem.rampup_count,
        "foreign_sessions": foreign_sessions,
    }


def test_more_background_apps_means_lower_latency():
    email_only = run_with_apps({"email"})
    rich = run_with_apps({"email", "im", "game"})
    assert rich["delivered"] >= email_only["delivered"] - 10
    assert rich["mean_latency_min"] < email_only["mean_latency_min"]


def test_pogo_adds_no_rampups_even_with_chatty_mix():
    rich = run_with_apps({"email", "im", "game"})
    # Every ramp-up is attributable to an app session or the initial
    # handshake — none to Pogo's own flushes.
    assert rich["rampups"] <= rich["foreign_sessions"] + 3


def test_im_only_mix_still_delivers():
    im_only = run_with_apps({"im"})
    assert im_only["delivered"] > 150
    assert im_only["mean_latency_min"] < 15.0
