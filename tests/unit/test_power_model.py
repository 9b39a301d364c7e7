"""Per-script joules measured on the rail by leaving each script out
(the paper's Section 6 future work)."""

import dataclasses

import pytest

from repro.apps import battery_monitor, localization
from repro.core.middleware import PogoSimulation
from repro.core.power_model import joules_table, script_joules

HOURS = 1


def run(experiments):
    sim = PogoSimulation(seed=31)
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    for experiment in experiments:
        collector.node.deploy(experiment, [device.jid])
    sim.run(hours=HOURS)
    return device


def experiments():
    return [localization.build_experiment(), battery_monitor.build_experiment()]


def components(device):
    rail = device.phone.rail
    return {c.removeprefix(f"{device.phone.name}."): rail.energy_of(c) for c in rail.components}


@pytest.fixture(scope="module")
def measured():
    rows, total = script_joules(run, experiments())
    return dict(rows), rows, total


def test_rows_cover_every_deployed_script(measured):
    by_label, rows, _ = measured
    assert set(by_label) == {
        "localization/scan",
        "localization/clustering",
        "localization/collect",
        "battery-monitor/collect",
        "(shared)",
        "(no scripts)",
    }
    assert [label for label, _ in rows[-2:]] == ["(shared)", "(no scripts)"]
    assert set(by_label["(no scripts)"]) == {"cpu", "modem", "wifi", "platform"}
    assert all(set(joules) == set(by_label["(no scripts)"]) for joules in by_label.values())


def test_parts_add_up_to_the_rail_total(measured):
    _, rows, total = measured
    assert total == run(experiments()).phone.energy_joules
    parts = sum(sum(joules.values()) for _, joules in rows)
    assert parts == pytest.approx(total, rel=1e-9, abs=0.0)


def test_a_no_op_collector_script_costs_exactly_nothing():
    monitor = battery_monitor.build_experiment()
    monitor = dataclasses.replace(
        monitor, collector_scripts={**monitor.collector_scripts, "noop": "x = 1\n"}
    )
    rows, _ = script_joules(run, [localization.build_experiment(), monitor])
    noop = dict(rows)["battery-monitor/noop"]
    assert noop and all(joules == 0.0 for joules in noop.values())


def test_a_row_is_the_difference_of_two_hand_built_runs(measured):
    by_label, _, _ = measured
    scan_left_out = localization.build_experiment()
    del scan_left_out.device_scripts["scan"]
    with_scan = components(run(experiments()))
    without_scan = components(run([scan_left_out, battery_monitor.build_experiment()]))
    assert by_label["localization/scan"] == {
        c: with_scan[c] - without_scan.get(c, 0.0) for c in with_scan
    }
    # An experiment left with no script is not deployed at all.
    with_monitor = components(run(experiments()))
    without_monitor = components(run([localization.build_experiment()]))
    assert by_label["battery-monitor/collect"] == {
        c: with_monitor[c] - without_monitor[c] for c in with_monitor
    }


def test_heavy_script_dominates_light_one(measured):
    _, rows, _ = measured
    assert rows[0][0] == "localization/scan"
    assert sum(rows[0][1].values()) > 10 * sum(dict(rows)["localization/clustering"].values())


def test_scan_script_pays_for_wifi_scanning(measured):
    by_label, _, _ = measured
    scan = by_label["localization/scan"]
    # A scan a minute: the Wi-Fi scans and the CPU they hold awake.
    assert scan["wifi"] > 30.0 and scan["cpu"] > 0.0
    # Clustering scans nothing; it only adds the uplink of its results.
    clustering = by_label["localization/clustering"]
    assert clustering["wifi"] < 1.0 and clustering["cpu"] == 0.0


def test_remote_subscription_attributed_to_collector(measured):
    # The battery monitor has only a collector script; the device-side
    # sampling and uplink its remote subscription causes are its joules.
    by_label, _, _ = measured
    assert sum(by_label["battery-monitor/collect"].values()) > 0.0


def test_two_calls_return_equal_rows(measured):
    _, rows, total = measured
    assert script_joules(run, experiments()) == (rows, total)


def test_report_renders(measured):
    _, rows, total = measured
    text = joules_table(rows, total)
    assert text.splitlines()[0].split() == [
        "script", "cpu", "J", "modem", "J", "platform", "J", "wifi", "J", "total", "J",
    ]
    for label, _ in rows:
        assert label in text
    assert text.splitlines()[-1].split() == ["rail", "total", f"{total:.2f}"]
