"""Integration: AnonyTL tasks compiled and deployed on Pogo.

The paper's Section 5.1 comparison, executed: Listing 1's RogueFinder
task runs against the same simulated world as the handwritten Listing 2
script — and exhibits AnonySense's semantics (reports gated by the
polygon, but sensors never duty-cycled).
"""

import pytest

from repro.anonytl import compile_task, deploy_task, parse_task
from repro.core.middleware import PogoSimulation
from repro.sim import HOUR, MINUTE
from repro.world.geometry import Point, to_latlon


def office_task(device, task_id=25043, expires=None, accept=""):
    office = device.user_world.places["office"][0]
    vertices = [
        to_latlon(office.center.offset(dx, dy))
        for dx, dy in ((-150, -150), (150, -150), (150, 150), (-150, 150))
    ]
    polygon = " ".join(f"(Point {lon} {lat})" for lat, lon in vertices)
    expires_form = f"(Expires {expires})" if expires is not None else ""
    return (
        f"(Task {task_id}) {expires_form}\n"
        f"{accept}\n"
        f"(Report (location SSIDs) (Every 1 Minute)\n"
        f"  (In location (Polygon {polygon})))"
    )


def test_task_reports_only_inside_polygon(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    task = parse_task(office_task(device))
    context = collector.node.deploy(compile_task(task), [device.jid])

    sim.run(hours=3)  # 3 AM: at home
    reports = context.scripts["collect"].namespace["reports"]
    assert reports == []
    # AnonySense semantics: the Wi-Fi sensor is *on* anyway.
    assert device.node.sensor_manager.sensors["wifi-scan"].enabled

    sim.run(hours=9)  # noon: in the office
    reports = context.scripts["collect"].namespace["reports"]
    assert len(reports) > 30
    assert reports[0]["task"] == task.task_id
    assert reports[0]["SSIDs"]
    assert "lat" in reports[0]["location"]

    # No script errors on the device.
    dctx = device.node.contexts[task.experiment_id]
    assert dctx.scripts["task"].errors == []


def test_accept_predicate_selects_devices(sim):
    collector = sim.add_collector("alice")
    professor = sim.add_device(with_email_app=True)
    student = sim.add_device(with_email_app=True)
    sim.admin.devices[professor.jid].attributes["carrier"] = "professor"
    sim.admin.devices[student.jid].attributes["carrier"] = "student"
    sim.start()

    task = parse_task(
        "(Task 7)\n(Accept (= @carrier 'professor'))\n"
        "(Report (SSIDs) (Every 1 Minute))"
    )
    context, accepted = deploy_task(collector.node, sim.admin, task)
    assert accepted == [professor.jid]
    sim.run(hours=0.5)
    assert task.experiment_id in professor.node.contexts
    assert task.experiment_id not in student.node.contexts


def test_expiry_tears_task_down(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    task = parse_task(
        "(Task 8) (Expires 3600)\n(Report (SSIDs) (Every 1 Minute))"
    )
    context, accepted = deploy_task(collector.node, sim.admin, task)
    sim.run(hours=0.5)
    assert task.experiment_id in device.node.contexts
    sensor = device.node.sensor_manager.sensors["wifi-scan"]
    assert sensor.enabled
    sim.run(hours=1)  # expiry at t = 1 h
    assert task.experiment_id not in collector.node.contexts
    sim.run(hours=0.2)
    assert task.experiment_id not in device.node.contexts
    assert not sensor.enabled


def test_unconditional_report_streams_everywhere(sim):
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    task = parse_task("(Task 11)\n(Report (location) (Every 5 Minutes))")
    context = collector.node.deploy(compile_task(task), [device.jid])
    sim.run(hours=2)
    reports = context.scripts["collect"].namespace["reports"]
    assert len(reports) >= 20
    assert all("SSIDs" not in r for r in reports)
