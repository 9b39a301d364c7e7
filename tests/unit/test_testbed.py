"""Unit tests for testbed organization (Section 3.1)."""

import pytest

from repro.core.testbed import AssignmentError, TestbedAdmin
from repro.net.xmpp import XmppServer
from repro.sim import Kernel


def make_admin(**kwargs):
    server = XmppServer(Kernel())
    return server, TestbedAdmin(server, **kwargs)


def test_enrollment_registers_accounts():
    server, admin = make_admin()
    device = admin.enroll_device()
    researcher = admin.enroll_researcher("alice")
    assert server.registered(device)
    assert server.registered(researcher)
    assert list(admin.devices) == [device]


def test_device_jids_are_pseudonymous():
    """Double-blind: a device JID carries no owner identity."""
    _, admin = make_admin()
    jid = admin.enroll_device()
    assert jid.startswith("device-")
    assert "@pogo" in jid


def test_assignment_creates_roster_pair():
    server, admin = make_admin()
    device = admin.enroll_device()
    researcher = admin.enroll_researcher("alice")
    admin.assign(researcher, [device])
    assert device in server.roster(researcher)
    assert researcher in server.roster(device)


def test_request_devices_prefers_least_loaded():
    _, admin = make_admin()
    devices = [admin.enroll_device() for _ in range(4)]
    alice = admin.enroll_researcher("alice")
    bob = admin.enroll_researcher("bob")
    first = admin.request_devices(alice, 2)
    second = admin.request_devices(bob, 2)
    # Bob gets the two devices Alice is not using.
    assert set(first).isdisjoint(second)


def test_request_devices_respects_capabilities():
    _, admin = make_admin()
    gps_device = admin.enroll_device(capabilities={"gps", "wifi"})
    admin.enroll_device(capabilities={"wifi"})
    alice = admin.enroll_researcher("alice")
    chosen = admin.request_devices(alice, 1, required_capabilities={"gps"})
    assert chosen == [gps_device]


def test_request_too_many_devices_fails():
    _, admin = make_admin()
    admin.enroll_device()
    alice = admin.enroll_researcher("alice")
    with pytest.raises(AssignmentError):
        admin.request_devices(alice, 2)


def test_devices_are_shared_up_to_limit():
    _, admin = make_admin(max_experiments_per_device=2)
    device = admin.enroll_device()
    a = admin.enroll_researcher("a")
    b = admin.enroll_researcher("b")
    c = admin.enroll_researcher("c")
    admin.assign(a, [device])
    admin.assign(b, [device])
    with pytest.raises(AssignmentError):
        admin.assign(c, [device])


def test_unknown_ids_raise():
    _, admin = make_admin()
    alice = admin.enroll_researcher("alice")
    with pytest.raises(AssignmentError):
        admin.assign(alice, ["ghost@pogo"])
    with pytest.raises(AssignmentError):
        admin.assign("ghost@pogo", [])


def test_region_filter_in_request_devices():
    _, admin = make_admin()
    delft = admin.enroll_device(region="delft")
    admin.enroll_device(region="amsterdam")
    alice = admin.enroll_researcher("alice")
    chosen = admin.request_devices(alice, 1, region="delft")
    assert chosen == [delft]
    with pytest.raises(AssignmentError):
        admin.request_devices(alice, 1, region="rotterdam")


def test_devices_matching_predicate():
    _, admin = make_admin()
    prof = admin.enroll_device(attributes={"carrier": "professor"})
    admin.enroll_device(attributes={"carrier": "student"})
    matched = admin.devices_matching(lambda attrs: attrs.get("carrier") == "professor")
    assert matched == [prof]
