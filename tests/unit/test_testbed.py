"""Unit tests for testbed organization (Section 3.1)."""

import pytest

from repro.core.testbed import MAX_EXPERIMENTS_PER_DEVICE, AssignmentError, TestbedAdmin
from repro.net.xmpp import XmppServer
from repro.sim import Kernel


def make_admin():
    server = XmppServer(Kernel())
    return server, TestbedAdmin(server)


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


def test_request_too_many_devices_fails():
    _, admin = make_admin()
    admin.enroll_device()
    alice = admin.enroll_researcher("alice")
    with pytest.raises(AssignmentError):
        admin.request_devices(alice, 2)


def test_devices_are_shared_up_to_limit():
    _, admin = make_admin()
    device = admin.enroll_device()
    for name in "abcd"[:MAX_EXPERIMENTS_PER_DEVICE]:
        admin.assign(admin.enroll_researcher(name), [device])
    with pytest.raises(AssignmentError):
        admin.assign(admin.enroll_researcher("e"), [device])
    assert len(admin.devices[device].assigned_to) == MAX_EXPERIMENTS_PER_DEVICE == 4


def test_unknown_ids_raise():
    _, admin = make_admin()
    alice = admin.enroll_researcher("alice")
    with pytest.raises(AssignmentError):
        admin.assign(alice, ["ghost@pogo"])
    with pytest.raises(AssignmentError):
        admin.assign("ghost@pogo", [])


def test_devices_matching_predicate():
    _, admin = make_admin()
    prof = admin.enroll_device()
    admin.devices[prof].attributes["carrier"] = "professor"
    admin.devices[admin.enroll_device()].attributes["carrier"] = "student"
    matched = admin.devices_matching(lambda attrs: attrs.get("carrier") == "professor")
    assert matched == [prof]
