"""Testbed organization: devices, researchers, and the administrator.

Section 3.1: "There are three types of stake holders in a Pogo testbed.
First, the *device owners* contribute computational and sensing resources
... The *researchers* run Pogo on their computers and consume these
resources by deploying experiments.  The *administrator* of the testbed
decides which devices are assigned to which researchers.  In a way the
administrator acts as a broker ... The connections between researchers
and device owners are double blind."

:class:`TestbedAdmin` manages the XMPP server's account and roster state:
assigning a device to a researcher is exactly adding a roster pair, and
the double-blind property holds because JIDs are opaque — the admin hands
out pseudonymous device identifiers, never owner identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..net.xmpp import XmppServer


class AssignmentError(Exception):
    """Raised for invalid pool operations (unknown ids, over-allocation)."""


@dataclass(slots=True)
class DeviceRecord:
    """What the administrator knows about a device (and nothing more).

    ``region`` supports the paper's second future-work item: "automate
    the assignment process between devices and researchers based on
    information such as device capabilities and geographical location".
    It is a coarse, owner-approved label (e.g. a city), never a precise
    position — the double-blind property stays intact.
    """

    jid: str
    capabilities: Set[str] = field(default_factory=set)
    assigned_to: Set[str] = field(default_factory=set)
    region: Optional[str] = None
    #: Free-form owner-approved metadata (e.g. ``carrier``): what
    #: AnonySense-style Accept predicates match against.
    attributes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ResearcherRecord:
    """A researcher account (the only side with personal information)."""

    jid: str
    name: str = ""
    devices: Set[str] = field(default_factory=set)


class TestbedAdmin:
    """The broker between device owners and researchers."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, server: XmppServer, max_experiments_per_device: int = 4) -> None:
        self.server = server
        self.max_experiments_per_device = max_experiments_per_device
        self.devices: Dict[str, DeviceRecord] = {}
        self.researchers: Dict[str, ResearcherRecord] = {}
        # Per-instance counter: a class-level counter would leak across
        # simulations in one process and break run-to-run determinism
        # (different JIDs seed different world RNG streams).
        self._device_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Enrollment (Section 3.3: one-click participation, no registration)
    # ------------------------------------------------------------------
    def enroll_device(
        self,
        capabilities: Optional[Set[str]] = None,
        region: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
        jid: Optional[str] = None,
    ) -> str:
        """A phone joins the pool; returns its pseudonymous JID.

        ``jid`` pins an explicit identifier — the fleet partitioner uses
        this to keep the *global* device numbering on every shard, so a
        partitioned run draws the same per-device random streams as the
        single-shard one.  Without it the per-admin counter assigns the
        next free ``device-N@pogo``.
        """
        if jid is None:
            jid = f"device-{next(self._device_ids)}@pogo"
            while self.server.registered(jid):
                jid = f"device-{next(self._device_ids)}@pogo"
        elif self.server.registered(jid) or jid in self.devices:
            raise AssignmentError(f"JID already enrolled: {jid}")
        self.server.register(jid)
        self.devices[jid] = DeviceRecord(
            jid, set(capabilities or ()), region=region, attributes=dict(attributes or {})
        )
        return jid

    def devices_matching(self, predicate) -> List[str]:
        """JIDs of devices whose attributes satisfy ``predicate``.

        ``predicate`` is any object with ``matches(attributes) -> bool``
        (e.g. an AnonyTL Accept predicate) or a plain callable.
        """
        check = predicate.matches if hasattr(predicate, "matches") else predicate
        return sorted(jid for jid, d in self.devices.items() if check(d.attributes))

    def set_device_region(self, jid: str, region: Optional[str]) -> None:
        """Owner-approved coarse location update."""
        self._device(jid).region = region

    def enroll_researcher(self, name: str) -> str:
        jid = f"{name}@pogo"
        self.server.register(jid)
        self.researchers[jid] = ResearcherRecord(jid, name=name)
        return jid

    def remove_device(self, jid: str) -> None:
        """A device owner leaves: all assignments are revoked."""
        record = self.devices.pop(jid, None)
        if record is None:
            return
        for researcher_jid in list(record.assigned_to):
            self.unassign(researcher_jid, [jid])

    # ------------------------------------------------------------------
    # Assignment (the administrator's brokering role)
    # ------------------------------------------------------------------
    def assign(self, researcher_jid: str, device_jids: List[str]) -> None:
        """Give a researcher access to specific devices."""
        researcher = self._researcher(researcher_jid)
        for device_jid in device_jids:
            device = self._device(device_jid)
            if len(device.assigned_to) >= self.max_experiments_per_device:
                raise AssignmentError(
                    f"{device_jid} already runs {len(device.assigned_to)} experiments"
                )
            device.assigned_to.add(researcher_jid)
            researcher.devices.add(device_jid)
            self.server.add_roster_pair(researcher_jid, device_jid)

    def unassign(self, researcher_jid: str, device_jids: List[str]) -> None:
        researcher = self._researcher(researcher_jid)
        for device_jid in device_jids:
            device = self.devices.get(device_jid)
            if device is not None:
                device.assigned_to.discard(researcher_jid)
            researcher.devices.discard(device_jid)
            self.server.remove_roster_pair(researcher_jid, device_jid)

    def request_devices(
        self,
        researcher_jid: str,
        count: int,
        required_capabilities: Optional[Set[str]] = None,
        region: Optional[str] = None,
    ) -> List[str]:
        """Assign up to ``count`` suitable devices from the shared pool.

        Devices are shared: "researchers share devices between them and
        multiple sensing applications run concurrently on each device"
        (Section 3.1) — so allocation prefers the least-loaded devices
        rather than exclusively reserving them.  With ``region`` set,
        only devices whose owners advertise that coarse location are
        eligible (future-work automation, Section 6).
        """
        required = required_capabilities or set()
        researcher = self._researcher(researcher_jid)
        candidates = [
            d
            for d in self.devices.values()
            if required <= d.capabilities
            and (region is None or d.region == region)
            and researcher_jid not in d.assigned_to
            and len(d.assigned_to) < self.max_experiments_per_device
        ]
        candidates.sort(key=lambda d: (len(d.assigned_to), d.jid))
        chosen = [d.jid for d in candidates[:count]]
        if len(chosen) < count:
            raise AssignmentError(
                f"only {len(chosen)} of {count} requested devices available"
            )
        self.assign(researcher_jid, chosen)
        return chosen

    # ------------------------------------------------------------------
    def _device(self, jid: str) -> DeviceRecord:
        if jid not in self.devices:
            raise AssignmentError(f"unknown device: {jid}")
        return self.devices[jid]

    def _researcher(self, jid: str) -> ResearcherRecord:
        if jid not in self.researchers:
            raise AssignmentError(f"unknown researcher: {jid}")
        return self.researchers[jid]

    def pool_size(self) -> int:
        return len(self.devices)

    def report(self) -> str:
        """The administrator's pool overview (the web-console analogue).

        Shows only what the admin legitimately sees: pseudonymous device
        JIDs with capabilities/region/load, and researcher names with
        their assignment counts — never owner identities.
        """
        lines = [f"device pool ({len(self.devices)} devices):"]
        for jid in sorted(self.devices):
            device = self.devices[jid]
            caps = ",".join(sorted(device.capabilities)) or "-"
            lines.append(
                f"  {jid:<18} region={device.region or '-':<10} "
                f"experiments={len(device.assigned_to)}/{self.max_experiments_per_device} "
                f"caps={caps}"
            )
        lines.append(f"researchers ({len(self.researchers)}):")
        for jid in sorted(self.researchers):
            researcher = self.researchers[jid]
            lines.append(
                f"  {researcher.name:<12} ({jid}) devices={len(researcher.devices)}"
            )
        return "\n".join(lines)
