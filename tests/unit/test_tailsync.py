"""Unit tests for tail detection and transmission policies."""

import pytest

from repro.core.scheduler import PogoScheduler
from repro.core.tailsync import (
    MAX_DELAY_MS,
    ImmediatePolicy,
    PeriodicPolicy,
    SynchronizedPolicy,
    TailDetector,
)
from repro.device import EmailApp, Phone
from repro.sim import HOUR, Kernel, MINUTE, SECOND


class FakeController:
    """Minimal policy controller: records flushes."""

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


def test_detector_fires_on_foreign_traffic():
    kernel, phone, _ = make_setup()
    detector = TailDetector(phone)
    fired = []
    detector.on_activity.append(lambda: fired.append(kernel.now))
    detector.start()
    app = EmailApp(phone)
    app.start()
    kernel.run_until(6 * MINUTE)
    assert len(fired) >= 1
    # Detection happens within ~1 poll of the transfer start (5 min +
    # ramp-up), far inside the 6 s DCH tail.
    assert fired[0] <= 5 * MINUTE + phone.modem.profile.ramp_ms + 1.5 * SECOND
    assert detector.detections >= 1


def test_detector_never_wakes_the_cpu():
    """The Thread.sleep trick: with no other traffic, the detector's
    polling is frozen and the CPU sleeps indefinitely."""
    kernel, phone, _ = make_setup()
    detector = TailDetector(phone)
    detector.start()
    kernel.run_until(30 * MINUTE)
    assert not phone.cpu.awake
    assert phone.cpu.wake_count == 0
    # Polls only happened during the initial awake window (~1 s).
    assert detector.polls <= 3


def test_detector_stop():
    kernel, phone, _ = make_setup()
    detector = TailDetector(phone)
    detector.start()
    detector.stop()
    app = EmailApp(phone)
    app.start()
    kernel.run_until(11 * MINUTE)
    assert detector.detections == 0


def test_synchronized_policy_flushes_on_detection():
    kernel, phone, controller = make_setup()
    detector = TailDetector(phone)
    policy = SynchronizedPolicy(detector)
    policy.bind(controller)
    policy.start()
    app = EmailApp(phone)
    app.start()
    kernel.run_until(11 * MINUTE)
    reasons = {reason for _, reason in controller.flushes}
    assert "tail-sync" in reasons
    assert policy.sync_flushes >= 2


def test_synchronized_policy_fallback_interval():
    kernel, phone, controller = make_setup()
    detector = TailDetector(phone)
    policy = SynchronizedPolicy(detector)
    policy.bind(controller)
    policy.start()
    kernel.run_until(2.5 * MAX_DELAY_MS)  # silence: no other apps
    fallbacks = [r for _, r in controller.flushes if r == "fallback-interval"]
    assert len(fallbacks) == 2


def test_synchronized_policy_wifi_prompt():
    kernel, phone, controller = make_setup()
    phone.set_wifi_connected(True)
    detector = TailDetector(phone)
    policy = SynchronizedPolicy(detector)
    policy.bind(controller)
    policy.start()
    policy.on_enqueue()
    assert controller.flushes[-1][1] == "wifi-prompt"
    # On cellular, enqueue does not flush.
    phone.set_wifi_connected(False)
    count = len(controller.flushes)
    policy.on_enqueue()
    assert len(controller.flushes) == count


def test_policy_on_connected_flushes():
    kernel, phone, controller = make_setup()
    policy = SynchronizedPolicy(TailDetector(phone))
    policy.bind(controller)
    policy.on_connected()
    assert controller.flushes[-1][1] == "connected"


def test_periodic_policy():
    kernel, phone, controller = make_setup()
    policy = PeriodicPolicy(interval_ms=10 * MINUTE)
    policy.bind(controller)
    policy.start()
    kernel.run_until(35 * MINUTE)
    periodic = [t for t, r in controller.flushes if r == "periodic"]
    assert len(periodic) == 3
    policy.stop()
    kernel.run_until(2 * HOUR)
    assert len([r for _, r in controller.flushes if r == "periodic"]) == 3


def test_immediate_policy():
    kernel, phone, controller = make_setup()
    policy = ImmediatePolicy()
    policy.bind(controller)
    policy.start()
    policy.on_enqueue()
    policy.on_enqueue()
    assert [r for _, r in controller.flushes] == ["immediate", "immediate"]


def test_synchronized_policy_stop_detaches():
    kernel, phone, controller = make_setup()
    detector = TailDetector(phone)
    policy = SynchronizedPolicy(detector)
    policy.bind(controller)
    policy.start()
    policy.stop()
    assert not detector.running
    kernel.run_until(3 * HOUR)
    assert controller.flushes == []
