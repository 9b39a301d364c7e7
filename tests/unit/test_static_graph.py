"""The static graph stays on its diet.

A fleet shard is built once and lives for the whole run; how many
objects a device costs, and whether each carries an instance
``__dict__``, decides what there is to build, pickle, and (for the host
collector) skip.  These are guards, not benchmarks: they pin the shape.
"""

import gc
from collections import Counter

from repro.core.shard import Shard
from repro.fleet.partition import fleet_spec
from repro.fleet.worker import setup_battery_monitor

#: ``repro.*`` classes allowed an instance ``__dict__`` although a shard
#: holds at least one per device — each with the reason it keeps it.
DICT_ALLOWED = {}

#: Tracked objects one more device adds to a built battery-monitor shard
#: (137 before the per-device classes were slotted, the sensors' random
#: streams made lazy and the default configs shared).
OBJECTS_PER_DEVICE = 130


def _battery_monitor(devices):
    shard = Shard(fleet_spec(devices, seed=9))
    setup_battery_monitor(shard)
    return shard


def _tracked_by(build):
    """``build()``'s result and the tracked objects it left behind."""
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()}
    built = build()
    gc.collect()
    return built, [obj for obj in gc.get_objects() if id(obj) not in before]


def _per_device_classes_with_a_dict(objects, devices):
    counts = Counter(
        type(obj) for obj in objects
        if type(obj).__module__.startswith("repro.")
    )
    return sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls, count in counts.items()
        if count >= devices and cls.__dictoffset__ != 0
    )


def test_no_per_device_class_has_an_instance_dict_when_built():
    _, objects = _tracked_by(lambda: _battery_monitor(3))
    offenders = _per_device_classes_with_a_dict(objects, 3)
    assert [name for name in offenders if name not in DICT_ALLOWED] == []


def test_nor_once_the_experiment_is_deployed_and_reporting():
    def build_and_run():
        shard = _battery_monitor(3)
        shard.run(minutes=6)  # deployed, sampled, flushed once
        return shard

    shard, objects = _tracked_by(build_and_run)
    assert all(d.node.flush_count for d in shard.devices.values())
    offenders = _per_device_classes_with_a_dict(objects, 3)
    assert [name for name in offenders if name not in DICT_ALLOWED] == []


def test_objects_per_device_do_not_grow():
    small, small_objects = _tracked_by(lambda: _battery_monitor(3))
    large, large_objects = _tracked_by(lambda: _battery_monitor(13))
    per_device = (len(large_objects) - len(small_objects)) / 10
    assert per_device <= OBJECTS_PER_DEVICE, per_device
    assert len(small.devices) == 3 and len(large.devices) == 13


def test_unsubscribed_sensors_seed_no_random_stream():
    shard = _battery_monitor(3)
    shard.run(minutes=6)
    for jid in shard.devices:
        assert f"accel/{jid}" not in shard.streams
        assert f"microphone/{jid}" not in shard.streams
