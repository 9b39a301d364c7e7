"""One time-heap push per instant, not per event.

Counted, not timed: a 200-device, 0.1 h Table 3 shard (seed 9, the
planes off, as pogobench's ``table3_fleet`` runs it) with the kernel
module's ``heapq`` wrapped.  The kernel pushes a time onto its heap only
when the first event of an instant is scheduled; every later event for
that instant is appended to the instant's list.  The phones' timers fire
together, so the run creates far fewer instants than it dispatches
events (a time recurs as a new instant when events are scheduled for it
while it runs: a zero-delay chain opens one per link).  Wrapping changes nothing the run does: the report is the same
bytes as an unwrapped run's.
"""

import heapq
import types

import pytest

import repro.sim.kernel as kernel_module
from repro.core.shard import Shard
from repro.fleet.partition import fleet_spec
from repro.fleet.worker import setup_battery_monitor

#: Time-heap pushes of the run: the number of instants it created, at
#: 77 distinct times, for 14,802 events.
PUSHES = 1_085


def _run():
    shard = Shard(fleet_spec(200, seed=9, spans=False, metrics=False))
    setup_battery_monitor(shard)
    shard.run(hours=0.1)
    return shard


@pytest.fixture(scope="module")
def counted():
    pushes = []

    def counting_push(heap, time):
        pushes.append(time)
        heapq.heappush(heap, time)

    shim = types.SimpleNamespace(
        heappush=counting_push, heappop=heapq.heappop, heapify=heapq.heapify
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "heapq", shim)
        shard = _run()
    return shard, pushes


def test_the_run_is_the_one_an_unwrapped_run_makes(counted):
    shard = counted[0]
    assert shard.fleet_report_json() == _run().fleet_report_json()


def test_the_heap_takes_one_push_per_instant(counted):
    shard, pushes = counted
    events = shard.kernel.events_executed
    assert len(pushes) == PUSHES
    assert len(pushes) * 10 < events
