"""A census of the settable values that describe a run.

A run is one :class:`~repro.core.shard.ShardSpec` plus run options, and
each value has exactly one place to be set: the seed, roster, latency
and instrumentation planes in the spec; how the run is carried out
(shard count, duration, processes, telemetry) in the call.  A new
keyword or field on any of these surfaces is a second place to set
something, so it must show up here, in review, rather than creep in.
"""

import dataclasses
import inspect

import pytest

from repro import chaos
from repro.core.middleware import PogoSimulation
from repro.core.shard import Shard, ShardSpec
from repro.fleet import fleet_spec, run_fleet
from repro.fleet.worker import ShardDriver
from repro.scenarios import ScenarioSpec, run_scenario_spec
from repro.sim.metrics import MetricsRegistry
from repro.sim.spans import SpanRecorder

PARAMETERS = [
    (Shard, ["spec"]),
    (PogoSimulation, ["seed", "carrier", "spans", "metrics"]),
    (run_fleet, [
        "spec", "shards", "duration_ms", "epoch_ms", "workload", "processes",
        "barrier_timeout_s", "telemetry", "observer", "workload_ctx",
    ]),
    (run_scenario_spec, ["spec", "shards", "processes", "telemetry"]),
    (fleet_spec, ["devices", "seed", "spans", "metrics", "latency_ms"]),
    (chaos.run_scenario, [
        "name", "seed", "minutes", "devices", "inject_bug",
        "snapshot_midpoint", "artifacts", "spec",
    ]),
    (ShardDriver, ["spec", "workload", "fleet_ctx", "telemetry"]),
    # The instrumentation planes: ``disable()`` is the one switch.
    (MetricsRegistry, []),
    (MetricsRegistry.histogram, ["self", "name"]),
    (SpanRecorder, ["clock", "max_spans"]),
]

FIELDS = [
    (ShardSpec, [
        "shard_id", "seed", "carrier", "spans", "metrics", "latency_ms",
        "collectors", "devices",
    ]),
    (ScenarioSpec, [
        "name", "seed", "devices", "hours", "carriers", "city_places",
        "venues", "surges", "campaigns", "collector",
    ]),
]


@pytest.mark.parametrize(
    "target, names", PARAMETERS, ids=[t.__qualname__ for t, _ in PARAMETERS]
)
def test_parameter_census(target, names):
    assert list(inspect.signature(target).parameters) == names


@pytest.mark.parametrize(
    "spec, names", FIELDS, ids=[c.__name__ for c, _ in FIELDS]
)
def test_spec_field_census(spec, names):
    assert [field.name for field in dataclasses.fields(spec)] == names


def test_telemetry_is_a_run_option_not_a_shard_property():
    shard = Shard(fleet_spec(1))
    assert not hasattr(shard, "telemetry")
