"""Golden-master determinism: seeded artifacts are byte-identical.

The kernel hot-path work (native repeating timers, tombstone compaction,
the subscription index, cached stanza serialization, no-op span/metric
lanes) is only admissible if it is *behaviour-preserving*: for a fixed
seed, the chaos reports and the trace export must not move by a single
byte.  The files in ``tests/golden/`` were captured before the
optimisations landed; these tests regenerate them in-process and compare
bytes.

When a legitimate behaviour change lands (a new invariant, a protocol
fix), regenerate the goldens explicitly and say so in the commit::

    python -m repro --seed 7 chaos --scenario flaky-3g --report \
        tests/golden/chaos_flaky3g_seed7.json
    python -m repro --seed 7 chaos --scenario reorder-storm --report \
        tests/golden/chaos_reorder_seed7.json
    python -m repro --seed 7 trace --devices 3 --hours 0.5 --export \
        tests/golden/trace_seed7_d3_h05.jsonl

The structural pins at the end hold what no golden file does: how many
events the seed-9 Table 3 fleet hour dispatches at 5, 50 and 500
devices, that the instrumentation planes change neither that count nor
a report byte, and the event, barrier and handoff counts of one
partitioned run.
"""

import pathlib

import pytest

from repro import chaos as _chaos

GOLDEN = pathlib.Path(__file__).parent.parent / "golden"


@pytest.mark.parametrize(
    "scenario, filename",
    [
        ("flaky-3g", "chaos_flaky3g_seed7.json"),
        ("reorder-storm", "chaos_reorder_seed7.json"),
    ],
)
def test_chaos_report_matches_golden_master(scenario, filename):
    report = _chaos.run_scenario(scenario, seed=7)
    produced = _chaos.report_json(report).encode("utf-8")
    expected = (GOLDEN / filename).read_bytes()
    assert produced == expected, (
        f"chaos report for {scenario!r} (seed 7) diverged from the golden "
        f"master {filename} — a kernel/broker/transport change altered "
        "behaviour, not just speed"
    )


def test_trace_export_matches_golden_master(tmp_path):
    from repro.analysis.export import spans_to_jsonl
    from repro.apps import battery_monitor
    from repro.core.middleware import PogoSimulation

    sim = PogoSimulation(seed=7)
    collector = sim.add_collector("cli")
    devices = [sim.add_device(with_email_app=True) for _ in range(3)]
    sim.start()
    sim.assign(collector, devices)
    collector.node.deploy(battery_monitor.build_experiment(), [d.jid for d in devices])
    sim.run(hours=0.5)

    out = tmp_path / "spans.jsonl"
    spans_to_jsonl(sim.kernel.spans, str(out))
    expected = (GOLDEN / "trace_seed7_d3_h05.jsonl").read_bytes()
    assert out.read_bytes() == expected, (
        "trace JSONL export (seed 7, 3 devices, 0.5 h) diverged from the "
        "golden master — the optimized hot path changed observable events"
    )


# ---------------------------------------------------------------------------
# Structural pins: the Table 3 fleet hour at seed 9
# ---------------------------------------------------------------------------
#
# Counts, not bytes: how many events the kernel dispatches for a given
# fleet is a property of the model, the same on every machine.  They are
# driven through the spec path (``fleet_spec`` -> ``Shard`` ->
# ``setup_battery_monitor``), the one pogobench's ``table3_fleet`` times.


def _table3_fleet_hour(devices, **planes):
    from repro.core.shard import Shard
    from repro.fleet.partition import fleet_spec
    from repro.fleet.worker import setup_battery_monitor

    shard = Shard(fleet_spec(devices, seed=9, **planes))
    setup_battery_monitor(shard)
    shard.run(hours=1)
    return shard


@pytest.mark.parametrize(
    "devices, events", [(5, 2_759), (50, 27_374), (500, 273_524)]
)
def test_table3_fleet_hour_event_counts(devices, events):
    shard = _table3_fleet_hour(devices, spans=False, metrics=False)
    assert shard.kernel.events_executed == events, (
        f"the {devices}-device fleet hour (seed 9) no longer dispatches "
        f"{events:,} events — the model changed, not just its speed"
    )


def test_instrumentation_planes_do_not_change_the_simulation():
    # The null lanes are dispatch shims, not behaviour switches: planes
    # on and planes off run the same events and report the same bytes.
    dark = _table3_fleet_hour(5, spans=False, metrics=False)
    lit = _table3_fleet_hour(5, spans=True, metrics=True)
    assert lit.kernel.events_executed == dark.kernel.events_executed == 2_759
    assert lit.fleet_report_json() == dark.fleet_report_json()


def test_partitioned_fleet_event_barrier_and_handoff_counts():
    from repro.fleet import run_fleet

    result = run_fleet(
        60, 4, seed=9, hours=0.35, processes=False, spans=False, metrics=False
    )
    # The partition may not change what is simulated or what crosses it.
    assert (result.events, result.handoffs) == (12_608, 675)
    # How often the shards synchronise is scheduling: ROADMAP item 3
    # (barrier horizon from the radio model) changes this number on
    # purpose and must regenerate it deliberately.
    assert result.barriers == 147
