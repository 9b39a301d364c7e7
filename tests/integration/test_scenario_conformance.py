"""Golden-gated conformance suite for the scenario engine.

Every preset must satisfy three guarantees, and this module is the gate:

* **Byte determinism** — two seeded runs serialize the canonical report
  to identical bytes;
* **Clean under the monitor** — zero invariant violations on every
  preset at every scale;
* **Placement independence** — the sharded run's report is byte-identical
  to the solo run's.

Two presets are additionally pinned against golden masters in
``tests/golden/``.  When a legitimate behaviour change lands, regenerate
them explicitly and say so in the commit::

    python -m repro scenarios --preset commuter-surge --scale 0.25 \
        --report tests/golden/scenario_commuter_surge_seed7.json
    python -m repro scenarios --preset contact-tracing --scale 0.25 \
        --report tests/golden/scenario_contact_tracing_seed7.json

Day-length presets (``metro-day``) run only with
``REPRO_SCENARIO_LONG=1`` so tier-1 stays fast.
"""

import os
import pathlib

import pytest

from repro.scenarios import (
    LONG_PRESETS,
    build_preset,
    preset_names,
    run_scenario_spec,
)

pytestmark = pytest.mark.scenario

GOLDEN = pathlib.Path(__file__).parent.parent / "golden"
SCALE = 0.25
SHORT_PRESETS = [name for name in preset_names() if name not in LONG_PRESETS]


def _run(name, **kwargs):
    return run_scenario_spec(build_preset(name, scale=SCALE), **kwargs)


class TestPresetConformance:
    @pytest.mark.parametrize("name", SHORT_PRESETS)
    def test_two_runs_are_byte_identical_and_violation_free(self, name):
        first = _run(name)
        second = _run(name)
        assert first.report_json == second.report_json
        assert first.report["invariants"]["violation_count"] == 0
        assert first.report["invariants"]["violations"] == []

    @pytest.mark.parametrize("name", SHORT_PRESETS)
    def test_sharded_report_matches_solo(self, name):
        solo = _run(name)
        sharded = _run(name, shards=2, processes=False)
        assert sharded.report_json == solo.report_json

    def test_campaigns_actually_collected_data(self):
        report = _run("contact-tracing").report
        assert report["campaigns"]["battery-monitor"]["readings"] > 0
        assert report["campaigns"]["contact-tracing"]["beacons"] > 0
        report = _run("noise-map-campaign").report
        assert report["campaigns"]["noise-map"]["cells"] > 0

    def test_surge_rows_are_populated(self):
        report = _run("stadium-evening").report
        assert report["surges"]
        for row in report["surges"]:
            assert 0 <= row["contended"] <= row["attendees"] <= report["devices"]


class TestGoldenMasters:
    @pytest.mark.parametrize(
        "name, golden",
        [
            ("commuter-surge", "scenario_commuter_surge_seed7.json"),
            ("contact-tracing", "scenario_contact_tracing_seed7.json"),
        ],
    )
    def test_report_matches_committed_golden(self, name, golden):
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        assert _run(name).report_json == expected


class TestTelemetryAndChaosComposition:
    def test_telemetry_never_perturbs_the_report(self):
        plain = _run("contact-tracing")
        sampled = _run("contact-tracing", telemetry=True)
        assert sampled.report_json == plain.report_json
        assert sampled.fleet.timeline is not None
        assert sampled.fleet.timeline.frames
        # The scenario monitor is attached, so samples carry its verdict.
        last = sampled.fleet.timeline.last_samples()
        assert any(sample.get("invariants") is not None for sample in last)


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCENARIO_LONG"),
    reason="day-length preset; set REPRO_SCENARIO_LONG=1 to run",
)
class TestDayLengthPresets:
    @pytest.mark.parametrize("name", sorted(LONG_PRESETS))
    def test_day_length_preset_conforms(self, name):
        first = run_scenario_spec(build_preset(name, scale=SCALE))
        second = run_scenario_spec(build_preset(name, scale=SCALE))
        assert first.report_json == second.report_json
        assert first.report["invariants"]["violation_count"] == 0
        sharded = run_scenario_spec(
            build_preset(name, scale=SCALE), shards=4, processes=False
        )
        assert sharded.report_json == first.report_json
