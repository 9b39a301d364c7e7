"""Unit tests for the Table 4 deployment-study harness."""

import dataclasses

import pytest

from repro.apps import deployment_study
from repro.apps.deployment_study import (
    DBSCAN_PARAMS,
    DEFAULT_SESSIONS,
    PAPER_TABLE4,
    SessionSpec,
    format_table,
    run_session,
)
from repro.core.shard import Shard
from repro.sim import DAY


def test_default_sessions_mirror_paper_rows():
    names = [spec.name for spec in DEFAULT_SESSIONS]
    assert names == list(PAPER_TABLE4)


def test_session_characteristics_match_narrative():
    by_name = {spec.name: spec for spec in DEFAULT_SESSIONS}
    assert by_name["user2a"].trip_abroad_days is not None  # trip abroad
    assert by_name["user3"].cell_outage_days is not None  # 3G problems
    assert by_name["user3"].lifestyle == "mobile"  # 1282 locations
    assert not by_name["user7"].has_mobile_data  # Wi-Fi offload only
    assert by_name["user2a"].days + by_name["user2b"].days < 24  # phone swap


@pytest.fixture(scope="module")
def short_session_result():
    spec = SessionSpec("mini", days=4, update_days=(1,), reboot_rate_per_day=0.3)
    return run_session(spec, seed=77)


def test_session_result_shape(short_session_result):
    result = short_session_result
    assert result.scans == pytest.approx(4 * 24 * 60, rel=0.02)
    assert result.raw_bytes > 100 * result.scans  # scans are a few 100 B
    assert result.locations > 5
    assert result.truth_clusters >= result.locations * 0.9
    assert 0.0 <= result.match_percent <= result.partial_percent <= 100.0


def test_row_rendering(short_session_result):
    row = short_session_result.row()
    assert "mini" in row
    assert "%" in row


def test_format_table_totals(short_session_result):
    table = format_table([short_session_result])
    assert "data reduction" in table
    assert "mini" in table


def test_session_determinism():
    spec = SessionSpec("det", days=3, update_days=(), reboot_rate_per_day=0.0)
    a = run_session(spec, seed=5)
    b = run_session(spec, seed=5)
    assert a.scans == b.scans
    assert a.locations == b.locations
    assert a.match_percent == b.match_percent


def test_no_disruptions_means_near_perfect_match():
    spec = SessionSpec("clean", days=3, update_days=(), reboot_rate_per_day=0.0)
    result = run_session(spec, seed=6)
    # Only the final in-flight cluster can be missing.
    assert result.partial_percent >= 90.0
    assert result.expired_messages == 0


def test_script_updates_reduce_exact_matches():
    base = SessionSpec("ctl", days=4, update_days=(), reboot_rate_per_day=0.0)
    disrupted = dataclasses.replace(base, name="upd", update_days=(1, 2, 3))
    clean = run_session(base, seed=8)
    updated = run_session(disrupted, seed=8)
    assert updated.match_percent <= clean.match_percent


def test_a_session_records_no_span_and_no_metric(monkeypatch):
    """The session's shard is private and only the scores leave it, so it
    keeps no flight recorder and counts nothing."""
    shards = []

    class Kept(Shard):
        def __init__(self, spec):
            super().__init__(spec)
            shards.append(self)

    monkeypatch.setattr(deployment_study, "Shard", Kept)
    run_session(SessionSpec("quiet", days=1, update_days=(), reboot_rate_per_day=0.0), seed=3)
    (shard,) = shards
    kernel = shard.kernel
    assert kernel.events_executed > 0
    assert not kernel.spans.enabled
    assert not kernel.metrics.enabled
    assert kernel.spans.recorded == 0
    # No counter and no histogram moves: what the registry still reports
    # it reads off the model (the kernel, the server, the buffers, ...).
    assert not any(counter.value for counter in kernel.metrics._counters.values())
    assert not any(histogram.count for histogram in kernel.metrics._histograms.values())
    assert kernel.metrics.nonzero()["kernel.events"] == kernel.events_executed
