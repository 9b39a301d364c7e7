"""Unit tests for CSV export."""

import csv
import io

import pytest

from repro.analysis.export import (
    intervals_to_csv,
    rows_to_csv,
    series_to_csv,
    trace_to_csv,
)
from repro.sim.trace import IntervalTrack, TimeSeries, TraceRecorder


def test_series_to_string():
    series = TimeSeries("watts")
    series.append(0.0, 0.5)
    series.append(10.0, 1.25)
    text = series_to_csv(series)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["time_ms", "watts"]
    assert rows[1] == ["0.000", "0.5"]
    assert rows[2] == ["10.000", "1.25"]


def test_series_to_file(tmp_path):
    series = TimeSeries()
    series.append(1.0, 2.0)
    path = tmp_path / "series.csv"
    assert series_to_csv(series, str(path)) is None
    content = path.read_text()
    assert "time_ms" in content and "1.000" in content


def test_series_to_open_handle():
    series = TimeSeries()
    series.append(1.0, 2.0)
    handle = io.StringIO()
    series_to_csv(series, handle)
    assert "1.000" in handle.getvalue()


def test_intervals_export():
    track = IntervalTrack("cpu")
    track.open(time=0.0, label="boot")
    track.close(time=5.0)
    track.open(time=10.0)
    text = intervals_to_csv([track], until=12.0)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["track", "start_ms", "end_ms", "label"]
    assert rows[1] == ["cpu", "0.000", "5.000", "boot"]
    assert rows[2] == ["cpu", "10.000", "12.000", ""]


def test_trace_export_serializes_data():
    trace = TraceRecorder(lambda: 0.0)
    trace.record("modem", "state", old="idle", new="ramp")
    text = trace_to_csv(trace)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][1] == "modem"
    assert '"new": "ramp"' in rows[1][3]


def make_spans():
    from repro.sim.spans import SpanRecorder

    recorder = SpanRecorder()
    root = recorder.hop("publish").record(1, 0, 0.0, 0.0, {"channel": "battery"})
    recorder.hop("buffer.dwell").record(1, root, 0.0, 512.5, {"bytes": 75})
    return recorder


def test_spans_to_csv():
    from repro.analysis.export import spans_to_csv

    text = spans_to_csv(make_spans())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["span", "trace", "parent", "hop", "start_ms", "end_ms", "attrs"]
    assert rows[1][:4] == ["1", "1", "0", "publish"]
    assert rows[2][3:6] == ["buffer.dwell", "0.000", "512.500"]
    assert '"bytes": 75' in rows[2][6]


def test_spans_jsonl_roundtrip_string_and_file(tmp_path):
    from repro.analysis.export import spans_from_jsonl, spans_to_jsonl

    recorder = make_spans()
    text = spans_to_jsonl(recorder)
    assert text.count("\n") == 2

    path = tmp_path / "spans.jsonl"
    assert spans_to_jsonl(recorder, str(path)) is None
    assert path.read_text() == text

    restored = spans_from_jsonl(str(path))
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in recorder]
    # Round-tripping the restored spans reproduces the bytes exactly.
    assert spans_to_jsonl(restored) == text


def test_spans_jsonl_roundtrip_after_ring_eviction():
    from repro.analysis.export import spans_from_jsonl, spans_to_jsonl
    from repro.sim.spans import SpanRecorder

    recorder = SpanRecorder(max_spans=4)
    dwell = recorder.hop("buffer.dwell")
    for index in range(10):
        # Parents 1..9: the early ones are evicted before the export.
        dwell.record(index, index, index * 1.0, index * 2.5, {"bytes": index})
    assert recorder.dropped == 6 and len(recorder) == 4
    text = spans_to_jsonl(recorder)
    assert text.count("\n") == 4

    restored = spans_from_jsonl(io.StringIO(text))
    assert [s.span_id for s in restored] == [7, 8, 9, 10]
    assert spans_to_jsonl(restored) == text


def test_spans_from_jsonl_refuses_a_merged_fleet_trace():
    # Span ids are per shard, so a merged trace read into bare Spans
    # would silently alias spans of different shards: refuse it.
    from repro.analysis.export import spans_from_jsonl, spans_to_jsonl
    from repro.fleet import merge_trace_jsonl

    text = spans_to_jsonl(make_spans())
    merged = merge_trace_jsonl([("f/0", text), ("f/1", text), ("f/2", text)])
    assert merged.count('"shard":') == 6
    with pytest.raises(ValueError, match=r"merged fleet trace \(shard 'f/0'\)"):
        spans_from_jsonl(io.StringIO(merged))
    # Stripping the member the merge spliced in gives back per-shard
    # lines, which do read and re-export to the same bytes.
    first = merged.splitlines()[0].replace(',"shard":"f/0"', "") + "\n"
    assert first == text.splitlines(keepends=True)[0]
    assert spans_to_jsonl(spans_from_jsonl(io.StringIO(first))) == first


def test_rows_export():
    text = rows_to_csv(["user", "scans"], [["user1", 100], ["user2", 200]])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["user", "scans"], ["user1", "100"], ["user2", "200"]]


def test_roundtrip_through_real_simulation():
    """End-to-end: export the power trace of a real transmission."""
    from repro.core.middleware import PogoSimulation
    from repro.device.power import PowerMeter
    from repro.sim.kernel import MINUTE

    sim = PogoSimulation(seed=3)
    device = sim.add_device(with_email_app=True)
    meter = PowerMeter(sim.kernel, device.phone.rail, interval_ms=1000.0)
    meter.start()
    sim.start()
    sim.run(duration_ms=6 * MINUTE)
    text = series_to_csv(meter.samples)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) > 300
    values = [float(v) for _, v in rows[1:]]
    assert max(values) > 0.5  # the e-mail transmission is visible
