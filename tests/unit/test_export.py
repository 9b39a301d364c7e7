"""Unit tests for the span trace's JSON Lines export."""

import io

import pytest


def make_spans():
    from repro.sim.spans import SpanRecorder

    recorder = SpanRecorder()
    root = recorder.hop("publish").record(1, 0, 0.0, 0.0, {"channel": "battery"})
    recorder.hop("buffer.dwell").record(1, root, 0.0, 512.5, {"bytes": 75})
    return recorder


def test_spans_jsonl_roundtrip_string_and_file(tmp_path):
    from repro.analysis.export import spans_from_jsonl, spans_to_jsonl

    recorder = make_spans()
    text = spans_to_jsonl(recorder)
    assert text.count("\n") == 2

    path = tmp_path / "spans.jsonl"
    assert spans_to_jsonl(recorder, str(path)) is None
    assert path.read_text() == text
    handle = io.StringIO()
    assert spans_to_jsonl(recorder, handle) is None
    assert handle.getvalue() == text

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
