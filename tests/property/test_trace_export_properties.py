"""Property-based tests for the span line format (hypothesis).

The exporter (:func:`repro.sim.spans.spans_to_jsonl_lines`) writes each
span's line directly and the fleet merge
(:func:`repro.fleet.merge.merge_trace_jsonl`) splices ``"shard"`` into
those bytes without parsing them.  Both replaced a stock-``json``
implementation whose output is the contract.  Those implementations
live on here, as the references the fast ones must equal byte for byte
over spans built to break a hand-written encoder and a pattern-based
splitter: attrs that imitate the rigid tail of a line, keys named like
the line's own, every scalar ``json.dumps`` spells specially.

A fleet's own workers write no text at all: each hands over its spans
as rows (:func:`repro.sim.spans.span_rows`), a spawned one in a sealed
frame, and whoever reads the trace orders, stamps, writes and
interleaves them (:func:`repro.fleet.merge.merge_span_rows`).  For that
path the text path is the oracle.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.export import spans_to_jsonl
from repro.fleet.merge import merge_span_rows, merge_trace_jsonl
from repro.fleet.wire import seal, unseal
from repro.sim.metrics import MetricsRegistry
from repro.sim.spans import (
    Span,
    SpanRecorder,
    span_lines,
    span_rows,
    spans_to_jsonl_lines,
    split_span_line,
)


# ---------------------------------------------------------------------------
# The references: the implementations the fast paths replaced
# ---------------------------------------------------------------------------

def reference_line(span):
    return json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))


def nan_last(time):
    """The order's one rule beyond tuple comparison: no comparison places
    a ``NaN`` among numbers (what a sort makes of one depends on the
    algorithm and the input order), so it compares as +Infinity."""
    return float("inf") if time != time else time


def reference_merge(traces):
    spans = []
    for shard_id, text in traces:
        for line in text.splitlines():
            if not line:
                continue
            record = json.loads(line)
            record["shard"] = shard_id
            spans.append(
                (
                    nan_last(record.get("start_ms", 0.0)),
                    nan_last(record.get("end_ms", 0.0)),
                    shard_id,
                    record.get("span", 0),
                    json.dumps(record, sort_keys=True, separators=(",", ":")),
                )
            )
    spans.sort(key=lambda item: item[:4])
    if not spans:
        return ""
    return "\n".join(item[4] for item in spans) + "\n"


# ---------------------------------------------------------------------------
# Adversarial spans
# ---------------------------------------------------------------------------

TAIL = ',"end_ms":1.0,"hop":"x","parent":0,"span":1,"start_ms":2.0,"trace":3}'
LINE_KEYS = ["attrs", "end_ms", "hop", "parent", "shard", "span", "start_ms", "trace"]

texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        [
            TAIL,
            ',"span":1,"start_ms":2.0,"trace":3}',
            TAIL.replace('"', '\\"'),
            'say "hi"', "back\\slash", "\\", '\\"', "}", "{}", "\n", " ",
            "café", "雪", "\U0001f600", "NaN", "Infinity",
        ]
    ),
)
keys = st.one_of(texts, st.sampled_from(LINE_KEYS))
integers = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(),
    st.sampled_from([2**53 + 1, -(2**64), 10**30]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1.0005, 2.0]),
)
values = st.recursive(
    st.one_of(st.none(), st.booleans(), integers, floats, texts),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=8,
)
#: A whole tail as attrs content: the splitter must not stop at it.
tail_shaped = st.just(
    {"a": 1, "end_ms": 1.0, "hop": "x", "parent": 0, "span": 1,
     "start_ms": 2.0, "trace": 3}
)
str_keyed_attrs = st.one_of(
    st.none(),
    st.just({}),
    tail_shaped,
    st.dictionaries(keys, st.one_of(values, tail_shaped), max_size=4),
)
#: Keys that are not strings send the whole attrs dict to the stock
#: encoder (same-typed, so that sorting them is defined).
odd_keyed_attrs = st.one_of(
    st.dictionaries(st.integers(), values, min_size=1, max_size=3),
    st.dictionaries(
        st.floats(allow_nan=False), values, min_size=1, max_size=3
    ),
)
#: Times from a small pool as well, so that shards tie on them.
times = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 80.0, 80, 2900.0]), floats, integers
)


def spans_of(attrs):
    return st.builds(Span, integers, integers, integers, texts, times, times, attrs)


def keys_and_values(attrs):
    """``HopHandle.record``'s attrs arguments for an attrs dict."""
    return (tuple(attrs), *attrs.values()) if attrs else ()


@given(st.lists(spans_of(st.one_of(str_keyed_attrs, odd_keyed_attrs)), max_size=6))
@settings(max_examples=250, deadline=None)
def test_encoder_equals_the_stock_dump_byte_for_byte(spans):
    assert spans_to_jsonl_lines(spans) == [reference_line(span) for span in spans]


# Spans recorded the way the simulation records them: through a hop
# handle, into the ring of flat rows.  The recorder numbers the spans
# itself; several hop names and attrs of every shape share one ring.
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["publish", "buffer.dwell", TAIL, "雪"]),
            integers, integers, times, times,
            st.one_of(str_keyed_attrs, odd_keyed_attrs),
        ),
        max_size=8,
    ),
    st.integers(min_value=1, max_value=5),
)
# One dict key, three JSON names: each span must keep the key it was given.
@example(
    [("h", 0, 0, 0.0, 1.0, {key: "x"}) for key in (True, 1, 1.0)], 3
)
@settings(max_examples=250, deadline=None)
def test_recorded_spans_export_the_stock_dump_and_read_back_as_recorded(
    calls, max_spans
):
    recorder = SpanRecorder(MetricsRegistry(), max_spans=max_spans)
    recorded = []
    for hop, trace_id, parent_id, start_ms, end_ms, attrs in calls:
        span_id = recorder.hop(hop).record(
            trace_id, parent_id, start_ms, end_ms, *keys_and_values(attrs)
        )
        recorded.append(Span(span_id, trace_id, parent_id, hop, start_ms, end_ms, attrs))
    kept = recorded[len(recorded) - len(recorder):]
    assert spans_to_jsonl_lines(recorder) == [reference_line(span) for span in kept]
    assert recorder.spans() == list(recorder) == kept
    assert recorder.trace_ids() == sorted({s.trace_id for s in kept if s.trace_id})


shard_ids = st.one_of(
    st.sampled_from(["f/0", "f/1", 'f"2', "f\\3", "fläche/4", ""]),
    st.text(max_size=6),
)


# Attrs with non-string keys are left out here on purpose: the stock
# merge re-sorted such keys *as strings* after parsing ({9: …, 10: …}
# came back as "10" before "9"), which the splice, copying the
# exporter's bytes, does not reproduce — and should not.
@given(
    st.lists(
        st.tuples(shard_ids, st.lists(spans_of(str_keyed_attrs), max_size=5)),
        min_size=1,
        max_size=4,
    )
)
# Integer times one apart where floats cannot tell them apart: the
# sort key must keep them integers, as ``json.loads`` does.
@example(
    [
        ("b", [Span(1, 0, 0, "h", 2**53, 2**53, None)]),
        ("a", [Span(1, 0, 0, "h", 2**53 + 1, 2**53 + 1, None)]),
    ]
)
# Equal NaN times tie, so the pair sorts by span id.
@example(
    [
        (
            "f/0",
            [
                Span(1, 0, 0, "", 0.0, float("nan"), None),
                Span(0, 0, 0, "", 0.0, float("nan"), None),
            ],
        )
    ]
)
@settings(max_examples=250, deadline=None)
def test_merge_equals_the_parsing_merge_byte_for_byte(shards):
    traces = [
        (shard_id, "".join(line + "\n" for line in spans_to_jsonl_lines(spans)))
        for shard_id, spans in shards
    ]
    assert merge_trace_jsonl(traces) == reference_merge(traces)


# ---------------------------------------------------------------------------
# The row path: what a fleet's workers and the trace's reader do instead
# ---------------------------------------------------------------------------

any_attrs = st.one_of(str_keyed_attrs, odd_keyed_attrs)


@given(shard_ids, st.lists(spans_of(any_attrs), max_size=6))
@settings(max_examples=250, deadline=None)
def test_a_stamped_line_is_the_plain_line_with_the_member_spliced_in(shard_id, spans):
    member = ',"shard":' + json.dumps(shard_id)
    spliced = []
    for line in spans_to_jsonl_lines(spans):
        _, _, _, head, tail = split_span_line(line)
        spliced.append(head + member + tail)
    assert span_lines(span_rows(spans), shard=shard_id) == spliced


# Non-string attr keys are in: the text path copies the exporter's bytes
# just as the row path does.  Shard lists of length one to four, empty
# shards and repeated shard ids included.  Rows handed over as they are
# (an in-process worker) and through a sealed frame (a spawned one).
@given(
    st.lists(
        st.tuples(shard_ids, st.lists(spans_of(any_attrs), max_size=5)),
        min_size=1,
        max_size=4,
    )
)
# A NaN among numbers, one shard: pre-sorting the run must not change
# where the later sort puts it.
@example(
    [
        (
            "f/0",
            [
                Span(1, 0, 0, "h", float("nan"), 2.0, None),
                Span(2, 0, 0, "h", 2.0, 0.0, None),
                Span(3, 0, 0, "h", 0.5, 0.0, None),
            ],
        ),
        ("f/1", [Span(1, 0, 0, "h", 1.0, 0.0, None)]),
    ]
)
@settings(max_examples=250, deadline=None)
def test_row_path_equals_the_text_path_byte_for_byte(shards):
    parts = [(shard_id, span_rows(spans)) for shard_id, spans in shards]
    text = merge_trace_jsonl(
        [(shard_id, spans_to_jsonl(spans)) for shard_id, spans in shards]
    )
    assert merge_span_rows(parts) == text
    assert merge_span_rows(
        (shard_id, unseal(seal(rows))) for shard_id, rows in parts
    ) == text


# ---------------------------------------------------------------------------
# The writer's memo: values it must never take for one another
# ---------------------------------------------------------------------------
#
# The writer formats each distinct attrs object, hop and time once per
# call and reuses the text.  Its memo keys are where it could go wrong:
# values that compare equal but print differently (1, 1.0, True; 0.0,
# -0.0), NaN, which equals nothing, and keys of other types that compare
# equal.  Many rows of one shape draw from exactly those values, so that
# a memo keyed on the values alone hands one row another's text.

def outcome(write):
    """The lines ``write()`` returns, or the error it raises."""
    try:
        return write()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


NAN = float("nan")
confusable = st.sampled_from(
    [1, 1.0, True, 0, 0.0, -0.0, False, NAN, float("inf"), -float("inf"),
     None, "1", 2**53, float(2**53)]
)
#: Times as the writer's memo sees them: equal but printed apart, NaN
#: and the infinities, and the plain floats a run's ring repeats.
confusable_times = st.sampled_from(
    [0.0, -0.0, 0, 1, 1.0, True, NAN, float("inf"), -float("inf"),
     80.0, 80, 2900.0, 1e-4, -1e-4]
)
#: Keys that compare equal across types: one dict key, several names.
confusable_keys = st.sampled_from([True, 1, 1.0, "1", 0, False, 0.0, -0.0, "a"])
#: Ids are ints, but a bool id is an int that prints otherwise.
confusable_ids = st.sampled_from([0, 1, True, False])


def one_shape(keys):
    return st.lists(confusable, min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values))
    )


rows_of_one_shape = st.lists(
    st.builds(
        Span, st.just(1), st.integers(0, 3), st.integers(0, 3),
        st.sampled_from(["publish", "buffer.dwell"]),
        confusable_times, confusable_times, one_shape(("a", "b")),
    ),
    min_size=1, max_size=40,
)
rows_of_confusable_keys = st.lists(
    st.builds(
        Span, confusable_ids, confusable_ids, confusable_ids, st.just("h"),
        confusable_times, confusable_times,
        st.dictionaries(confusable_keys, confusable, max_size=3),
    ),
    min_size=1, max_size=30,
)


@given(st.one_of(rows_of_one_shape, rows_of_confusable_keys))
@example([Span(1, 0, 0, "h", t, t, {"v": v}) for t, v in
          [(1, 1), (1.0, 1.0), (True, True), (0.0, 0.0), (-0.0, -0.0), (1, 1)]])
@example([Span(1, 0, 0, "h", 0.0, 1.0, {key: "x"}) for key in (True, 1, 1.0, True)])
@example([Span(1, 0, 0, "h", NAN, NAN, {"v": NAN}), Span(2, 0, 0, "h", NAN, 1.0, {"v": NAN})])
@settings(max_examples=250, deadline=None)
def test_memo_never_hands_one_value_anothers_text(spans):
    expected = outcome(lambda: [reference_line(span) for span in spans])
    # Span objects: a new key tuple per row, so nothing is shared by identity.
    assert outcome(lambda: spans_to_jsonl_lines(spans)) == expected
    # Their rows, handed to the writer as a list and as a one-shot iterator
    # whose tuples are freed as the call goes.
    assert outcome(lambda: span_lines(span_rows(spans))) == expected
    assert outcome(lambda: span_lines(span.row for span in spans)) == expected
    # Recorded: a ring whose rows each hold the key tuple they were given.
    recorder = SpanRecorder(MetricsRegistry())
    for span in spans:
        recorder.hop(span.hop).record(
            span.trace_id, span.parent_id, span.start_ms, span.end_ms,
            *keys_and_values(span.attrs),
        )
    recorded = [
        Span(span_id, s.trace_id, s.parent_id, s.hop, s.start_ms, s.end_ms, s.attrs)
        for span_id, s in enumerate(spans, 1)
    ]
    assert outcome(lambda: spans_to_jsonl_lines(recorder)) == outcome(
        lambda: [reference_line(span) for span in recorded]
    )


# A fleet merge over the same rows: string keys (the parsing merge
# re-sorts other keys as strings) and no bool times (the text path's
# line pattern reads numbers only).
merge_times = st.sampled_from(
    [0.0, -0.0, 0, 1, 1.0, NAN, float("inf"), -float("inf"), 80.0, 80, 1e-4, -1e-4]
)


@given(
    st.lists(
        st.tuples(
            shard_ids,
            st.lists(
                st.builds(
                    Span, st.integers(0, 5), st.just(1), st.just(0),
                    st.sampled_from(["publish", TAIL]),
                    merge_times, merge_times, one_shape(("a", "end_ms")),
                ),
                max_size=12,
            ),
        ),
        min_size=1, max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_a_fleet_merge_of_confusable_rows_equals_the_parsing_merge(shards):
    traces = [
        (shard_id, "".join(reference_line(span) + "\n" for span in spans))
        for shard_id, spans in shards
    ]
    expected = reference_merge(traces)
    parts = [(shard_id, span_rows(spans)) for shard_id, spans in shards]
    assert merge_span_rows(parts) == expected
    assert merge_trace_jsonl(
        [(shard_id, spans_to_jsonl(spans)) for shard_id, spans in shards]
    ) == expected
