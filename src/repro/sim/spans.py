"""Message lifecycle tracing: causal spans and the flight recorder.

The paper's evaluation correlates *layers*: a sensor reading published by
a script rides the broker, dwells in the outgoing buffer, waits for a
tail-synchronized flush decision, crosses the modem (dragging it through
RRC states that cost real energy, Figure 3), transits the XMPP
switchboard and finally lands in a collector script.  This module answers
"where did *this* reading spend its time between ``publish()`` and
delivery?":

* **Trace ids.**  Every :class:`~repro.core.envelope.Envelope` gets a
  cheap monotonic per-kernel trace id the first time it enters a traced
  publish path.  The simulation moves envelope *objects* end to end, so
  the id (and the running causal parent) survives every hop for free.
* **Spans.**  Each hop records a :class:`Span` — ``(trace, parent, hop,
  start, end, attrs)`` — through a pre-bound :class:`HopHandle`, so the
  hot path pays one counter bump, one append and one histogram
  observation, with no registry lookups.
* **Flight recorder.**  Spans live in a bounded ring
  (:class:`SpanRecorder`): week-long simulations keep the most recent
  window and count what they dropped instead of growing without limit.

Which radio episodes Pogo woke itself, and their joules, is the
question of :class:`~repro.analysis.energy.ModemStateLog`, which reads
the modem and the rail, not the spans.

Everything here is deterministic: ids are per-recorder counters, times
are simulated milliseconds, and exports sort keys — two identical seeded
runs produce byte-identical span streams.  The kill switch is
``kernel.spans.disable()`` (or ``ShardSpec(spans=False)``).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import deque
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .metrics import Histogram, MetricsRegistry

#: Default flight-recorder capacity.  A span in the ring is one flat
#: row (:data:`SpanRow`), about 160 bytes with the ids and times it
#: owns, so 65536 spans keep the recorder near 10 MB even when every
#: script call in a fleet simulation is traced.
DEFAULT_MAX_SPANS = 65_536


class Span:
    """One recorded hop of a message (or node) lifecycle.

    A span read from a recorder is built from its row at the read, so
    two reads of one span return equal objects, not the same one:
    spans compare by value, with no attrs (``None``) equal to empty
    attrs, since both are written ``"attrs":{}``.
    """

    __slots__ = ("span_id", "trace_id", "parent_id", "hop", "start_ms", "end_ms", "attrs")

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: int,
        hop: str,
        start_ms: float,
        end_ms: float,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.hop = hop
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.attrs = attrs

    def _value(self) -> tuple:
        return (
            self.span_id, self.trace_id, self.parent_id, self.hop,
            self.start_ms, self.end_ms, self.attrs or {},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._value() == other._value()

    __hash__ = None  # type: ignore[assignment]  # attrs are a dict

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def row(self) -> "SpanRow":
        """The span as the recorder keeps it (:data:`SpanRow`)."""
        attrs = self.attrs or {}
        return (
            self.span_id, self.trace_id, self.parent_id, self.hop,
            self.start_ms, self.end_ms, tuple(attrs), *attrs.values(),
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-ready dict with a copy of the attrs, unsorted.

        Key order is not part of the contract: the JSONL exporter
        (:func:`spans_to_jsonl_lines`) no longer goes through here and
        sorts keys itself, so nothing byte-pinned depends on this dict's
        order.  An exported line equals the stock encoder's key-sorted
        dump of it.
        """
        return {
            "span": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "hop": self.hop,
            "start_ms": round(self.start_ms, 3),
            "end_ms": round(self.end_ms, 3),
            "attrs": dict(self.attrs or {}),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output or a parsed line.

        Refuses a record with a ``shard`` key: that is a line of a
        merged fleet trace, whose span and parent ids are only unique
        per shard, and a :class:`Span` has nowhere to keep the shard.
        """
        if "shard" in data:
            raise ValueError(
                f"span {data.get('span')} belongs to a merged fleet trace "
                f"(shard {data['shard']!r}); span ids are per shard, so read "
                "the per-shard export instead"
            )
        return cls(
            int(data["span"]),
            int(data["trace"]),
            int(data["parent"]),
            str(data["hop"]),
            float(data["start_ms"]),
            float(data["end_ms"]),
            dict(data.get("attrs") or {}),
        )


#: A span as a plain value, the form in which the recorder keeps it and
#: spans leave it — into a pickle, to the line writer, across a pipe:
#: ``(span_id, trace_id, parent_id, hop, start_ms, end_ms, keys,
#: *values)``, where ``keys`` is the attrs' key tuple (``()`` for no
#: attrs) and ``values`` their values in that order.  Each call site of
#: :meth:`HopHandle.record` passes one constant ``keys`` tuple, so the
#: rows it records share it and a span holds no dict.
SpanRow = Tuple[Any, ...]


def _span_of(row: SpanRow) -> Span:
    """The :class:`Span` a row holds, with attrs of its own."""
    return Span(*row[:6], dict(zip(row[6], row[7:])))


class HopHandle:
    """A pre-bound recording handle for one hop kind.

    Components grab their handles once at construction
    (``kernel.spans.hop("buffer.dwell")``) so the per-message path is a
    counter bump, a ring append and one histogram observation — no name
    lookups.  The caller checks ``SpanRecorder.enabled`` first: a
    disabled recorder records nothing.
    """

    __slots__ = ("_recorder", "name", "histogram")

    def __init__(self, recorder: "SpanRecorder", name: str, histogram: Histogram) -> None:
        self._recorder = recorder
        self.name = name
        self.histogram = histogram

    def record(
        self,
        trace_id: int,
        parent_id: int,
        start_ms: float,
        end_ms: float,
        keys: Tuple[Any, ...] = (),
        *values: Any,
    ) -> int:
        """Record one completed span; returns its id.

        The attrs are ``keys``, their distinct names, and ``values``,
        one per name in that order (none: no attrs).  A call site
        passes one constant tuple of names, so every row it records
        shares that tuple, and no dict is built to be taken apart again.
        """
        recorder = self._recorder
        span_id = next(recorder._span_ids)
        recorder.recorded += 1
        recorder._ring.append(
            (span_id, trace_id, parent_id, self.name, start_ms, end_ms, keys, *values)
        )
        self.histogram.observe(end_ms - start_ms)
        return span_id


class SpanRecorder:
    """Bounded ring of causally-linked spans.

    The ring keeps the most recent ``max_spans`` spans (the flight
    recorder).  Each hop's latency histogram lives in ``metrics`` as
    ``hop.<name>`` and aggregates over the *whole* run regardless of
    eviction, so long simulations still report complete latency
    distributions.
    """

    #: What the registry reads off the recorder (:meth:`MetricsRegistry.attach`).
    METRICS = {"spans.recorded": "recorded", "spans.dropped": "dropped"}

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self._metrics = metrics
        metrics.attach(self)
        self._clock = clock
        self.enabled = True
        self.max_spans = max_spans
        self._ring: "deque[SpanRow]" = deque(maxlen=max_spans)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._hops: Dict[str, HopHandle] = {}
        #: Spans ever recorded (including those since evicted).
        self.recorded = 0
        #: Causal parent for synchronous call chains that cannot thread a
        #: span id through their signatures (flush → transport.send).
        #: Set/reset by the initiating component around the call.
        self.active_parent = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Kill switch: nothing is recorded from here on.

        Every call site of :meth:`HopHandle.record` checks ``enabled``
        first, so a disabled recorder's handles are never called.
        """
        self.enabled = False

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring so far."""
        return self.recorded - len(self._ring)

    def now(self) -> float:
        if self._clock is None:
            raise ValueError("no clock attached")
        return self._clock()

    # ------------------------------------------------------------------
    # Handles and trace ids
    # ------------------------------------------------------------------
    def hop(self, name: str) -> HopHandle:
        """Create-or-get the pre-bound handle for one hop kind."""
        handle = self._hops.get(name)
        if handle is None:
            histogram = self._metrics.histogram(f"hop.{name}")
            handle = self._hops[name] = HopHandle(self, name, histogram)
        return handle

    def tag(self, envelope) -> int:
        """Assign (or return) the envelope's per-kernel trace id.

        Idempotent — a message forwarded hop to hop keeps the id it was
        given at its first traced publish.  Returns 0 when disabled so
        untraced runs never consume ids (determinism across toggles).
        """
        trace_id = envelope.trace_id
        if trace_id:
            return trace_id
        if not self.enabled:
            return 0
        trace_id = next(self._trace_ids)
        envelope.trace_id = trace_id
        return trace_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(self, hop: Optional[str] = None) -> List[Span]:
        """Spans still in the ring, oldest first, optionally of one hop."""
        return [_span_of(row) for row in self._ring if hop is None or row[3] == hop]

    def trace_ids(self) -> List[int]:
        """Distinct message trace ids still represented in the ring."""
        return sorted({row[1] for row in self._ring if row[1]})

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Span]:
        return map(_span_of, self._ring)


def _rows(spans: Union[SpanRecorder, Iterable[Span]]) -> Iterable[SpanRow]:
    if isinstance(spans, SpanRecorder):
        return spans._ring
    return (span.row for span in spans)


def span_rows(spans: Union[SpanRecorder, Iterable[Span]]) -> List[SpanRow]:
    """``spans`` as rows, in the order given: a recorder's ring as it
    stands, with no conversion."""
    return list(_rows(spans))


def span_tree(spans: Iterable[Span], trace_id: int) -> List[Tuple[int, Span]]:
    """(depth, span) rows for one trace, parents before children.

    Spans whose parent is missing (evicted from the ring, or node-scoped)
    appear as roots.  Ordering is by span id within each depth — the
    deterministic causal order.
    """
    mine = sorted(
        (span for span in spans if span.trace_id == trace_id),
        key=lambda span: span.span_id,
    )
    by_parent: Dict[int, List[Span]] = {}
    ids = {span.span_id for span in mine}
    roots: List[Span] = []
    for span in mine:
        if span.parent_id in ids:
            by_parent.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    rows: List[Tuple[int, Span]] = []

    def visit(span: Span, depth: int) -> None:
        rows.append((depth, span))
        for child in by_parent.get(span.span_id, []):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return rows


def render_span_tree(spans: Iterable[Span], trace_id: int) -> str:
    """ASCII span tree for one message's lifecycle."""
    rows = span_tree(spans, trace_id)
    if not rows:
        return f"trace #{trace_id}: no spans in the flight recorder"
    origin = rows[0][1].start_ms
    lines = [f"trace #{trace_id} (t0 = {origin:.0f} ms)"]
    for depth, span in rows:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted((span.attrs or {}).items())
        )
        lines.append(
            f"  {'  ' * depth}{span.hop:<20} +{span.start_ms - origin:>10.0f} ms"
            f"  ({span.duration_ms:>8.0f} ms){('  ' + attrs) if attrs else ''}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The span line: the trace plane's one serialised form
# ---------------------------------------------------------------------------
#
# One span is one JSON object on one line, seven keys in sorted order,
# compact separators, ASCII only:
#
#   {"attrs":{...},"end_ms":E,"hop":"H","parent":P,"span":S,"start_ms":B,"trace":T}
#
# The export, the fleet merge and the golden files lean on exactly these
# bytes, so the layout lives here and nowhere else:
# :func:`span_lines` is the only writer, and
# :func:`split_span_line` the only code that takes a line apart without
# parsing it.  A line of a merged fleet trace carries one more member,
# ``,"shard":"<id>"`` between ``"parent"`` and ``"span"`` (where it
# sorts); the writer puts it there when given the shard, so a fleet's
# own lines are never taken apart (:func:`ordered_span_lines`).

#: The reference encoding of a line is this encoder applied to
#: ``span.to_dict()``; the writer hands it every value it does not type
#: itself.
_STOCK_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?|NaN|-?Infinity"
_SPAN_LINE = re.compile(
    r'\{"attrs":\{.*\}'
    rf',"end_ms":(?P<end_ms>{_NUMBER})'
    r',"hop":"[^"\\]*(?:\\.[^"\\]*)*"'
    r',"parent":-?[0-9]+'
    r'(?P<shard_goes_here>),"span":(?P<span>-?[0-9]+)'
    rf',"start_ms":(?P<start_ms>{_NUMBER})'
    r',"trace":-?[0-9]+\}'
)


class _QuotedStrings(dict):
    """``str`` → its JSON string literal, filled on first use."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = json.encoder.encode_basestring_ascii(text)
        return literal


#: The types of a row's first seven members that :meth:`_LineWriter.lines`
#: writes in one f-string: int ids, a str hop, float times, the keys.
_FAST_ROW = (int, int, int, str, float, float, tuple)
#: Attr value types whose text is one scalar of the stock encoder's, so
#: that equal values of one type always print alike (bar ``±0.0``).
_FAST_VALUES = frozenset({str, int, bool, float, type(None)})
#: A memo that reaches this many texts starts over, so a ring whose
#: values rarely repeat holds no more of them than this while it is
#: written; times, which repeat near each other, keep hitting.
_MEMO_LIMIT = 4096


def _keep(memo: Dict[Any, str], key: Any, text: str) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = text


class _LineWriter:
    """The memo of one :func:`span_lines` call: each distinct value's
    text, made once and reused.

    A run's ring repeats a few values across tens of thousands of spans
    (a dozen hops, a few thousand distinct attrs, a few dozen times), so
    the common row — int ids, a str hop, float times, attr values of the
    scalar types — is one f-string over remembered texts: the attrs'
    text keyed by the row's types and its ``keys, *values`` tail, the
    hop's ``"hop":…,"parent":`` head, and each float time's text.  Keys
    hold the types because values that compare equal can print
    differently (``1``, ``1.0``, ``True``); and ``0.0`` equals ``-0.0``,
    so neither a zero time nor attrs holding a zero float is remembered.
    A ``NaN`` equals only itself, the very object, and the memo holds it
    alive.  Every other row is written by :meth:`line`, the general
    path, which hands what it does not type itself to the stock encoder.
    Both paths give the reference encoding byte for byte and fail where
    it fails.
    """

    def __init__(self, shard: Optional[str]) -> None:
        self.quoted = _QuotedStrings()
        self.member = "" if shard is None else ',"shard":' + self.quoted[shard]
        #: A row's member types → its attrs texts by ``row[6:]``, or
        #: ``False`` for a row the general path writes.
        self.plans: Dict[tuple, Union[Dict[tuple, str], bool]] = {}
        self.heads: Dict[str, str] = {}
        #: A nonzero float span time → its text, rounded.
        self.times: Dict[float, str] = {}

    def scalar(self, value: Any) -> str:
        kind = type(value)
        if kind is str:
            return self.quoted[value]
        if kind is int or (kind is float and math.isfinite(value)):
            return repr(value)
        return _STOCK_ENCODE(value)

    def encode_attrs(self, keys: tuple, values: tuple) -> str:
        """The attrs' text: sorted by key, or the stock encoder's when a
        key is not a string."""
        for key in keys:  # before the sort: mixed key types do not compare
            if type(key) is not str:
                return _STOCK_ENCODE(dict(zip(keys, values)))
        quoted, scalar = self.quoted, self.scalar
        return "{" + ",".join(
            [quoted[key] + ":" + scalar(value) for key, value in sorted(zip(keys, values))]
        ) + "}"

    def time(self, time: Any) -> str:
        text = self.scalar(round(time, 3))
        if type(time) is float and time:
            _keep(self.times, time, text)
        return text

    def line(self, row: SpanRow) -> str:
        """The general path: any row the stock encoder can write."""
        scalar = self.scalar
        return (
            f'{{"attrs":{self.encode_attrs(row[6], row[7:]) if row[6] else "{}"}'
            f',"end_ms":{self.time(row[5])}'
            f',"hop":{scalar(row[3])}'
            f',"parent":{scalar(row[2])}{self.member}'
            f',"span":{scalar(row[0])}'
            f',"start_ms":{self.time(row[4])}'
            f',"trace":{scalar(row[1])}}}'
        )

    def plan(self, kinds: tuple) -> Union[Dict[tuple, str], bool]:
        """A row shape seen for the first time: its attrs memo, or
        ``False`` if the general path writes it."""
        fast = kinds[:7] == _FAST_ROW and _FAST_VALUES.issuperset(kinds[7:])
        memo = self.plans[kinds] = {} if fast else False
        return memo

    def new_attrs(self, memo: Dict[tuple, str], tail: tuple) -> str:
        keys, values = tail[0], tail[1:]
        text = self.encode_attrs(keys, values)
        if all(type(key) is str for key in keys) and all(
            value or type(value) is not float for value in values
        ):
            _keep(memo, tail, text)
        return text

    def new_head(self, hop: str) -> str:
        head = self.heads[hop] = f',"hop":{self.quoted[hop]},"parent":'
        return head

    def lines(self, rows: Iterable[SpanRow]) -> List[str]:
        plans, heads, times = self.plans, self.heads, self.times
        member = self.member
        out: List[str] = []
        append = out.append
        for row in rows:
            # Built at its size: tuple(map(...)) guesses ten and resizes,
            # and the resized tuples freed pile up on free lists no row
            # draws from, holding on to the heap the lines are in.
            kinds = (*map(type, row),)
            memo = plans.get(kinds)
            if memo is None:
                memo = self.plan(kinds)
            if memo is False:
                append(self.line(row))
                continue
            tail = row[6:]
            attrs = memo.get(tail) or self.new_attrs(memo, tail)
            start, end = row[4], row[5]
            append(
                f'{{"attrs":{attrs}'
                f',"end_ms":{times.get(end) or self.time(end)}'
                f'{heads.get(row[3]) or self.new_head(row[3])}{row[2]}{member}'
                f',"span":{row[0]}'
                f',"start_ms":{times.get(start) or self.time(start)}'
                f',"trace":{row[1]}}}'
            )
        return out


def span_lines(rows: Iterable[SpanRow], shard: Optional[str] = None) -> List[str]:
    """The one line writer: a line per row, in the layout above.

    Each distinct value is formatted once per call (:class:`_LineWriter`):
    an attrs object, a hop's head and a span time are remembered the
    first time they are written, so the common row is one f-string over
    remembered texts.  Ints and finite floats are their ``repr``;
    whatever else a span carries — ``inf``/``nan``, nested attrs,
    non-string attr keys, ids that are not ints — goes to the stock
    encoder, so the result equals the reference encoding byte for byte
    and fails where it fails.  ``shard`` adds the ``"shard"`` member to
    every line, the id quoted once.
    """
    return _LineWriter(shard).lines(rows)


def spans_to_jsonl_lines(spans: Union[SpanRecorder, Iterable[Span]]) -> List[str]:
    """One compact, key-stable JSON document per span (deterministic):
    the standalone export."""
    return span_lines(_rows(spans))


#: The merged trace is ordered by ``(start_ms, end_ms, shard, span)`` —
#: a :data:`TraceKey` per line, holding the times as the line prints
#: them (rounded, integers kept integers) and passed through
#: :func:`sort_time`.
TraceKey = Tuple[float, float, str, int]

_INF = float("inf")


def sort_time(value: float) -> float:
    """A span time as the trace order compares it: ``NaN`` as +Infinity.

    No comparison places ``NaN`` among numbers, so a key holding one is
    not ordered against its neighbours and the merged order would hang
    on which sort ran over which input order — pre-sorted per shard or
    not, one shard or four.  And ``round`` hands back a fresh ``NaN``
    per call, which tuple comparison does not even take for equal to
    the next one.  As +Infinity two ``NaN`` times tie, the key falls
    through to ``(shard, span)``, and the order is total.  The line
    still prints ``NaN``.
    """
    return value if value == value else _INF


def ordered_span_lines(
    rows: Sequence[SpanRow], shard: str
) -> Tuple[List[TraceKey], List[str]]:
    """A shard's rows as its run of the merged fleet trace.

    Returns ``(keys, lines)``, both in trace order: the sort key of
    each span, built from the span's own values, and its line already
    carrying ``shard`` — everything the fleet merge needs to interleave
    this run with the other shards' without reading a line back.
    """
    keys = [
        (sort_time(round(row[4], 3)), sort_time(round(row[5], 3)), shard, row[0])
        for row in rows
    ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return (
        [keys[index] for index in order],
        span_lines([rows[index] for index in order], shard),
    )


def _number(text: str) -> float:
    """The value ``json.loads`` reads from a number the pattern matched,
    as the trace order compares it (:func:`sort_time`)."""
    if text.lstrip("-").isdigit():
        return int(text)
    return sort_time(float(text))


def split_span_line(line: str) -> Optional[Tuple[float, float, int, str, str]]:
    """Take one exported line apart without parsing its JSON.

    Returns ``(start_ms, end_ms, span, head, tail)`` — the numbers as
    :func:`ordered_span_lines` would put them in the line's sort key,
    and the two halves of the line around the point where a
    ``,"shard":…`` member belongs — or ``None`` when ``line`` is not in
    the exporter's layout.

    Why a pattern is enough: inside a JSON string every ``"`` is
    escaped, so ``,"end_ms":`` with bare quotes can only be a member
    boundary; numbers hold no comma or quote; and the pattern is
    anchored at both ends.  An ``attrs`` value that imitates the tail
    (keys named ``end_ms``/``hop``/…, strings spelling it out) therefore
    cannot end the match early or start it late — the real tail is the
    only substring of that shape that reaches the closing brace.  The
    ids must be integers; anything else is not a line this module wrote.
    """
    match = _SPAN_LINE.fullmatch(line)
    if match is None:
        return None
    start_ms, end_ms, span = match.group("start_ms", "end_ms", "span")
    cut = match.start("shard_goes_here")
    return _number(start_ms), _number(end_ms), int(span), line[:cut], line[cut:]
