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
import operator
import re
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import Histogram

#: Default flight-recorder capacity.  ~56 bytes of slots plus an attrs
#: dict per span; 65536 spans keep the recorder in the tens of MB even
#: when every script call in a fleet simulation is traced.
DEFAULT_MAX_SPANS = 65_536


class Span:
    """One recorded hop of a message (or node) lifecycle."""

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

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

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


#: A span as a plain value, the form in which spans leave their
#: recorder — into a pickle, to the line writer, across a pipe: the
#: seven fields in slot order, so ``Span(*row)`` is the span again.
SpanRow = Tuple[int, int, int, str, float, float, Optional[Dict[str, Any]]]


_row_of = operator.attrgetter(*Span.__slots__)


def span_rows(spans: Iterable[Span]) -> List[SpanRow]:
    """``spans`` as rows, in the order given."""
    return list(map(_row_of, spans))


class HopHandle:
    """A pre-bound recording handle for one hop kind.

    Components grab their handles once at construction
    (``kernel.spans.hop("buffer.dwell")``) so the per-message path is a
    counter bump, a ring append and one histogram observation — no name
    lookups, no branching on configuration: a disabled recorder's
    handles are all :class:`NullHopHandle`.
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
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record one completed span; returns its id."""
        recorder = self._recorder
        span_id = next(recorder._span_ids)
        recorder.recorded += 1
        recorder._ring.append(
            Span(span_id, trace_id, parent_id, self.name, start_ms, end_ms, attrs)
        )
        self.histogram.observe(end_ms - start_ms)
        return span_id


class NullHopHandle(HopHandle):
    """The disabled hop handle: ``record`` is a bare ``return 0``.

    ``disable()`` retargets every live handle to this class (the slot
    layout is identical, so ``__class__`` assignment is legal), which
    makes the disabled path a single method dispatch — no attribute
    chain, no flag branch — without invalidating the handles components
    pre-bound at construction.
    """

    __slots__ = ()

    def record(
        self,
        trace_id: int,
        parent_id: int,
        start_ms: float,
        end_ms: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        return 0


class SpanRecorder:
    """Bounded ring of causally-linked spans plus per-hop histograms.

    The ring keeps the most recent ``max_spans`` spans (the flight
    recorder); per-hop latency histograms aggregate over the *whole* run
    regardless of eviction, so long simulations still report complete
    latency distributions.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self._clock = clock
        self.enabled = True
        self.max_spans = max_spans
        self._ring: "deque[Span]" = deque(maxlen=max_spans)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._hops: Dict[str, HopHandle] = {}
        #: Spans ever recorded (including those since evicted).
        self.recorded = 0
        #: Causal parent for synchronous call chains that cannot thread a
        #: span id through their signatures (flush → transport.send).
        #: Set/reset by the initiating component around the call.
        self.active_parent = 0

    def __getstate__(self) -> Dict[str, Any]:
        """The ring pickles as rows: a shard snapshot is mostly this
        ring, and a slotted object costs several tuples to dump or load."""
        return {**self.__dict__, "_ring": span_rows(self._ring)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._ring = deque(itertools.starmap(Span, self._ring), self.max_spans)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Kill switch: every hop handle becomes a true no-op."""
        self.enabled = False
        for handle in self._hops.values():
            handle.__class__ = NullHopHandle

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
            histogram = Histogram(f"hop.{name}")
            cls = HopHandle if self.enabled else NullHopHandle
            handle = self._hops[name] = cls(self, name, histogram)
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
        return [span for span in self._ring if hop is None or span.hop == hop]

    def trace_ids(self) -> List[int]:
        """Distinct message trace ids still represented in the ring."""
        seen = sorted({span.trace_id for span in self._ring if span.trace_id})
        return seen

    def hop_names(self) -> List[str]:
        return sorted(self._hops)

    def hop_histogram(self, name: str) -> Histogram:
        return self.hop(name).histogram

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def latency_table(self) -> str:
        """Per-hop latency summary (deterministic ordering)."""
        lines = [
            f"{'hop':<24} {'count':>9} {'mean ms':>12} {'min ms':>10} {'max ms':>12}"
        ]
        for name in self.hop_names():
            histogram = self._hops[name].histogram
            if histogram.count == 0:
                continue
            lines.append(
                f"{name:<24} {histogram.count:>9,} {histogram.mean:>12,.1f} "
                f"{histogram.min:>10,.1f} {histogram.max:>12,.1f}"
            )
        return "\n".join(lines)

    def latency_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Machine-readable per-hop latency summary."""
        out: Dict[str, Dict[str, float]] = {}
        for name in self.hop_names():
            histogram = self._hops[name].histogram
            if histogram.count == 0:
                continue
            out[name] = {
                "count": histogram.count,
                "mean_ms": round(histogram.mean, 3),
                "min_ms": histogram.min,
                "max_ms": histogram.max,
            }
        return out

    def latency_digest(self) -> Dict[str, Dict[str, float]]:
        """Additive per-hop digest: count / sum / min / max, no mean.

        The telemetry plane ships this at every epoch barrier.  Counts
        and sums combine across shards by plain addition (mins/maxes by
        min/max), so the fleet aggregator can merge K digests without
        recomputing anything from raw spans.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name in self.hop_names():
            histogram = self._hops[name].histogram
            if histogram.count == 0:
                continue
            out[name] = {
                "count": histogram.count,
                "sum_ms": round(histogram.total, 3),
                "min_ms": histogram.min,
                "max_ms": histogram.max,
            }
        return out


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


def span_lines(rows: Iterable[SpanRow], shard: Optional[str] = None) -> List[str]:
    """The one line writer: a line per row, in the layout above.

    Each span's bytes are produced once: strings are quoted through a
    per-call memo (a run has a few dozen distinct hop names, attr keys
    and attr strings across tens of thousands of spans), ints and finite
    floats are their ``repr``, and whatever else a span carries — bools,
    ``None``, ``inf``/``nan``, nested attrs, non-string attr keys — goes
    to the stock encoder, so the result equals the reference encoding
    byte for byte and fails where it fails.  ``shard`` adds the
    ``"shard"`` member to every line, the id quoted once.
    """
    quoted = _QuotedStrings()
    isfinite = math.isfinite
    member = "" if shard is None else ',"shard":' + quoted[shard]

    def scalar(value: Any) -> str:
        kind = type(value)
        if kind is str:
            return quoted[value]
        if kind is int or (kind is float and isfinite(value)):
            return repr(value)
        return _STOCK_ENCODE(value)

    def attrs_json(attrs: Dict[str, Any]) -> str:
        for key in attrs:  # before the sort: mixed key types do not compare
            if type(key) is not str:
                return _STOCK_ENCODE(attrs)
        return "{" + ",".join(
            [quoted[key] + ":" + scalar(value) for key, value in sorted(attrs.items())]
        ) + "}"

    return [
        f'{{"attrs":{attrs_json(attrs) if attrs else "{}"}'
        f',"end_ms":{scalar(round(end_ms, 3))}'
        f',"hop":{scalar(hop)}'
        f',"parent":{scalar(parent_id)}{member}'
        f',"span":{scalar(span_id)}'
        f',"start_ms":{scalar(round(start_ms, 3))}'
        f',"trace":{scalar(trace_id)}}}'
        for span_id, trace_id, parent_id, hop, start_ms, end_ms, attrs in rows
    ]


def spans_to_jsonl_lines(spans: Iterable[Span]) -> List[str]:
    """One compact, key-stable JSON document per span (deterministic):
    the standalone export."""
    return span_lines(map(_row_of, spans))


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
        (sort_time(round(start_ms, 3)), sort_time(round(end_ms, 3)), shard, span_id)
        for span_id, _, _, _, start_ms, end_ms, _ in rows
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
