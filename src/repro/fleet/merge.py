"""Merging per-shard artifacts into one canonical fleet view.

The merged fleet report must be byte-identical to the report the same
fleet produces in a single shard — that is the whole correctness claim
of the coordinator, and both the hypothesis property test and the CI
fleet-determinism job compare the bytes.  The merge itself is therefore
deliberately boring: disjoint unions for per-JID tables, sums for the
conserved counters, and hard errors on anything that should be
impossible (overlapping JIDs, shards disagreeing on the clock or seed).

Why plain sums are exact:

* every stanza is routed by exactly one switchboard — the destination's
  (egress on the sender counts in ``stanzas_egressed``, which the
  report intentionally omits) — so ``stanzas_routed`` / ``_lost`` /
  ``_stored_offline`` partition across shards;
* a cross-shard send costs the sender shard zero kernel events (egress
  is synchronous inside the submitting event) and the receiver exactly
  the one ``_route`` event the solo run would have executed, so
  ``events_executed`` partitions too.

Metrics planes merge the same way (counters and gauges sum, histograms
combine count/sum/min/max with the mean recomputed).  Span traces merge
into one JSONL stream with a ``shard`` member on every line — span ids
are only unique per shard, so the shard id is part of the merged
identity.  :func:`merge_trace_rows` interleaves per-shard runs of that
stream and joins once.  Its two front-ends: :func:`merge_span_rows`
orders, stamps and writes the rows a fleet's workers hand over, when
and where the trace is read; :func:`merge_trace_jsonl` takes per-shard
files already exported.

Edge cases are first-class: a shard with zero devices still produces a
valid (empty-table) report and merges cleanly — partitioners may hand a
small fleet to many workers — and a shard that recorded no trace events
contributes an empty run (or an empty JSONL text), which the trace merge
treats as zero lines, not an error.  The telemetry plane's
:func:`repro.obs.timeline.aggregate_totals` leans on exactly the
partitioning argument above: every field it sums is one of the
conserved counters, so fleet totals equal the solo run's.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..sim.spans import SpanRow, TraceKey, ordered_span_lines, split_span_line


class MergeError(ValueError):
    """Per-shard artifacts that cannot form one consistent fleet view."""


def merge_fleet_reports(
    reports: Sequence[Dict[str, Any]], fleet_id: str
) -> Dict[str, Any]:
    """Combine per-shard :meth:`Shard.fleet_report` dicts into one.

    The result has exactly the single-shard schema, with ``shard`` set
    to ``fleet_id`` — compare it against a solo run built with the same
    shard id.
    """
    if not reports:
        raise MergeError("no shard reports to merge")
    devices: Dict[str, Any] = {}
    collectors: Dict[str, Any] = {}
    events = 0
    server = {"stanzas_lost": 0, "stanzas_routed": 0, "stanzas_stored_offline": 0}
    clocks = set()
    seeds = set()
    for report in reports:
        for jid, entry in report["devices"].items():
            if jid in devices:
                raise MergeError(f"device {jid} reported by more than one shard")
            devices[jid] = entry
        for jid, entry in report["collectors"].items():
            if jid in collectors:
                raise MergeError(f"collector {jid} reported by more than one shard")
            collectors[jid] = entry
        events += report["events_executed"]
        clocks.add(report["now_ms"])
        seeds.add(report["seed"])
        for key in server:
            server[key] += report["server"][key]
    if len(clocks) != 1:
        raise MergeError(
            f"shards disagree on the clock at merge time: {sorted(clocks)} — "
            "a worker did not reach the final barrier"
        )
    if len(seeds) != 1:
        raise MergeError(f"shards were built from different seeds: {sorted(seeds)}")
    return {
        "collectors": {jid: collectors[jid] for jid in sorted(collectors)},
        "devices": {jid: devices[jid] for jid in sorted(devices)},
        "events_executed": events,
        "now_ms": clocks.pop(),
        "seed": seeds.pop(),
        "server": server,
        "shard": fleet_id,
    }


def report_to_json(report: Dict[str, Any]) -> str:
    """Same canonical encoding as :meth:`Shard.fleet_report_json`."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def merge_metrics(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard :meth:`MetricsRegistry.snapshot` dicts.

    Scalars (counters and gauges) sum; histograms combine count/sum/
    min/max with the mean recomputed from the merged totals.
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):
                slot = merged.setdefault(
                    name, {"count": 0, "sum": 0.0, "min": None, "max": None}
                )
                slot["count"] += value["count"]
                slot["sum"] += value["sum"]
                for key, pick in (("min", min), ("max", max)):
                    if value[key] is not None:
                        slot[key] = (
                            value[key]
                            if slot[key] is None
                            else pick(slot[key], value[key])
                        )
            else:
                merged[name] = merged.get(name, 0) + value
    for value in merged.values():
        if isinstance(value, dict):
            value["mean"] = (
                round(value["sum"] / value["count"], 3) if value["count"] else 0.0
            )
    return {name: merged[name] for name in sorted(merged)}


def _interleave(
    runs: Iterable[Tuple[Sequence[TraceKey], Sequence[str]]]
) -> List[str]:
    """The lines of every run, in merged order.

    One stable sort over the concatenated keys: timsort finds K
    ascending runs in one pass and merges them, so runs that arrive
    ordered cost about a comparison a line and a single ordered run is
    not moved at all, while a run in any other order (an exported file
    is in ring order) is simply sorted.

    ``runs`` is consumed as it is read, and the keys die with this
    frame: handed an iterator that gives its runs away, the caller joins
    with the lines in memory and nothing else.
    """
    keys: List[TraceKey] = []
    lines: List[str] = []
    for run_keys, run_lines in runs:
        keys += run_keys
        lines += run_lines
    return [lines[index] for index in sorted(range(len(keys)), key=keys.__getitem__)]


def merge_trace_rows(
    runs: Iterable[Tuple[Sequence[TraceKey], Sequence[str]]]
) -> str:
    """Interleave per-shard runs of the merged trace and join them once.

    Each run is ``(keys, lines)`` as
    :func:`repro.sim.spans.ordered_span_lines` returns them: a
    ``(start_ms, end_ms, shard, span)`` key per line, and the line
    already carrying its ``shard`` member.  This is the one place the
    merged order is decided — a total order (span ids are unique per
    shard, ``NaN`` times compare as +Infinity), so the text is
    byte-deterministic whatever the worker layout.  Lines are never
    opened.
    """
    merged = _interleave(runs)
    merged.append("")  # every line, the last included, ends in a newline
    return "\n".join(merged)


def _shard_run(shard_id: str, rows: Sequence[SpanRow]):
    """``rows`` as their shard's run of the trace.  A span first meets
    the line writer here, so one it cannot write is a :class:`MergeError`
    naming shard, span and hop, chained from the writer's own error."""
    try:
        return ordered_span_lines(rows, shard_id)
    except (TypeError, ValueError) as exc:
        for row in rows:  # the slow way, once: which one was it
            try:
                ordered_span_lines([row], shard_id)
            except (TypeError, ValueError) as why:
                raise MergeError(
                    f"trace of shard {shard_id!r}, span {row[0]} ({row[3]}): "
                    f"not writable as a span line: {why}"
                ) from exc
        raise


def merge_span_rows(parts: Iterable[Tuple[str, Sequence[SpanRow]]]) -> str:
    """Write and merge ``(shard_id, rows)`` parts, each a shard's ring as
    :meth:`~repro.fleet.worker.ShardDriver.finish` hands it over, into
    the fleet trace; ``parts`` is consumed as read."""
    return merge_trace_rows(_shard_run(shard_id, rows) for shard_id, rows in parts)


def _split_traces(
    traces: Sequence[Tuple[str, str]]
) -> Iterator[Tuple[List[TraceKey], List[str]]]:
    """Per-shard export texts as :func:`merge_trace_rows` runs, in file
    order: the key read off each line, the line with ``shard`` spliced
    in."""
    for shard_id, text in traces:
        member = ',"shard":' + json.dumps(shard_id)
        keys: List[TraceKey] = []
        lines: List[str] = []
        for number, line in enumerate(text.splitlines(), 1):
            parts = split_span_line(line)
            if parts is None:
                raise MergeError(
                    f"trace of shard {shard_id!r}, line {number}: not a span "
                    f"line as the exporter writes them: {line[:160]!r}"
                )
            start_ms, end_ms, span, head, tail = parts
            keys.append((start_ms, end_ms, shard_id, span))
            lines.append(f"{head}{member}{tail}")
        yield keys, lines


def merge_trace_jsonl(traces: Sequence[Tuple[str, str]]) -> str:
    """Merge per-shard span-trace JSONL exports into one stream.

    ``traces`` is ``(shard_id, jsonl_text)`` pairs — exported per-shard
    files, or :func:`~repro.fleet.worker.collect_artifacts` texts.
    Every line gains a ``shard`` member (span ids are per-shard) and the
    stream is put in :func:`merge_trace_rows` order; this function is
    only the front-end that turns text back into the rows a fleet's own
    workers hand over directly.

    The lines are not parsed: :func:`repro.sim.spans.split_span_line`
    reads the sort key off the exporter's fixed layout and says where
    ``"shard"`` goes, so each span's bytes are copied, not re-encoded.
    A line that is not in that layout raises :class:`MergeError` naming
    the shard and the 1-based line.
    """
    return merge_trace_rows(_split_traces(traces))
