"""CSV export: get simulation data out for external plotting/analysis.

The ASCII renderer (:mod:`repro.analysis.plotting`) covers quick looks;
users who want real figures (matplotlib, gnuplot, R) can dump any trace
or result table to CSV with these helpers.  No dependency beyond the
standard library.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Optional, Sequence, TextIO, Union

from ..sim.trace import Interval, IntervalTrack, TimeSeries, TraceRecorder


def _writer(target: Union[str, TextIO, None]):
    """Return (file_object, should_close, buffer_or_none)."""
    if target is None:
        buffer = io.StringIO()
        return buffer, False, buffer
    if isinstance(target, str):
        handle = open(target, "w", newline="", encoding="utf-8")
        return handle, True, None
    return target, False, None


def write_text(target: Union[str, TextIO, None], text: str) -> Optional[str]:
    """The one write path every exporter shares.

    ``target`` may be a path (written atomically-enough: open, write,
    close), an open file, ``-`` / ``None`` for stdout.  Returns the text
    so callers can chain.  Centralising this keeps ``--output`` /
    ``--telemetry`` / ``--report`` flags behaving identically across
    subcommands.
    """
    import sys

    if target is None or target == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
        return text
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text
    target.write(text)
    return text


def series_to_csv(series: TimeSeries, target: Union[str, TextIO, None] = None) -> Optional[str]:
    """Write a (time, value) series as ``time_ms,value`` rows.

    ``target`` may be a path, an open file, or ``None`` to get the CSV
    back as a string.
    """
    handle, close, buffer = _writer(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(["time_ms", series.name or "value"])
        for time_ms, value in series:
            writer.writerow([f"{time_ms:.3f}", repr(value)])
    finally:
        if close:
            handle.close()
    return buffer.getvalue() if buffer is not None else None


def intervals_to_csv(
    tracks: Sequence[IntervalTrack],
    target: Union[str, TextIO, None] = None,
    until: Optional[float] = None,
) -> Optional[str]:
    """Write activity tracks as ``track,start_ms,end_ms,label`` rows."""
    handle, close, buffer = _writer(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(["track", "start_ms", "end_ms", "label"])
        for track in tracks:
            for interval in track.closed_intervals(until):
                writer.writerow(
                    [track.name, f"{interval.start:.3f}", f"{interval.end:.3f}", interval.label]
                )
    finally:
        if close:
            handle.close()
    return buffer.getvalue() if buffer is not None else None


def trace_to_csv(trace: TraceRecorder, target: Union[str, TextIO, None] = None) -> Optional[str]:
    """Write a trace log as ``time_ms,source,kind,data`` rows."""
    import json

    handle, close, buffer = _writer(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(["time_ms", "source", "kind", "data"])
        for event in trace:
            writer.writerow(
                [f"{event.time:.3f}", event.source, event.kind, json.dumps(event.data, sort_keys=True)]
            )
    finally:
        if close:
            handle.close()
    return buffer.getvalue() if buffer is not None else None


def spans_to_csv(spans: Iterable, target: Union[str, TextIO, None] = None) -> Optional[str]:
    """Write lifecycle spans as flat CSV rows (attrs as sorted JSON)."""
    import json

    handle, close, buffer = _writer(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(["span", "trace", "parent", "hop", "start_ms", "end_ms", "attrs"])
        for span in spans:
            writer.writerow(
                [
                    span.span_id,
                    span.trace_id,
                    span.parent_id,
                    span.hop,
                    f"{span.start_ms:.3f}",
                    f"{span.end_ms:.3f}",
                    json.dumps(dict(span.attrs or {}), sort_keys=True),
                ]
            )
    finally:
        if close:
            handle.close()
    return buffer.getvalue() if buffer is not None else None


def spans_to_jsonl(spans: Iterable, target: Union[str, TextIO, None] = None) -> Optional[str]:
    """Write lifecycle spans as JSON Lines, one span per line.

    The line layout is owned by :func:`repro.sim.spans.spans_to_jsonl_lines`
    and deterministic, so two identical seeded runs export byte-identical
    files — CI pins this property.  The text is assembled with one join
    and, for a path or file ``target``, written with one call.
    """
    from ..sim.spans import spans_to_jsonl_lines

    lines = spans_to_jsonl_lines(spans)
    lines.append("")  # every line, the last included, ends in a newline
    text = "\n".join(lines)
    if target is None:
        return text
    handle, close, _ = _writer(target)
    try:
        handle.write(text)
    finally:
        if close:
            handle.close()
    return None


def spans_from_jsonl(source: Union[str, TextIO]) -> List:
    """Read spans back from a JSON Lines export (round-trip of
    :func:`spans_to_jsonl`).  ``source`` is a path or an open file.

    Reads per-shard exports only: a merged fleet trace (lines carrying
    ``shard``) raises ``ValueError`` — see :meth:`Span.from_dict`.
    """
    import json

    from ..sim.spans import Span

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = source.read().splitlines()
    return [Span.from_dict(json.loads(line)) for line in lines if line.strip()]


def rows_to_csv(
    header: Sequence[str],
    rows: Iterable[Sequence],
    target: Union[str, TextIO, None] = None,
) -> Optional[str]:
    """Generic table export (benchmark results, Table 4 rows, ...)."""
    handle, close, buffer = _writer(target)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    finally:
        if close:
            handle.close()
    return buffer.getvalue() if buffer is not None else None
