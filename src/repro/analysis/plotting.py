"""Terminal plotting: render time series and activity tracks as text.

The paper's figures are oscilloscope-style traces (Figure 3) and activity
timelines (Figure 4).  This module renders both as ASCII so benchmarks
and examples can *show* the reproduced figure, not only its extracted
numbers — with no plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sim.trace import Interval, TimeSeries

#: Vertical fill characters from empty to full.
_FILL = " ▁▂▃▄▅▆▇█"

#: A series chart's columns, and its y-axis unit.
WIDTH = 78
Y_LABEL = "W"


def render_series(
    series: TimeSeries,
    height: int = 10,
    start_ms: Optional[float] = None,
    end_ms: Optional[float] = None,
    annotations: Optional[Sequence[Tuple[float, str]]] = None,
) -> str:
    """Render a power series (watts) as an ASCII area chart,
    :data:`WIDTH` columns wide.

    ``annotations`` are (time_ms, label) markers drawn under the x-axis
    (Figure 3's a/b/c/d instants).
    """
    if len(series) == 0:
        return "(empty series)"
    t0 = series.times[0] if start_ms is None else start_ms
    t1 = series.times[-1] if end_ms is None else end_ms
    if t1 <= t0:
        raise ValueError("empty time window")
    window = series.window(t0, t1)
    if len(window) == 0:
        return "(no samples in window)"

    # Downsample to columns by taking the max per bucket (peaks matter
    # in power traces; a mean would hide the blips).
    width = WIDTH
    columns = [0.0] * width
    for t, v in window:
        index = min(int((t - t0) / (t1 - t0) * width), width - 1)
        columns[index] = max(columns[index], v)
    peak = max(columns) or 1.0

    rows: List[str] = []
    for row in range(height, 0, -1):
        threshold_hi = peak * row / height
        threshold_lo = peak * (row - 1) / height
        line = []
        for value in columns:
            if value >= threshold_hi:
                line.append(_FILL[-1])
            elif value <= threshold_lo:
                line.append(" ")
            else:
                frac = (value - threshold_lo) / (threshold_hi - threshold_lo)
                line.append(_FILL[max(1, min(8, int(frac * 8) + 1))])
        label = f"{threshold_hi:6.2f} {Y_LABEL} " if row in (height, 1) else " " * (8 + len(Y_LABEL))
        rows.append(label + "|" + "".join(line))

    axis = " " * (8 + len(Y_LABEL)) + "+" + "-" * width
    rows.append(axis)
    footer = [" "] * (width + 1)
    if annotations:
        for time_ms, label in annotations:
            if not t0 <= time_ms <= t1:
                continue
            index = min(int((time_ms - t0) / (t1 - t0) * width), width - 1)
            for offset, ch in enumerate(label):
                if index + offset < len(footer):
                    footer[index + offset] = ch
    rows.append(" " * (8 + len(Y_LABEL)) + "".join(footer))
    duration_s = (t1 - t0) / 1000.0
    rows.append(" " * (8 + len(Y_LABEL)) + f"0 s {'':<{max(0, width - 12)}}{duration_s:6.1f} s")
    return "\n".join(rows)


def render_tracks(
    tracks: Sequence[Tuple[str, List[Interval]]],
    start_ms: float,
    end_ms: float,
    width: int = WIDTH,
) -> str:
    """Render activity tracks as aligned block rows (Figure 4 style)."""
    if end_ms <= start_ms:
        raise ValueError("empty time window")
    label_width = max((len(name) for name, _ in tracks), default=0) + 1
    lines: List[str] = []
    for name, intervals in tracks:
        cells = [" "] * width
        for interval in intervals:
            if interval.end < start_ms or interval.start > end_ms:
                continue
            first = max(0, int((interval.start - start_ms) / (end_ms - start_ms) * width))
            last = min(width - 1, int((interval.end - start_ms) / (end_ms - start_ms) * width))
            for i in range(first, last + 1):
                cells[i] = "█"
        lines.append(f"{name:<{label_width}}|" + "".join(cells) + "|")
    minutes = (end_ms - start_ms) / 60_000.0
    lines.append(f"{'':<{label_width}} 0 min{'':<{max(0, width - 16)}}{minutes:6.1f} min")
    return "\n".join(lines)
