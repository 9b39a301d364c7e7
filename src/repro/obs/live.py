"""The ``repro fleet --live`` progress view, refreshed at each epoch barrier.

The coordinator hands every appended timeline frame to an observer; this
module's :class:`LiveView` is the human-facing one.  It renders a small
dashboard — sim-time progress, aggregate events/s, per-shard lag bars
(window CPU relative to the busiest shard), handoff backlog — and
repaints it in place when the stream is a TTY (ANSI cursor-up) or emits
a periodic one-line summary otherwise, so redirected runs stay greppable
instead of unreadable.

The view writes to *stderr* by design: stdout stays reserved for the
deterministic reports, and a refresh throttle (default 10 Hz) keeps a
500-barrier run from melting the terminal.  Nothing here feeds back into
the simulation — the view only reads frames.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

#: Minimum wall seconds between repaints (the final frame always paints).
REFRESH_S = 0.1
#: Width of the per-shard lag bar, in character cells.
BAR_WIDTH = 20


def _bar(fraction: float) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * BAR_WIDTH))
    return "#" * filled + "." * (BAR_WIDTH - filled)


def _sim_clock(ms: float) -> str:
    seconds = int(ms // 1000)
    return f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


class LiveView:
    """Barrier-by-barrier fleet progress on a terminal."""

    def __init__(self, total_ms: float, devices: int, shards: int) -> None:
        self.total_ms = total_ms
        self.devices = devices
        self.shards = shards
        self.stream = sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._painted_lines = 0
        # -inf: the first frame always paints regardless of the
        # machine's perf_counter epoch.
        self._last_paint = float("-inf")
        self._started = perf_counter()
        self._prev_cpu: Dict[str, float] = {}
        self.frames_seen = 0

    # ------------------------------------------------------------------
    def __call__(self, frame: Dict[str, Any]) -> None:
        """Observer hook: the coordinator calls this with every frame."""
        self.frames_seen += 1
        now = perf_counter()
        final = frame["barrier_ms"] >= self.total_ms
        if not final and now - self._last_paint < REFRESH_S:
            return
        self._last_paint = now
        self._paint(frame, now)

    # ------------------------------------------------------------------
    def _paint(self, frame: Dict[str, Any], now: float) -> None:
        samples = sorted(frame["samples"], key=lambda s: s["shard"])
        events = sum(s["metrics"]["kernel.events"] for s in samples)
        wall = max(now - self._started, 1e-9)
        fraction = min(1.0, frame["barrier_ms"] / self.total_ms)
        header = (
            f"repro fleet — {self.devices} devices / {self.shards} shard(s)   "
            f"sim {_sim_clock(frame['barrier_ms'])} / {_sim_clock(self.total_ms)} "
            f"({fraction * 100:3.0f}%)"
        )
        summary = (
            f"events {events:,} ({events / wall:,.0f} ev/s wall)   "
            f"barrier #{frame['epoch']:,}   handoffs +{frame['handoffs']:,} "
            f"(backlog {frame['backlog']:,})"
        )
        if not self._tty:
            print(f"{header}  |  {summary}", file=self.stream, flush=True)
            return
        # Per-shard lag bars: this window's CPU, relative to the busiest
        # shard — the full bar is the straggler every other worker waited
        # for at this barrier.
        deltas: List[tuple] = []
        for sample in samples:
            cpu = (sample.get("wall") or {}).get("cpu_s", 0.0)
            delta = cpu - self._prev_cpu.get(sample["shard"], 0.0)
            self._prev_cpu[sample["shard"]] = cpu
            deltas.append((sample, max(delta, 0.0)))
        busiest = max((delta for _, delta in deltas), default=0.0)
        lines = [header, summary]
        for sample, delta in deltas:
            share = delta / busiest if busiest > 0 else 0.0
            lines.append(
                f"  {sample['shard']:<12} [{_bar(share)}] "
                f"{delta * 1000:7.1f} ms cpu   "
                f"pending {sample['metrics']['kernel.pending_events']:>7,}   "
                f"out {sample['handoffs']['out']:>4,}"
            )
        if self._painted_lines:
            self.stream.write(f"\x1b[{self._painted_lines}F\x1b[J")
        self.stream.write("\n".join(lines) + "\n")
        self.stream.flush()
        self._painted_lines = len(lines)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Leave the last frame on screen and drop below it."""
        if self._tty and self._painted_lines:
            self.stream.flush()
        self._painted_lines = 0
