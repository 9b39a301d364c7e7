"""The benchmark's own instruments: spans, a GC probe, a layer profile,
and the host-speed probe.

All of them observe the program from outside — nothing under ``src/`` is
touched.  Spans wrap the calls the driver makes into public functions;
the GC probe hangs on ``gc.callbacks``; the layer profile buckets
cProfile's per-function self time by the package the function's file
lives in; the host probe times a fixed piece of work on the child's own
thread every few milliseconds, so the driver can say how fast the host
was while the child ran.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pathlib
import signal
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

#: Phase prefixes a top-level span name may carry (``"build:Shard"``).
#: ``phase.<prefix>_s`` is the summed duration of those spans;
#: ``phase.residual_s`` is wall minus their total.
PHASES = (
    "import", "spec", "build", "workload_setup", "simulate", "collect", "merge",
)

#: The layers self time and call counts are attributed to, in the order
#: they are reported.  ``sim.instr`` is the three write-side
#: instrumentation planes; ``core`` is the middleware core minus the two
#: files that get their own row; ``python`` is everything outside
#: ``src/repro`` (builtins, stdlib, this benchmark's own frames).
LAYERS = (
    "sim.kernel", "sim.instr", "device", "core.envelope", "core.scripting",
    "core", "net", "sensors", "world", "apps", "anonytl", "analysis",
    "chaos", "scenarios", "fleet", "obs", "python",
)

_INSTR_FILES = frozenset({"spans.py", "metrics.py", "trace.py"})
_PACKAGES = frozenset(LAYERS) - {
    "sim.kernel", "sim.instr", "core.envelope", "core.scripting", "python",
}


class Tracer:
    """In-memory spans: ``name, start, end, parent, workload``.

    Times are ``perf_counter`` seconds relative to ``origin`` (taken by
    the child just before ``import repro``).  Spans nest by the ``with``
    structure; a span's self time is its duration minus its children's.
    """

    def __init__(self, workload: str, origin: float) -> None:
        self.workload = workload
        self.origin = origin
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self.origin
            self._stack.pop()

    def now(self) -> float:
        return perf_counter() - self.origin

    def phases(self, wall_s: float) -> Dict[str, float]:
        """``phase.*`` seconds from the top-level spans that ended within
        ``wall_s`` of the origin, plus the residual against it."""
        out = {f"phase.{phase}_s": 0.0 for phase in PHASES}
        for span in self.spans:
            if span["parent"] is not None or span["end"] > wall_s:
                continue
            phase = span["name"].split(":", 1)[0]
            if phase in PHASES:
                out[f"phase.{phase}_s"] += span["end"] - span["start"]
        out["phase.residual_s"] = wall_s - sum(out.values())
        return out

    def write_jsonl(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class GcProbe:
    """Collector time and full (generation-2) passes via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gc_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.gc_s += perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    @contextmanager
    def watching(self) -> Iterator["GcProbe"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


def layer_of(filename: str, src_root: str) -> str:
    """The layer a profiled function's file belongs to."""
    if filename.startswith("<script "):
        # Experiment scripts are exec'd from source strings that live in
        # ``repro.apps``; their frames carry this synthetic filename.
        return "apps"
    if not filename.startswith(src_root):
        return "python"
    parts = filename[len(src_root):].lstrip("/").split("/")
    package = parts[0]
    if package == "sim":
        return "sim.instr" if parts[-1] in _INSTR_FILES else "sim.kernel"
    if package == "core":
        if parts[-1] == "envelope.py":
            return "core.envelope"
        if parts[-1] == "scripting.py":
            return "core.scripting"
        return "core"
    return package if package in _PACKAGES else "python"


class LayerProfile:
    """cProfile around one region, bucketed per layer.

    ``self_s`` is ``tottime`` (a function's own interval minus its
    callees'), so the layers partition the profiled interval; ``calls``
    is ``ncalls`` — an exact count that repeats run to run.
    """

    def __init__(self, src_root: pathlib.Path) -> None:
        self.src_root = str(src_root)
        self._profile = cProfile.Profile()

    @contextmanager
    def profiling(self) -> Iterator["LayerProfile"]:
        self._profile.enable()
        try:
            yield self
        finally:
            self._profile.disable()

    def by_layer(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        self._profile.create_stats()
        for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in (
            self._profile.stats.items()  # type: ignore[attr-defined]
        ):
            layer = layer_of(filename, self.src_root)
            calls[layer] += ncalls
            self_s[layer] += tottime
        return calls, self_s


class HostProbe:
    """How fast is this core, right now?  Sampled on the child's own
    main thread for as long as the child runs.

    An interval timer interrupts the run every :data:`INTERVAL_S`; the
    handler times :data:`ITERATIONS` steps of allocation-free interpreter
    work (list and dict indexing, integer arithmetic) and re-arms the
    timer.  Being on the same thread it sees the core the workload is on,
    whatever else shares that core; allocating nothing, it can never
    trigger (and be charged for) a collection of the workload's heap.
    The driver subtracts the samples from the run and divides by their
    mean (``cli.calibrate``).  Not used under cProfile: the handler's own
    calls would make ``python.calls`` inexact.
    """

    INTERVAL_S = 0.06
    ITERATIONS = 30_000

    def __init__(self, origin: float) -> None:
        self.origin = origin
        #: ``(offset from origin, seconds)`` per sample.
        self.samples: List[Tuple[float, float]] = []
        self._cells = list(range(4096))
        self._table = {i: i for i in range(1024)}

    def _sample(self, _signum=None, _frame=None) -> None:
        cells, table = self._cells, self._table
        started = perf_counter()
        x = 0
        for i in range(self.ITERATIONS):
            j = (i * 7919 + x) & 4095
            x = cells[j] + table[j & 1023]
            cells[j] = x & 4095
        self.samples.append((started - self.origin, perf_counter() - started))
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
