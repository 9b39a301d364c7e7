"""Prometheus text-exposition rendering of a fleet timeline.

GSN-style federated deployments scrape their middlewares; we render the
same counters the timeline carries in the exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) so a
scrape target, a pushgateway, or a human with ``grep`` can read one
snapshot of the fleet.  Rendering is deterministic — names sorted,
labels sorted, values formatted with ``repr``-stable rules — so two
same-seed runs export byte-identical files *except* the ``worker_*``
wall-clock gauges (CPU, RSS, stall), which report real machine state
by design; CI strips those lines before comparing.

:func:`timeline_to_prometheus` renders the final frame of a fleet
timeline: per-shard series labelled ``{shard="..."}`` plus the
fleet-total series with no shard label.
"""

from __future__ import annotations

import re
from typing import Any, List, Mapping, Optional

#: Every exported name is prefixed so scrapes cannot collide with other
#: jobs on the same gateway.
PREFIX = "pogo_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """A valid exposition metric name: prefixed, punctuation folded."""
    folded = _NAME_RE.sub("_", name)
    if folded and folded[0].isdigit():
        folded = "_" + folded
    return PREFIX + folded


def _label_text(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{str(labels[key])}"' for key in sorted(labels)
    )
    return "{" + body + "}"


def _value_text(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "NaN"
    return repr(float(value))


def render_metric(
    name: str,
    value: Any,
    labels: Optional[Mapping[str, str]],
    kind: str,
    lines: List[str],
    typed: set,
) -> None:
    """Append one sample to ``lines`` (with its ``# TYPE`` header, once
    per name: ``typed`` holds the names already headed)."""
    full = metric_name(name)
    if full not in typed:
        typed.add(full)
        lines.append(f"# TYPE {full} {kind}")
    lines.append(f"{full}{_label_text(labels)} {_value_text(value)}")


def timeline_to_prometheus(timeline) -> str:
    """Render a fleet timeline's final frame as text exposition.

    Per-shard series carry ``{shard="fleet/0"}`` labels; the additive
    fleet totals follow with no shard label.  Wall-clock sections are
    exported too (they are exactly what a scraper wants), as
    ``worker_*`` gauges.
    """
    samples = timeline.last_samples()
    lines: List[str] = []
    typed: set = set()
    for sample in samples:
        labels = {"shard": sample["shard"]}
        render_metric("events_executed", sample["kernel"]["events"], labels,
                      "counter", lines, typed)
        render_metric("kernel_pending_events", sample["kernel"]["pending"],
                      labels, "gauge", lines, typed)
        render_metric("energy_microjoules", sample["energy_uj"], labels,
                      "counter", lines, typed)
        render_metric("spans_recorded", sample["spans"]["recorded"], labels,
                      "counter", lines, typed)
        for name, value in sorted(sample["server"].items()):
            render_metric(name, value, labels, "counter", lines, typed)
        for name, value in sorted(sample["counters"].items()):
            render_metric(name, value, labels, "counter", lines, typed)
        for hop, digest in sorted(sample["hops"].items()):
            hop_labels = dict(labels, hop=hop)
            render_metric("hop_latency_ms_count", digest["count"], hop_labels,
                          "counter", lines, typed)
            render_metric("hop_latency_ms_sum", digest["sum_ms"], hop_labels,
                          "counter", lines, typed)
        wall = sample.get("wall") or {}
        for name, value in sorted(wall.items()):
            render_metric(f"worker_{name}", value, labels, "gauge",
                          lines, typed)
    if samples:
        totals = timeline.totals()
        render_metric("fleet_events_executed", totals["events"], None,
                      "counter", lines, typed)
        render_metric("fleet_energy_microjoules", totals["energy_uj"], None,
                      "counter", lines, typed)
        render_metric("fleet_spans_recorded", totals["spans_recorded"], None,
                      "counter", lines, typed)
        render_metric("fleet_sim_ms", totals["barrier_ms"], None,
                      "gauge", lines, typed)
        for name, value in sorted(totals["server"].items()):
            render_metric(f"fleet_{name}", value, None, "counter", lines, typed)
    return "\n".join(lines) + "\n" if lines else ""
