"""Cluster matching: scoring collected data against ground truth.

Table 4's quality metrics: "The 'match' column shows the percentage of
clusters found in the post-processed data set that exactly matched the
ones gathered by the collector node.  The 'partial' column shows the
percentage of [clusters] that were matched only partially due to the
problems described" — clusters truncated by interruptions (a later start
time, a missing half) or lost entirely to the 24-hour purge.

A ground-truth cluster *exactly* matches a collected cluster when they
represent the same place (similar representative vectors) and nearly the
same dwell interval; it *partially* matches when the place agrees and the
intervals overlap, but the boundaries disagree (the truncation signature).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..sim.kernel import MINUTE
from .clustering import Cluster, cosine_coefficient

#: Tolerances: clusters are sampled at one-minute granularity, so
#: boundary agreement within a few samples counts as exact.
BOUNDARY_TOLERANCE_MS = 3 * MINUTE
REPRESENTATIVE_SIMILARITY = 0.60

MATCH_EXACT = "exact"
MATCH_PARTIAL = "partial"
MATCH_MISSING = "missing"


@dataclass(frozen=True)
class MatchResult:
    """One ground-truth cluster's fate in the collected data set."""

    truth: Cluster
    collected: Cluster = None
    kind: str = MATCH_MISSING


@dataclass
class MatchReport:
    """Aggregate Table 4 row fragment for one user."""

    results: List[MatchResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def exact(self) -> int:
        return sum(1 for r in self.results if r.kind == MATCH_EXACT)

    @property
    def partial_or_exact(self) -> int:
        return sum(1 for r in self.results if r.kind != MATCH_MISSING)

    @property
    def match_percent(self) -> float:
        return 100.0 * self.exact / self.total if self.total else 0.0

    @property
    def partial_percent(self) -> float:
        return 100.0 * self.partial_or_exact / self.total if self.total else 0.0


def _same_place(a: Cluster, b: Cluster) -> bool:
    return cosine_coefficient(a.representative, b.representative) >= REPRESENTATIVE_SIMILARITY


def _overlap_ms(a: Cluster, b: Cluster) -> float:
    return min(a.exit_ms, b.exit_ms) - max(a.entry_ms, b.entry_ms)


def match_clusters(
    truth: Sequence[Cluster],
    collected: Sequence[Cluster],
) -> MatchReport:
    """Greedily match each ground-truth cluster to collected clusters.

    Collected clusters are consumed at most once (the deployment's
    collector never reported a dwell twice thanks to the end-to-end
    dedup, and neither does ours).
    """
    report = MatchReport()
    available = list(collected)
    for truth_cluster in sorted(truth, key=lambda c: c.entry_ms):
        best = None
        best_overlap = 0.0
        for candidate in available:
            if not _same_place(truth_cluster, candidate):
                continue
            overlap = _overlap_ms(truth_cluster, candidate)
            if overlap > best_overlap:
                best_overlap = overlap
                best = candidate
        if best is None or best_overlap <= 0:
            report.results.append(MatchResult(truth_cluster, None, MATCH_MISSING))
            continue
        available.remove(best)
        entry_delta = abs(truth_cluster.entry_ms - best.entry_ms)
        exit_delta = abs(truth_cluster.exit_ms - best.exit_ms)
        if entry_delta <= BOUNDARY_TOLERANCE_MS and exit_delta <= BOUNDARY_TOLERANCE_MS:
            kind = MATCH_EXACT
        else:
            kind = MATCH_PARTIAL
        report.results.append(MatchResult(truth_cluster, best, kind))
    return report


def data_reduction_percent(raw_bytes: int, reduced_bytes: int) -> float:
    """The headline number: "we reduced the total amount of data
    transferred by 98.3% by making use of on-line clustering"."""
    if raw_bytes <= 0:
        return 0.0
    return 100.0 * (1.0 - reduced_bytes / raw_bytes)
