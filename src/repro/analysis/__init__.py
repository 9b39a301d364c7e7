"""Analysis: clustering, match scoring, SLOC counting, energy traces."""

from .clustering import (
    Cluster,
    WindowedDBSCAN,
    cluster_stream,
    clustering_script_core,
    cosine_coefficient,
    mean_vector,
    nearest_to_mean,
)
from .energy import (
    ModemStateLog,
    TailSegmentation,
    percent_increase,
    segment_tail_from_series,
    series_energy_joules,
)
from .matching import (
    MATCH_EXACT,
    MATCH_MISSING,
    MATCH_PARTIAL,
    MatchReport,
    MatchResult,
    data_reduction_percent,
    match_clusters,
)
from .plotting import render_series, render_tracks
from .sloc import SlocCount, count_scripts, count_sloc

__all__ = [
    "Cluster",
    "WindowedDBSCAN",
    "cluster_stream",
    "clustering_script_core",
    "cosine_coefficient",
    "mean_vector",
    "nearest_to_mean",
    "ModemStateLog",
    "TailSegmentation",
    "percent_increase",
    "segment_tail_from_series",
    "series_energy_joules",
    "MATCH_EXACT",
    "MATCH_MISSING",
    "MATCH_PARTIAL",
    "MatchReport",
    "MatchResult",
    "data_reduction_percent",
    "match_clusters",
    "count_scripts",
    "count_sloc",
    "SlocCount",
    "render_series",
    "render_tracks",
]
