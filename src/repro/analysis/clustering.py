"""Place clustering: the modified sliding-window DBSCAN from Section 4.1.

"The clustering.js script ... extracts clusters (locations) using a
modified version of the DBSCAN clustering algorithm.  The modification in
this case is that we use a sliding window of 60 samples from which we
extract core objects.  Clusters are 'closed' whenever a user moves away
from the place it represents (when a sample is found that is not
reachable from the cluster).  The distance metric used is the cosine
coefficient.  When a cluster is closed, a sample is selected that best
characterizes the cluster [the nearest neighbour to the mean of all scan
results] and sent to the server along with entry and exit timestamps."

Samples are scan vectors: ``{bssid: normalized_rssi}`` (see
:func:`repro.world.rssi.normalize_rssi`).  The streaming algorithm:

* keep the last ``window`` samples;
* with no open cluster, a new sample that is a **core object** (at least
  ``min_pts`` window samples within ``eps``) opens a cluster seeded with
  the trailing run of reachable samples;
* with an open cluster, a **reachable** sample (within ``eps`` of one
  of the cluster's last five members, or of its centroid: the mean of
  its last 20 members, or of its seed run until the first join) joins
  it; the first unreachable sample **closes** it (the user left);
* a closed cluster is emitted only if it contains a core object
  (``min_pts`` members), which rejects travel noise.

IMPORTANT — sandbox compatibility: everything in this module between the
``SCRIPT SAFE BEGIN/END`` markers is written to run inside the Pogo
script sandbox (builtins + ``math`` only, no imports, no annotations), so
the deployable ``clustering`` script embeds this *exact* code via
:func:`clustering_script_core`.  The on-device script and the offline
ground-truth pass are therefore the same algorithm by construction.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

# --- SCRIPT SAFE BEGIN -------------------------------------------------


def vector_norm(vector):
    """Euclidean norm of a sparse scan vector."""
    return sum(v * v for v in vector.values()) ** 0.5


def cosine_normed(a, norm_a, b, norm_b):
    """Cosine similarity of two sparse scan vectors ({bssid: weight})
    whose norms are already known (:func:`vector_norm`)."""
    if not a or not b:
        return 0.0
    dot = 0.0
    for key, value in a.items():
        other = b.get(key)
        if other is not None:
            dot += value * other
    if dot == 0.0:
        return 0.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def mean_vector(vectors):
    """Element-wise mean of sparse vectors."""
    if not vectors:
        return {}
    sums = {}
    for vector in vectors:
        for key, value in vector.items():
            sums[key] = sums.get(key, 0.0) + value
    count = float(len(vectors))
    return {key: value / count for key, value in sums.items()}


def add_into(sums, vector):
    """Accumulate ``vector`` into the running sum dict ``sums``."""
    for key, value in vector.items():
        sums[key] = sums.get(key, 0.0) + value


def _entry(item):
    """A window entry or member from its frozen ``[time_ms, vector]``."""
    vector = dict(item[1])
    return (item[0], vector, vector_norm(vector))


class WindowedDBSCAN:
    """Streaming, windowed DBSCAN over scan vectors.

    Feed timestamped samples with ``add(time_ms, vector)``; closed
    clusters accumulate in ``closed`` (and are handed to ``on_cluster``
    if set).  Call ``flush()`` to force-close an open cluster (end of
    stream — or a mid-deployment interruption, which is exactly how the
    paper lost cluster halves before freeze/thaw existed).

    A sample is held as a ``(time_ms, vector, norm)`` entry, its norm
    computed once as it enters; the window and the open cluster's
    members share the entries.
    """

    def __init__(self, eps_similarity=0.55, min_pts=5, window=60):
        self.eps_similarity = eps_similarity
        self.min_pts = min_pts
        self.window_size = window
        self.window = []  # list of (time_ms, vector, norm), newest last
        self.current = None  # open cluster state dict or None
        self.closed = []
        self.on_cluster = None
        self.samples_seen = 0

    # -- persistence hooks (freeze/thaw) -------------------------------
    #: Cap on cluster members kept in a frozen snapshot.  A long dwell
    #: accumulates hundreds of members; the exact running mean survives
    #: via (sum, count), so only a bounded tail of members is needed to
    #: pick a (near-exact) representative after a restore.  This keeps
    #: freeze() O(window) instead of O(dwell length).
    FREEZE_MEMBER_CAP = 60

    def state(self):
        """Serializable snapshot of the mutable state (bounded size)."""
        current = None
        if self.current is not None:
            cluster = self.current
            current = {
                "entry": cluster["entry"],
                "exit": cluster["exit"],
                "count": cluster["count"],
                "sum": dict(cluster["sum"]),
                "members": [
                    [t, dict(v)] for t, v, _ in cluster["members"][-self.FREEZE_MEMBER_CAP:]
                ],
                "centroid": dict(self.centroid()[0]),
            }
        return {
            "window": [[t, dict(v)] for t, v, _ in self.window],
            "current": current,
            "samples_seen": self.samples_seen,
        }

    def restore(self, state):
        if not state:
            return
        self.window = [_entry(item) for item in state.get("window", [])]
        current = state.get("current")
        if current is not None:
            current = dict(current)
            current["members"] = [_entry(member) for member in current["members"]]
            centroid = dict(current["centroid"])
            current["centroid"] = (centroid, vector_norm(centroid))
        self.current = current
        self.samples_seen = state.get("samples_seen", 0)

    # -- core algorithm --------------------------------------------------
    def centroid(self):
        """The open cluster's centroid and its norm.  A join leaves it
        stale (None); it is rebuilt here, as the mean of the last 20
        members, only when something reads it."""
        cluster = self.current
        centroid = cluster["centroid"]
        if centroid is None:
            vector = mean_vector([m[1] for m in cluster["members"][-20:]])
            centroid = cluster["centroid"] = (vector, vector_norm(vector))
        return centroid

    def reachable_from_current(self, entry):
        # Similar to one of the last five members, or to the centroid:
        # the members are the cheap side, so the centroid is only built
        # when all five miss.
        vector, norm = entry[1], entry[2]
        eps = self.eps_similarity
        for member in self.current["members"][-5:]:
            if cosine_normed(vector, norm, member[1], member[2]) >= eps:
                return True
        centroid, centroid_norm = self.centroid()
        return cosine_normed(vector, norm, centroid, centroid_norm) >= eps

    def add(self, time_ms, vector):
        """Process one scan sample."""
        self.samples_seen += 1
        entry = (time_ms, vector, vector_norm(vector))
        self.window.append(entry)
        if len(self.window) > self.window_size:
            self.window.pop(0)
        if self.current is not None:
            if self.reachable_from_current(entry):
                self.join(entry)
            else:
                self.close()
                self.try_open(entry)
        else:
            self.try_open(entry)

    def join(self, entry):
        cluster = self.current
        cluster["members"].append(entry)
        cluster["exit"] = entry[0]
        cluster["count"] += 1
        add_into(cluster["sum"], entry[1])
        cluster["centroid"] = None

    def try_open(self, entry):
        vector, norm = entry[1], entry[2]
        eps = self.eps_similarity
        earlier = self.window[:-1]
        similar = [cosine_normed(vector, norm, e[1], e[2]) >= eps for e in earlier]
        if similar.count(True) + 1 < self.min_pts:
            return
        # Seed with the trailing *contiguous* run of reachable samples so
        # the entry timestamp reflects when the user actually arrived.
        start = len(earlier)
        while start > 0 and similar[start - 1]:
            start -= 1
        members = earlier[start:]
        members.append(entry)
        sums = {}
        for member in members:
            add_into(sums, member[1])
        centroid = mean_vector([m[1] for m in members])
        self.current = {
            "entry": members[0][0],
            "exit": entry[0],
            "count": len(members),
            "sum": sums,
            "members": members,
            "centroid": (centroid, vector_norm(centroid)),
        }

    def close(self):
        cluster = self.current
        self.current = None
        if cluster is None or cluster["count"] < self.min_pts:
            return None
        # The characterization sample: nearest neighbour to the mean of
        # *all* scan results (the first member on a tie).  The mean is
        # exact via the running sum even when the member list was
        # truncated by a freeze/restore.
        count = float(cluster["count"])
        mean = {key: value / count for key, value in cluster["sum"].items()}
        mean_norm = vector_norm(mean)
        members = cluster["members"]
        best_index = 0
        best_sim = -1.0
        for index, member in enumerate(members):
            sim = cosine_normed(member[1], member[2], mean, mean_norm)
            if sim > best_sim:
                best_sim = sim
                best_index = index
        result = {
            "entry": cluster["entry"],
            "exit": cluster["exit"],
            "samples": cluster["count"],
            "representative": members[best_index][1],
        }
        self.closed.append(result)
        if self.on_cluster is not None:
            self.on_cluster(result)
        return result

    def flush(self):
        """Force-close the open cluster (end of stream / interruption)."""
        return self.close()


# --- SCRIPT SAFE END ---------------------------------------------------


def clustering_script_core() -> str:
    """Source text of the sandbox-safe core, for embedding in scripts.

    The deployable ``clustering`` script is built from exactly this code,
    so the device and the offline ground-truth pass cannot diverge.
    """
    parts = [
        inspect.getsource(vector_norm),
        inspect.getsource(cosine_normed),
        inspect.getsource(mean_vector),
        inspect.getsource(add_into),
        inspect.getsource(_entry),
        inspect.getsource(WindowedDBSCAN),
    ]
    return "\n\n".join(parts)


def cosine_coefficient(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Cosine similarity of two sparse scan vectors ({bssid: weight})."""
    return cosine_normed(a, vector_norm(a), b, vector_norm(b))


@dataclass(frozen=True)
class Cluster:
    """A closed cluster in analysis-friendly form."""

    entry_ms: float
    exit_ms: float
    samples: int
    representative: Dict[str, float]

    @property
    def duration_ms(self) -> float:
        return self.exit_ms - self.entry_ms

    @classmethod
    def from_message(cls, message: Dict[str, Any]) -> "Cluster":
        return cls(
            entry_ms=float(message["entry"]),
            exit_ms=float(message["exit"]),
            samples=int(message.get("samples", 0)),
            representative=dict(message.get("representative", {})),
        )


def cluster_stream(
    samples: Sequence[Tuple[float, Dict[str, float]]],
    eps_similarity: float = 0.55,
    min_pts: int = 5,
    window: int = 60,
) -> List[Cluster]:
    """Run the full algorithm over a complete scan trace (ground truth).

    This is the paper's post-processing step: "we ran our clustering
    algorithm over the raw traces and compared the output with what was
    received at the collector node."
    """
    dbscan = WindowedDBSCAN(eps_similarity, min_pts, window)
    for time_ms, vector in samples:
        dbscan.add(time_ms, vector)
    dbscan.flush()
    return [Cluster.from_message(c) for c in dbscan.closed]
