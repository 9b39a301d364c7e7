"""The windowed DBSCAN as it stood before its centroid became lazy and
its norms cached: a verbatim copy of that sandbox-safe core, kept as the
oracle ``test_clustering_properties`` compares today's core against.

Do not edit: its whole worth is that it is the old code, bit for bit.
"""

def cosine_coefficient(a, b):
    """Cosine similarity of two sparse scan vectors ({bssid: weight})."""
    if not a or not b:
        return 0.0
    dot = 0.0
    for key, value in a.items():
        other = b.get(key)
        if other is not None:
            dot += value * other
    if dot == 0.0:
        return 0.0
    norm_a = sum(v * v for v in a.values()) ** 0.5
    norm_b = sum(v * v for v in b.values()) ** 0.5
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


def nearest_to_vector(vectors, target):
    """Index of the vector most similar to ``target``."""
    best_index = 0
    best_sim = -1.0
    for index, vector in enumerate(vectors):
        sim = cosine_coefficient(vector, target)
        if sim > best_sim:
            best_sim = sim
            best_index = index
    return best_index


def nearest_to_mean(vectors):
    """Index of the vector most similar to the mean (the characterization
    sample: "the nearest neighbour to the mean of all scan results")."""
    return nearest_to_vector(vectors, mean_vector(vectors))


def add_into(sums, vector):
    """Accumulate ``vector`` into the running sum dict ``sums``."""
    for key, value in vector.items():
        sums[key] = sums.get(key, 0.0) + value


class WindowedDBSCAN:
    """Streaming, windowed DBSCAN over scan vectors.

    Feed timestamped samples with ``add(time_ms, vector)``; closed
    clusters accumulate in ``closed`` (and are handed to ``on_cluster``
    if set).  Call ``flush()`` to force-close an open cluster (end of
    stream — or a mid-deployment interruption, which is exactly how the
    paper lost cluster halves before freeze/thaw existed).
    """

    def __init__(self, eps_similarity=0.55, min_pts=5, window=60):
        self.eps_similarity = eps_similarity
        self.min_pts = min_pts
        self.window_size = window
        self.window = []  # list of (time_ms, vector), newest last
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
                    [t, dict(v)] for t, v in cluster["members"][-self.FREEZE_MEMBER_CAP:]
                ],
                "centroid": dict(cluster["centroid"]),
            }
        return {
            "window": [[t, dict(v)] for t, v in self.window],
            "current": current,
            "samples_seen": self.samples_seen,
        }

    def restore(self, state):
        if not state:
            return
        self.window = [(item[0], dict(item[1])) for item in state.get("window", [])]
        current = state.get("current")
        if current is not None:
            current = dict(current)
            current["members"] = [[t, dict(v)] for t, v in current["members"]]
        self.current = current
        self.samples_seen = state.get("samples_seen", 0)

    # -- core algorithm --------------------------------------------------
    def _similar(self, a, b):
        return cosine_coefficient(a, b) >= self.eps_similarity

    def _reachable_from_current(self, vector):
        cluster = self.current
        if self._similar(vector, cluster["centroid"]):
            return True
        for member in cluster["members"][-5:]:
            if self._similar(vector, member[1]):
                return True
        return False

    def add(self, time_ms, vector):
        """Process one scan sample."""
        self.samples_seen += 1
        self.window.append((time_ms, vector))
        if len(self.window) > self.window_size:
            self.window.pop(0)
        if self.current is not None:
            if self._reachable_from_current(vector):
                self._join(time_ms, vector)
            else:
                self._close()
                self._try_open(time_ms, vector)
        else:
            self._try_open(time_ms, vector)

    def _join(self, time_ms, vector):
        cluster = self.current
        cluster["members"].append([time_ms, vector])
        cluster["exit"] = time_ms
        cluster["count"] += 1
        add_into(cluster["sum"], vector)
        # Incremental centroid update keeps reachability stable.
        cluster["centroid"] = mean_vector([m[1] for m in cluster["members"][-20:]])

    def _try_open(self, time_ms, vector):
        neighbors = []
        for sample_time, sample_vector in self.window[:-1]:
            if self._similar(vector, sample_vector):
                neighbors.append([sample_time, sample_vector])
        if len(neighbors) + 1 < self.min_pts:
            return
        # Seed with the trailing *contiguous* run of reachable samples so
        # the entry timestamp reflects when the user actually arrived.
        members = []
        for sample_time, sample_vector in reversed(self.window[:-1]):
            if self._similar(vector, sample_vector):
                members.append([sample_time, sample_vector])
            else:
                break
        members.reverse()
        members.append([time_ms, vector])
        sums = {}
        for _member_time, member_vector in members:
            add_into(sums, member_vector)
        self.current = {
            "entry": members[0][0],
            "exit": time_ms,
            "count": len(members),
            "sum": sums,
            "members": members,
            "centroid": mean_vector([m[1] for m in members]),
        }

    def _close(self):
        cluster = self.current
        self.current = None
        if cluster is None or cluster["count"] < self.min_pts:
            return None
        # The characterization sample: nearest neighbour to the mean of
        # *all* scan results.  The mean is exact via the running sum even
        # when the member list was truncated by a freeze/restore.
        count = float(cluster["count"])
        mean = {key: value / count for key, value in cluster["sum"].items()}
        vectors = [m[1] for m in cluster["members"]]
        representative_index = nearest_to_vector(vectors, mean)
        result = {
            "entry": cluster["entry"],
            "exit": cluster["exit"],
            "samples": cluster["count"],
            "representative": cluster["members"][representative_index][1],
        }
        self.closed.append(result)
        if self.on_cluster is not None:
            self.on_cluster(result)
        return result

    def flush(self):
        """Force-close the open cluster (end of stream / interruption)."""
        return self._close()
