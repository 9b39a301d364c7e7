"""Unit tests for the windowed DBSCAN clustering (Section 4.1)."""

import pytest

from repro.analysis.clustering import (
    Cluster,
    WindowedDBSCAN,
    cluster_stream,
    clustering_script_core,
    cosine_coefficient,
    mean_vector,
)


def vec(**kwargs):
    return {k: float(v) for k, v in kwargs.items()}


class TestCosineCoefficient:
    def test_identical_vectors(self):
        v = vec(a=0.5, b=0.8)
        assert cosine_coefficient(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_coefficient(vec(a=1), vec(b=1)) == 0.0

    def test_empty_vectors(self):
        assert cosine_coefficient({}, vec(a=1)) == 0.0
        assert cosine_coefficient({}, {}) == 0.0

    def test_symmetry(self):
        a, b = vec(x=0.3, y=0.9), vec(x=0.7, z=0.2)
        assert cosine_coefficient(a, b) == pytest.approx(cosine_coefficient(b, a))

    def test_scale_invariance(self):
        a = vec(x=0.2, y=0.4)
        b = {k: v * 2 for k, v in a.items()}
        assert cosine_coefficient(a, b) == pytest.approx(1.0)

    def test_partial_overlap_between_zero_and_one(self):
        sim = cosine_coefficient(vec(a=1, b=1), vec(b=1, c=1))
        assert 0.0 < sim < 1.0


class TestMeanAndRepresentative:
    def test_mean_vector(self):
        mean = mean_vector([vec(a=1.0), vec(a=0.0, b=1.0)])
        assert mean == {"a": 0.5, "b": 0.5}

    def test_mean_empty(self):
        assert mean_vector([]) == {}

    def test_representative_is_the_member_nearest_the_mean(self):
        central = vec(a=0.8, b=0.8)
        dbscan = WindowedDBSCAN(eps_similarity=0.5, min_pts=3)
        samples = [vec(a=1.0, b=0.5), vec(a=0.5, b=1.0), central, vec(a=1.0, b=0.6),
                   vec(a=0.6, b=1.0)]
        for t, v in enumerate(samples):
            dbscan.add(float(t), v)
        cluster = dbscan.flush()
        assert cluster["samples"] == 5
        assert cluster["representative"] is central

    def test_representative_is_the_first_of_equally_near_members(self):
        first, twin = vec(a=1.0), vec(a=1.0)
        dbscan = WindowedDBSCAN(eps_similarity=0.5, min_pts=2)
        for t, v in enumerate([first, twin]):
            dbscan.add(float(t), v)
        assert dbscan.flush()["representative"] is first


def place_vector(rng, base, noise=0.03):
    """A noisy sample of a place's AP signature."""
    return {k: max(0.0, min(1.0, v + rng.uniform(-noise, noise))) for k, v in base.items()}


def make_trace(rng, segments):
    """segments: list of (base_vector_or_None, count) -> (t, vec) stream."""
    t = 0.0
    samples = []
    for base, count in segments:
        for _ in range(count):
            if base is None:
                # travel noise: unique APs every scan
                samples.append((t, {f"street-{rng.random()}": rng.uniform(0.1, 0.4)}))
            else:
                samples.append((t, place_vector(rng, base)))
            t += 60_000.0
    return samples


@pytest.fixture
def rng():
    import random

    return random.Random(42)


HOME = {"h1": 0.9, "h2": 0.7, "h3": 0.5, "h4": 0.3}
OFFICE = {"o1": 0.8, "o2": 0.8, "o3": 0.4, "o4": 0.6, "o5": 0.2}


def test_two_dwells_give_two_clusters(rng):
    samples = make_trace(rng, [(HOME, 60), (None, 10), (OFFICE, 120), (None, 5)])
    clusters = cluster_stream(samples)
    assert len(clusters) == 2
    first, second = clusters
    assert first.samples >= 55
    assert second.samples >= 115
    # Representatives identify the places.
    assert cosine_coefficient(first.representative, HOME) > 0.95
    assert cosine_coefficient(second.representative, OFFICE) > 0.95


def test_entry_exit_timestamps_bracket_dwell(rng):
    samples = make_trace(rng, [(HOME, 30), (None, 10)])
    clusters = cluster_stream(samples)
    assert len(clusters) == 1
    c = clusters[0]
    assert c.entry_ms <= 5 * 60_000.0  # entry near the start
    assert 25 * 60_000.0 <= c.exit_ms <= 30 * 60_000.0
    assert c.duration_ms > 0


def test_travel_noise_produces_no_clusters(rng):
    samples = make_trace(rng, [(None, 100)])
    assert cluster_stream(samples) == []


def test_short_visit_below_min_pts_rejected(rng):
    samples = make_trace(rng, [(None, 10), (HOME, 3), (None, 10)])
    assert cluster_stream(samples, min_pts=5) == []


def test_flush_closes_open_cluster(rng):
    """The interruption signature of Section 5.3: a stream ending
    mid-dwell still yields the (truncated) cluster."""
    samples = make_trace(rng, [(HOME, 40)])
    clusters = cluster_stream(samples)  # cluster_stream flushes
    assert len(clusters) == 1


def test_on_cluster_callback(rng):
    dbscan = WindowedDBSCAN()
    emitted = []
    dbscan.on_cluster = emitted.append
    for t, v in make_trace(rng, [(HOME, 20), (None, 5)]):
        dbscan.add(t, v)
    assert len(emitted) == 1
    assert emitted[0] is dbscan.closed[0]


def test_window_bounds_memory(rng):
    dbscan = WindowedDBSCAN(window=60)
    for t, v in make_trace(rng, [(HOME, 200)]):
        dbscan.add(t, v)
    assert len(dbscan.window) == 60


def test_returning_to_same_place_gives_separate_sessions(rng):
    """"these are not unique locations, but rather sessions"."""
    samples = make_trace(rng, [(HOME, 30), (OFFICE, 30), (HOME, 30), (None, 5)])
    clusters = cluster_stream(samples)
    assert len(clusters) == 3


def test_state_restore_roundtrip(rng):
    """freeze/thaw: restoring mid-dwell loses nothing."""
    trace = make_trace(rng, [(HOME, 40), (None, 10), (OFFICE, 40), (None, 5)])
    split = 60  # mid-office
    continuous = WindowedDBSCAN()
    for t, v in trace:
        continuous.add(t, v)
    continuous.flush()

    first = WindowedDBSCAN()
    for t, v in trace[:split]:
        first.add(t, v)
    state = first.state()
    resumed = WindowedDBSCAN()
    resumed.restore(state)
    resumed.closed = list(first.closed)
    for t, v in trace[split:]:
        resumed.add(t, v)
    resumed.flush()
    assert len(resumed.closed) == len(continuous.closed)
    assert [c["entry"] for c in resumed.closed] == [c["entry"] for c in continuous.closed]


def test_restore_empty_state_is_noop():
    dbscan = WindowedDBSCAN()
    dbscan.restore(None)
    dbscan.restore({})
    assert dbscan.samples_seen == 0


def test_interruption_without_freeze_truncates_cluster(rng):
    """What the paper observed: restart mid-cluster -> later start time."""
    trace = make_trace(rng, [(HOME, 60), (None, 10)])
    interrupted = WindowedDBSCAN()
    for t, v in trace[:30]:
        interrupted.add(t, v)
    # Restart with no state: the first half is gone.
    fresh = WindowedDBSCAN()
    for t, v in trace[30:]:
        fresh.add(t, v)
    fresh.flush()
    assert len(fresh.closed) == 1
    full = cluster_stream(trace)
    assert fresh.closed[0]["entry"] > full[0].entry_ms


def test_script_core_is_selfcontained_python():
    """The embedded script source must exec under restricted builtins."""
    source = clustering_script_core()
    namespace = {"__builtins__": {"len": len, "sum": sum, "enumerate": enumerate,
                                  "float": float, "max": max, "min": min,
                                  "dict": dict, "list": list, "reversed": reversed,
                                  "__build_class__": __build_class__, "__name__": "s"}}
    exec(compile(source, "<core>", "exec"), namespace)
    assert "WindowedDBSCAN" in namespace
    dbscan = namespace["WindowedDBSCAN"](0.55, 5, 60)
    dbscan.add(0.0, {"a": 1.0})
    assert dbscan.samples_seen == 1


def test_cluster_from_message():
    c = Cluster.from_message({"entry": 1.0, "exit": 5.0, "samples": 4, "representative": {"a": 0.5}})
    assert c.duration_ms == 4.0
    assert c.representative == {"a": 0.5}
