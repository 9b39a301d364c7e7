"""Property-based tests for the clustering pipeline (hypothesis)."""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import (
    WindowedDBSCAN,
    cluster_stream,
    clustering_script_core,
    cosine_coefficient,
    mean_vector,
)
from repro.core.api import METER, SAFE_BUILTINS
from repro.core.scripting import Watchdog, compile_script

from . import dbscan_oracle

bssids = st.text(alphabet="0123456789abcdef:", min_size=2, max_size=17)
vectors = st.dictionaries(bssids, st.floats(0.01, 1.0), min_size=0, max_size=8)
nonempty_vectors = st.dictionaries(bssids, st.floats(0.01, 1.0), min_size=1, max_size=8)


@given(vectors, vectors)
@settings(max_examples=300)
def test_cosine_bounded_and_symmetric(a, b):
    sim = cosine_coefficient(a, b)
    assert 0.0 <= sim <= 1.0 + 1e-9
    # Symmetric up to float summation order.
    assert math.isclose(sim, cosine_coefficient(b, a), rel_tol=1e-9, abs_tol=1e-12)


@given(nonempty_vectors)
@settings(max_examples=200)
def test_cosine_self_similarity_is_one(v):
    assert math.isclose(cosine_coefficient(v, v), 1.0, rel_tol=1e-9)


@given(nonempty_vectors, st.floats(0.1, 10.0))
@settings(max_examples=200)
def test_cosine_scale_invariant(v, scale):
    scaled = {k: val * scale for k, val in v.items()}
    assert math.isclose(
        cosine_coefficient(v, scaled), 1.0, rel_tol=1e-9
    )


@given(st.lists(nonempty_vectors, min_size=1, max_size=10))
@settings(max_examples=200)
def test_mean_vector_bounds(vs):
    mean = mean_vector(vs)
    for key, value in mean.items():
        per_key = [v.get(key, 0.0) for v in vs]
        assert min(per_key) - 1e-9 <= value <= max(per_key) + 1e-9


@st.composite
def scan_traces(draw):
    """A random walk between a handful of synthetic 'places'."""
    place_count = draw(st.integers(1, 4))
    places = []
    for p in range(place_count):
        keys = [f"p{p}-ap{i}" for i in range(draw(st.integers(2, 6)))]
        places.append({k: draw(st.floats(0.2, 1.0)) for k in keys})
    samples = []
    t = 0.0
    for _ in range(draw(st.integers(1, 8))):
        place = places[draw(st.integers(0, place_count - 1))]
        for _ in range(draw(st.integers(1, 40))):
            noisy = {
                k: max(0.01, min(1.0, v + draw(st.floats(-0.05, 0.05))))
                for k, v in place.items()
            }
            samples.append((t, noisy))
            t += 60_000.0
        # Some travel noise between places.
        for i in range(draw(st.integers(0, 5))):
            samples.append((t, {f"street-{t}-{i}": 0.3}))
            t += 60_000.0
    return samples


@given(scan_traces())
@settings(max_examples=60, deadline=None)
def test_cluster_invariants(samples):
    clusters = cluster_stream(samples, min_pts=5, window=60)
    previous_exit = -1.0
    for cluster in clusters:
        # Temporal sanity.
        assert cluster.entry_ms <= cluster.exit_ms
        assert cluster.samples >= 5
        # Clusters are emitted in order and never overlap.
        assert cluster.entry_ms >= previous_exit - 1e-9
        previous_exit = cluster.exit_ms
        # The representative is a plausible scan vector.
        assert cluster.representative
        for value in cluster.representative.values():
            assert 0.0 <= value <= 1.0


@given(scan_traces(), st.integers(1, 100))
@settings(max_examples=40, deadline=None)
def test_freeze_restore_equals_uninterrupted(samples, split_raw):
    """Splitting the stream at any point and carrying state across via
    state()/restore() yields exactly the uninterrupted result."""
    split = split_raw % (len(samples) + 1)
    continuous = WindowedDBSCAN()
    for t, v in samples:
        continuous.add(t, v)
    continuous.flush()

    first = WindowedDBSCAN()
    for t, v in samples[:split]:
        first.add(t, v)
    second = WindowedDBSCAN()
    second.restore(first.state())
    closed = list(first.closed)
    second.on_cluster = closed.append
    for t, v in samples[split:]:
        second.add(t, v)
    second.flush()

    assert [c["entry"] for c in closed] == [c["entry"] for c in continuous.closed]
    assert [c["exit"] for c in closed] == [c["exit"] for c in continuous.closed]


@given(scan_traces())
@settings(max_examples=60, deadline=None)
def test_representative_is_a_member_nearest_the_mean(samples):
    """A closed cluster's representative is the first of its members
    most similar to the mean of all of them (the paper's "nearest
    neighbour to the mean of all scan results")."""
    dbscan = WindowedDBSCAN(min_pts=5, window=60)
    for t, v in samples:
        dbscan.add(t, v)
    dbscan.flush()
    for cluster in dbscan.closed:
        members = [v for t, v in samples if cluster["entry"] <= t <= cluster["exit"]]
        assert len(members) == cluster["samples"]
        mean = mean_vector(members)
        sims = [cosine_coefficient(v, mean) for v in members]
        assert cluster["representative"] is members[sims.index(max(sims))]


# -- the windowed DBSCAN against its former self ---------------------------

#: Weights as ``normalize_rssi`` makes them: in [0, 1], often clipped to 0.0.
weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def dbscan_runs(draw):
    """Parameters and a stream of operations: ``("add", time_ms, vector)``
    or ``("thaw",)`` (the state goes through JSON into a fresh instance),
    in runs of one kind of sample.

    Vectors are noisy scans of a few places (weights clipped to 0.0 and
    APs dropped at random), empty scans, all-zero scans and one-off
    travel APs, so both zero branches of the cosine are taken; and
    "spokes", a one-off AP plus a shared hub AP, which can be unlike
    each other yet all like the hub alone, so a cluster can open with a
    seed run longer than the centroid's 20 members."""
    params = (
        draw(st.sampled_from([0.3, 0.55, 0.77, 0.95])),
        draw(st.integers(1, 6)),
        draw(st.integers(2, 60)),
    )
    places = [
        {f"p{p}-ap{i}": draw(weights) for i in range(draw(st.integers(1, 5)))}
        for p in range(draw(st.integers(1, 3)))
    ]
    ops = []
    t = 0.0
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 6))
        place = places[draw(st.integers(0, len(places) - 1))]
        hub, spoke = draw(weights), draw(weights)
        for _ in range(draw(st.integers(1, 40))):
            if not draw(st.integers(0, 24)):
                ops.append(("thaw",))
            if kind == 0:
                vector = {}
            elif kind == 1:
                vector = {"p0-ap0": 0.0}
            elif kind == 2:
                vector = {f"street-{t}": draw(weights)}
            elif kind == 3:
                vector = {"hub": hub, f"spoke-{t}": spoke}
            elif kind == 4:
                vector = {"hub": hub}
            else:
                vector = {
                    k: max(0.0, min(1.0, v + draw(st.floats(-0.3, 0.3))))
                    for k, v in place.items()
                    if draw(st.integers(0, 9))
                }
            ops.append(("add", t, vector))
            t += 60_000.0
    return params, ops


def _script_dbscan_class():
    """``WindowedDBSCAN`` as the deployed ``clustering`` script defines it:
    the embedded core, metered and exec'd in a script's builtins."""
    watchdog = Watchdog()
    watchdog.left = 10**12
    namespace = {
        "__builtins__": dict(SAFE_BUILTINS), "__name__": "<pogo-script clustering>",
        METER: watchdog, "math": math,
    }
    exec(compile_script(clustering_script_core(), "dbscan-equivalence"), namespace)
    return namespace["WindowedDBSCAN"]


SCRIPT_DBSCAN = _script_dbscan_class()


def _thawed(cls, params, dbscan):
    fresh = cls(*params)
    fresh.restore(json.loads(json.dumps(dbscan.state())))
    fresh.closed = dbscan.closed
    return fresh


#: Thirty spokes unlike each other, then the hub they are all like: the
#: hub opens a cluster seeded with all 31, whose centroid is the mean of
#: the whole seed run, not of its last 20.
LONG_SEED_RUN = (
    (0.55, 6, 60),
    [("add", float(i), {"hub": 0.8, f"spoke-{i}": 1.0}) for i in range(30)]
    + [("add", 30.0, {"hub": 0.8}), ("thaw",), ("add", 31.0, {"hub": 0.7, "spoke-0": 0.1})],
)


@given(dbscan_runs())
@example(LONG_SEED_RUN)
@settings(max_examples=150, deadline=None)
def test_windowed_dbscan_is_its_former_self(run):
    """The lazy centroid, the cached norms and the one-pass seed search
    change no bit: after every sample the state and the closed clusters
    equal the former code's, for the host class and for the class the
    script sandbox builds, with or without JSON freeze/thaw on the way.
    A second pair is read only at the end, so a centroid left stale by a
    join is rebuilt by the reachability test rather than by ``state()``."""
    params, ops = run
    for cls in (WindowedDBSCAN, SCRIPT_DBSCAN):
        new, old = cls(*params), dbscan_oracle.WindowedDBSCAN(*params)
        quiet_new, quiet_old = cls(*params), dbscan_oracle.WindowedDBSCAN(*params)
        for op in ops:
            if op[0] == "thaw":
                new = _thawed(cls, params, new)
                old = _thawed(dbscan_oracle.WindowedDBSCAN, params, old)
                continue
            _, time_ms, vector = op
            for dbscan in (new, old, quiet_new, quiet_old):
                dbscan.add(time_ms, vector)
            assert new.state() == old.state()
            assert new.closed == old.closed
        assert new.flush() == old.flush()
        assert new.closed == old.closed
        assert quiet_new.flush() == quiet_old.flush()
        assert quiet_new.closed == quiet_old.closed
