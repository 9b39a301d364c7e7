"""Unit tests for the kernel metrics plane."""

from repro.sim.kernel import Kernel
from repro.sim.metrics import (
    GAUGES, Counter, Histogram, MetricsRegistry, additive, render_report,
)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42


def test_histogram_stats():
    histogram = Histogram("h")
    for value in (1, 10, 11, 100, 1000):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.total == 1122
    assert histogram.min == 1
    assert histogram.max == 1000
    assert histogram.mean == 1122 / 5


def test_registry_create_or_get():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")


class _Component:
    METRICS = {"a.count": "count", "a.level": "level"}

    def __init__(self, count):
        self.count = count
        self.pulls = 0

    @property
    def level(self):
        self.pulls += 1
        return 7


def test_snapshot_sorted_and_gauges_pulled_lazily():
    registry = MetricsRegistry()
    registry.counter("z.count").inc(3)
    component = _Component(2)
    registry.attach(component)
    assert component.pulls == 0  # attaching costs nothing
    snap = registry.snapshot()
    assert snap == {"a.count": 2, "a.level": 7, "z.count": 3}
    assert list(snap) == ["a.count", "a.level", "z.count"]
    assert component.pulls == 1


def test_attached_components_sum_per_name_across_classes():
    class Other:
        METRICS = {"a.count": "inner.count"}

        def __init__(self, inner):
            self.inner = inner

    registry = MetricsRegistry()
    first, second = _Component(2), _Component(5)
    for component in (first, second, Other(_Component(10))):
        registry.attach(component)
    assert registry.snapshot()["a.count"] == 17
    first.count += 1  # read at the snapshot, never pushed
    assert registry.snapshot()["a.count"] == 18


def test_disable_freezes_counters_but_still_reads_attached_components():
    registry = MetricsRegistry()
    component = _Component(1)
    registry.attach(component)
    registry.disable()
    component.count = 4
    assert registry.snapshot()["a.count"] == 4


def test_additive_slice_leaves_out_gauges_and_histogram_sums():
    registry = MetricsRegistry()
    registry.counter("x.count").inc(2)
    registry.histogram("x.latency").observe(0.1)
    kernel = Kernel()
    snapshot = dict(kernel.metrics.snapshot(), **registry.snapshot())
    slice_ = additive(snapshot)
    assert GAUGES <= set(snapshot)
    assert not GAUGES & set(slice_)
    assert slice_["x.count"] == 2
    assert slice_["x.latency.count"] == 1
    assert slice_["kernel.events"] == 0 and slice_["spans.recorded"] == 0
    assert all(isinstance(value, int) for value in slice_.values())


def test_nonzero_filters_untouched_metrics():
    registry = MetricsRegistry()
    registry.counter("touched").inc()
    registry.counter("untouched")
    registry.histogram("empty")
    registry.histogram("used").observe(5)
    moved = registry.nonzero()
    assert "touched" in moved and "used" in moved
    assert "untouched" not in moved and "empty" not in moved


def test_report_is_deterministic_text():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    first = render_report(registry.nonzero())
    second = render_report(registry.nonzero())
    assert first == second
    lines = first.splitlines()
    assert lines[1].startswith("a") and lines[2].startswith("b")


# ---------------------------------------------------------------------------
# Kernel integration and trace bridge
# ---------------------------------------------------------------------------


def test_kernel_owns_a_registry_with_event_gauges():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    snap = kernel.metrics.snapshot()
    assert snap["kernel.events"] == kernel.events_executed == 1


def test_two_kernels_do_not_share_metrics():
    a, b = Kernel(), Kernel()
    a.metrics.counter("x").inc()
    assert b.metrics.counter("x").value == 0


def test_disable_swaps_counters_to_noops():
    from repro.sim.metrics import MetricsRegistry, NullCounter

    registry = MetricsRegistry()
    counter = registry.counter("pre.bound")
    counter.inc(5)
    registry.disable()
    # The pre-bound object components hold becomes the no-op class.
    assert type(counter) is NullCounter
    counter.inc(100)
    assert counter.value == 5  # frozen, still readable
    # Metrics created while disabled are born as no-ops.
    late = registry.counter("late")
    late.inc()
    assert late.value == 0


def test_disable_swaps_histograms_to_noops():
    from repro.sim.metrics import MetricsRegistry, NullHistogram

    registry = MetricsRegistry()
    histogram = registry.histogram("sizes")
    histogram.observe(10.0)
    registry.disable()
    assert type(histogram) is NullHistogram
    histogram.observe(1e9)
    assert histogram.count == 1
    assert histogram.max == 10.0


def test_disabled_registry_snapshot_reports_frozen_values():
    from repro.sim.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    registry.disable()
    registry.counter("a").inc(999)
    assert registry.snapshot()["a"] == 3
