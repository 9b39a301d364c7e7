"""Unit tests for the kernel metrics plane."""

from repro.sim.kernel import Kernel
from repro.sim.metrics import Counter, Histogram, MetricsRegistry


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


def test_snapshot_sorted_and_gauges_pulled_lazily():
    registry = MetricsRegistry()
    registry.counter("z.count").inc(3)
    pulls = []

    def gauge():
        pulls.append(True)
        return 7.0

    registry.gauge("a.gauge", gauge)
    assert pulls == []  # registering costs nothing
    snap = registry.snapshot()
    assert snap == {"z.count": 3, "a.gauge": 7.0}
    assert pulls == [True]


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
    first = registry.report()
    second = registry.report()
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
