"""Unit tests for interval tracks and time series."""

import pytest

from repro.sim import Interval, IntervalTrack, TimeSeries


def _track():
    """A track on a clock the test sets by hand."""
    clock = {"now": 0.0}
    return IntervalTrack("cpu", lambda: clock["now"]), clock


class TestIntervalTrack:
    def test_open_close_records_interval(self):
        track, clock = _track()
        clock["now"] = 10.0
        track.open(label="alarm")
        clock["now"] = 25.0
        interval = track.close()
        assert interval == Interval(10.0, 25.0, "alarm")
        assert interval.duration == 15.0

    def test_reopen_is_noop(self):
        track, clock = _track()
        clock["now"] = 10.0
        track.open(label="first")
        clock["now"] = 20.0
        track.open(label="second")
        clock["now"] = 30.0
        interval = track.close()
        assert interval.start == 10.0
        assert interval.label == "first"

    def test_close_without_open_returns_none(self):
        track, _ = _track()
        assert track.close() is None

    def test_closed_intervals_force_closes_open_block(self):
        track, clock = _track()
        track.open()
        clock["now"] = 10.0
        track.close()
        clock["now"] = 20.0
        track.open()
        intervals = track.closed_intervals(until=25.0)
        assert len(intervals) == 2
        assert intervals[-1].end == 25.0
        assert track.is_open  # not mutated

    def test_total_duration(self):
        track, clock = _track()
        for opened, closed in ((0.0, 5.0), (10.0, 12.0)):
            clock["now"] = opened
            track.open()
            clock["now"] = closed
            track.close()
        assert track.total_duration() == 7.0

    def test_overlap_is_a_shared_instant(self):
        a = Interval(0.0, 10.0)
        assert not a.overlaps(Interval(10.5, 20.0))
        assert a.overlaps(Interval(10.0, 20.0))
        assert a.overlaps(Interval(5.0, 6.0))
        assert not a.overlaps(Interval(11.0, 12.0))


class TestTimeSeries:
    def test_append_requires_time_order(self):
        series = TimeSeries()
        series.append(0.0, 1.0)
        with pytest.raises(ValueError):
            series.append(-1.0, 2.0)

    def test_integrate_trapezoid(self):
        series = TimeSeries()
        series.append(0.0, 0.0)
        series.append(10.0, 10.0)
        assert series.integrate() == pytest.approx(50.0)

    def test_integrate_constant(self):
        series = TimeSeries()
        for t in range(11):
            series.append(float(t), 2.0)
        assert series.integrate() == pytest.approx(20.0)

    def test_window(self):
        series = TimeSeries()
        for t in range(10):
            series.append(float(t), float(t))
        windowed = series.window(3.0, 6.0)
        assert windowed.times == [3.0, 4.0, 5.0, 6.0]

    def test_max_mean_empty(self):
        series = TimeSeries()
        assert series.max() == 0.0
        assert series.mean() == 0.0
        series.append(0.0, 4.0)
        series.append(1.0, 8.0)
        assert series.max() == 8.0
        assert series.mean() == 6.0
