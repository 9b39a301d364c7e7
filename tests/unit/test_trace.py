"""Unit tests for interval tracks and time series."""

import pytest

from repro.sim import Interval, IntervalTrack, TimeSeries


class TestIntervalTrack:
    def test_open_close_records_interval(self):
        track = IntervalTrack("cpu")
        track.open(time=10.0, label="alarm")
        interval = track.close(time=25.0)
        assert interval == Interval(10.0, 25.0, "alarm")
        assert interval.duration == 15.0

    def test_reopen_is_noop(self):
        track = IntervalTrack("cpu")
        track.open(time=10.0, label="first")
        track.open(time=20.0, label="second")
        interval = track.close(time=30.0)
        assert interval.start == 10.0
        assert interval.label == "first"

    def test_close_without_open_returns_none(self):
        track = IntervalTrack("cpu")
        assert track.close(time=5.0) is None

    def test_closed_intervals_force_closes_open_block(self):
        track = IntervalTrack("cpu")
        track.open(time=0.0)
        track.close(time=10.0)
        track.open(time=20.0)
        intervals = track.closed_intervals(until=25.0)
        assert len(intervals) == 2
        assert intervals[-1].end == 25.0
        assert track.is_open  # not mutated

    def test_total_duration(self):
        track = IntervalTrack("x")
        track.open(time=0.0)
        track.close(time=5.0)
        track.open(time=10.0)
        track.close(time=12.0)
        assert track.total_duration() == 7.0

    def test_overlap_with_slack(self):
        a = Interval(0.0, 10.0)
        b = Interval(10.5, 20.0)
        assert not a.overlaps(b)
        assert a.overlaps(b, slack=1.0)
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
