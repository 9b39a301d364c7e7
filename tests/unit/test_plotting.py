"""Unit tests for the ASCII figure renderer."""

import pytest

from repro.analysis.plotting import render_series, render_tracks
from repro.sim.trace import Interval, TimeSeries


def make_step_series():
    series = TimeSeries()
    for i in range(101):
        series.append(i * 10.0, 1.0 if 30 <= i <= 60 else 0.1)
    return series


class TestRenderSeries:
    def test_basic_shape(self):
        out = render_series(make_step_series(), height=4)
        lines = out.splitlines()
        # 4 chart rows + axis + annotation row + time row.
        assert len(lines) == 7
        assert "+" in lines[4]
        assert "█" in out

    def test_y_axis_labels(self):
        out = render_series(make_step_series(), height=5)
        assert "1.00 W" in out
        assert "0 s" in out

    def test_annotations_positioned(self):
        out = render_series(
            make_step_series(), height=3,
            annotations=[(300.0, "a"), (600.0, "d")],
        )
        footer = out.splitlines()[-2]
        assert "a" in footer and "d" in footer
        assert footer.index("a") < footer.index("d")

    def test_annotations_outside_window_skipped(self):
        out = render_series(
            make_step_series(), height=3,
            annotations=[(99_999.0, "x")],
        )
        assert "x" not in out.splitlines()[-2]

    def test_window_selection(self):
        series = TimeSeries()
        for i in range(1001):
            series.append(float(i), 1.0 if 300 <= i <= 600 else 0.1)
        out = render_series(series, height=3, start_ms=300.0, end_ms=600.0)
        # Whole window is the high plateau: every column full.
        chart_rows = out.splitlines()[:3]
        assert all(set(r.split("|")[1]) == {"█"} for r in chart_rows)

    def test_empty_series(self):
        assert "empty" in render_series(TimeSeries())

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            render_series(make_step_series(), start_ms=500.0, end_ms=500.0)

    def test_peaks_survive_downsampling(self):
        series = TimeSeries()
        for i in range(1000):
            series.append(float(i), 5.0 if i == 500 else 0.0)
        out = render_series(series, height=4)
        assert "█" in out  # the single-sample spike is visible


class TestRenderTracks:
    def test_blocks_positioned(self):
        out = render_tracks(
            [
                ("cpu", [Interval(0.0, 100.0), Interval(900.0, 1000.0)]),
                ("app", [Interval(450.0, 550.0)]),
            ],
            0.0,
            1000.0,
            width=20,
        )
        cpu_row, app_row = out.splitlines()[:2]
        cells = cpu_row.split("|")[1]
        assert cells[0] == "█" and cells[-1] == "█"
        assert cells[10] == " "
        assert app_row.split("|")[1][10] == "█"

    def test_out_of_window_intervals_ignored(self):
        out = render_tracks(
            [("x", [Interval(5000.0, 6000.0)])], 0.0, 1000.0, width=10
        )
        assert "█" not in out

    def test_labels_aligned(self):
        out = render_tracks(
            [("a", []), ("longer-name", [])], 0.0, 10.0, width=5
        )
        first, second = out.splitlines()[:2]
        assert first.index("|") == second.index("|")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            render_tracks([], 10.0, 10.0)
