"""Unit tests for the benchmark harness (reporting + shape assertions)."""

import pytest

from repro.bench import (
    Figure,
    assert_faster_beyond,
    assert_roughly_monotone,
    blocking_speedup_model,
    crossover_interval,
    format_table,
)
from repro.bench.reporting import Series, ascii_chart
from repro.bench.shapes import ShapeViolation, assert_speedup_at_least


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 20000.0]],
            title="Things",
        )
        lines = text.splitlines()
        assert lines[0] == "Things"
        assert "name" in lines[1] and "value" in lines[1]
        assert "-" in lines[2]
        assert "1.500" in text and "20000" in text

    def test_small_float_formatting(self):
        text = format_table(["x"], [[0.00123], [0.0]])
        assert "0.0012" in text
        assert "\n  0\n" in text or text.endswith("0")

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestSeriesAndFigure:
    def test_series_lookup(self):
        series = Series("s")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.y_at(2) == 20.0
        with pytest.raises(ValueError):
            series.y_at(99)

    def test_figure_table_unions_x(self):
        figure = Figure("T", "x", "y")
        a = figure.new_series("a")
        b = figure.new_series("b")
        a.add(1, 1.0)
        a.add(2, 2.0)
        b.add(2, 4.0)
        text = figure.as_table()
        assert "T" in text
        # x=1 row has a blank for series b
        lines = [ln for ln in text.splitlines() if ln.strip().startswith("1")]
        assert lines

    def test_render_includes_chart_and_legend(self):
        figure = Figure("T", "x", "seconds")
        s = figure.new_series("only")
        for x in range(5):
            s.add(x, float(x * x))
        text = figure.render()
        assert "a=only" in text
        assert "y: seconds" in text

    def test_empty_chart(self):
        assert ascii_chart([]) == "(empty chart)"

    def test_flat_series_does_not_crash(self):
        s = Series("flat")
        s.add(0, 5.0)
        s.add(10, 5.0)
        text = ascii_chart([s])
        assert "a=flat" in text


class TestShapeAssertions:
    def test_crossover_found(self):
        xs = [1, 2, 3, 4]
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 2.5, 2.6, 2.7]
        assert crossover_interval(xs, a, b) == (2, 3)

    def test_no_crossover(self):
        xs = [1, 2, 3]
        assert crossover_interval(xs, [1, 2, 3], [4, 5, 6]) is None

    def test_exact_tie_is_a_crossover_point(self):
        xs = [1, 2, 3]
        assert crossover_interval(xs, [1, 5, 9], [3, 5, 7]) == (2, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_interval([1], [1, 2], [1, 2])

    def test_faster_beyond_passes_within_tolerance(self):
        assert_faster_beyond(
            [1, 2, 3], [1.0, 2.0, 3.05], [9.0, 2.0, 3.0],
            threshold_x=2, tolerance=1.05,
        )

    def test_faster_beyond_raises(self):
        with pytest.raises(ShapeViolation):
            assert_faster_beyond(
                [1, 2], [5.0, 5.0], [1.0, 1.0], threshold_x=1
            )

    def test_speedup_assertion(self):
        assert_speedup_at_least(10.0, 2.0, 4.9)
        with pytest.raises(ShapeViolation):
            assert_speedup_at_least(10.0, 2.0, 5.1)

    def test_roughly_monotone_allows_noise(self):
        assert_roughly_monotone([10, 9, 9.5, 5, 5.2], decreasing=True)

    def test_roughly_monotone_rejects_trend_break(self):
        with pytest.raises(ShapeViolation):
            assert_roughly_monotone([10, 5, 9], decreasing=True)

    def test_roughly_monotone_increasing(self):
        assert_roughly_monotone([1, 2, 1.95, 4], decreasing=False)
        with pytest.raises(ShapeViolation):
            assert_roughly_monotone([1, 4, 2], decreasing=False)


class TestBlockingModel:
    def test_paper_anchor(self):
        point = blocking_speedup_model(n=1500, m=3)
        assert point["block"] == 500
        assert 10 < point["speedup_pct"] < 17

    def test_in_cache_no_gain(self):
        point = blocking_speedup_model(n=120, m=2)
        assert point["speedup_pct"] == pytest.approx(0.0, abs=0.5)
