"""Deterministic SVG emission."""

import pytest

from bergman_carleson.plotting import Series, chart_from_report, render_line_chart

LINE = Series("ratio", ((1.0, 2.0), (2.0, 2.0), (3.0, 2.0)))


class TestRenderLineChart:
    def test_contains_structure_and_data_table(self):
        svg = render_line_chart([LINE], "t", "x", "y")
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert "<!-- series: ratio -->" in svg
        assert "<!-- data: 1,2 -->" in svg

    def test_deterministic_output(self):
        a = render_line_chart([LINE], "t", "x", "y")
        b = render_line_chart([LINE], "t", "x", "y")
        assert a == b

    def test_flat_series_has_padded_axis(self):
        svg = render_line_chart([LINE], "t", "x", "y")
        assert "NaN" not in svg and "inf" not in svg

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([Series("s", ((1.0, 1.0),))], "t", "x", "y")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([], "t", "x", "y")

    def test_log_axes_need_positive_data(self):
        bad = Series("s", ((0.5, 1.0), (0.25, -2.0)))
        with pytest.raises(ValueError):
            render_line_chart([bad], "t", "x", "y", loglog=True)

    def test_slope_annotation_rendered(self):
        svg = render_line_chart(
            [Series("s", ((0.5, 2.0), (0.25, 4.0)))],
            "t",
            "x",
            "y",
            loglog=True,
            slope_annotation=-1.0,
        )
        assert "slope" in svg and "-1.000" in svg

    def test_legend_only_for_multiple_series(self):
        one = render_line_chart([LINE], "t", "x", "y")
        two = render_line_chart(
            [LINE, Series("other", ((1.0, 1.0), (2.0, 3.0), (3.0, 1.0)))], "t", "x", "y"
        )
        assert one.count("ratio") < two.count("ratio") or "other" in two


class TestChartFromReport:
    REPORT = {
        "kind": "sweep",
        "curve": {
            "columns": ["dimension", "norm", "ratio"],
            "rows": [[1.0, 4.0, 1.0], [2.0, 4.0, 1.0], [4.0, 4.0, 1.0]],
        },
        "plot": {"y_columns": ["ratio"], "xlabel": "d", "ylabel": "r"},
    }

    def test_honors_column_selection(self):
        svg = chart_from_report(self.REPORT)
        assert "<!-- series: ratio -->" in svg
        assert "<!-- series: norm -->" not in svg

    def test_short_curve_rejected(self):
        trimmed = dict(self.REPORT)
        trimmed["curve"] = {"columns": ["x", "y"], "rows": [[1.0, 1.0]]}
        with pytest.raises(ValueError):
            chart_from_report(trimmed)

    def test_log_axes_leave_nonpositive_points_off(self):
        report = {
            "kind": "x",
            "curve": {
                "columns": ["x", "a", "b"],
                "rows": [[1.0, 0.0, 1.0], [2.0, 2.0, -1.0], [4.0, 3.0, 0.0]],
            },
            "plot": {"loglog": True},
        }
        svg = chart_from_report(report)
        # series b keeps one point and is dropped; a keeps two
        assert "<!-- series: a -->" in svg and "<!-- series: b -->" not in svg
        assert svg.count("<!-- data: ") == 2
        report["curve"]["rows"][1][1] = 0.0
        assert chart_from_report(report) is None

    def test_missing_curve_rejected(self):
        with pytest.raises(ValueError):
            chart_from_report({"kind": "x", "curve": {"columns": [], "rows": []}})
