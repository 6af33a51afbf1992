"""Static SVG charts built by string assembly.

No plotting dependency: determinism of the emitted bytes is a test
target, so every coordinate is formatted through fixed patterns and
the input data is embedded in comments for machine re-extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 78, 26, 46, 58
PALETTE = ("#1f6f8b", "#c85c2e", "#5a8a3c", "#7a4f9e", "#9c3d54")


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]


def _transform(value: float, loglog: bool) -> float:
    if loglog:
        if value <= 0.0:
            raise ValueError("log axes need positive data")
        return math.log10(value)
    return value


def _tick_label(t: float, loglog: bool) -> str:
    return f"{10.0 ** t:.3g}" if loglog else f"{t:.4g}"


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = 0.5 if lo == 0.0 else 0.1 * abs(lo) + 1e-12
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_line_chart(
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
    slope_annotation: float | None = None,
) -> str:
    """Assemble a standalone SVG line chart as text."""
    if not series:
        raise ValueError("no data series to plot")
    for s in series:
        if len(s.points) < 2:
            raise ValueError(f"series {s.name!r} needs at least two points")
    xs = [_transform(x, loglog) for s in series for x, _ in s.points]
    ys = [_transform(y, loglog) for s in series for _, y in s.points]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h * (y_hi - y) / (y_hi - y_lo)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    for s in series:
        out.append(f"<!-- series: {s.name} -->")
        for x, y in s.points:
            out.append(f"<!-- data: {x:.17g},{y:.17g} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    # frame
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444444"/>'
    )
    for i in range(5):
        t = i / 4.0
        tx = x_lo + t * (x_hi - x_lo)
        ty = y_lo + t * (y_hi - y_lo)
        x_pix = px(tx)
        y_pix = py(ty)
        out.append(
            f'<line x1="{x_pix:.2f}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{x_pix:.2f}" y2="{MARGIN_TOP + plot_h + 5}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{x_pix:.2f}" y="{MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_tick_label(tx, loglog)}</text>"
        )
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y_pix:.2f}" '
            f'x2="{MARGIN_LEFT}" y2="{y_pix:.2f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{y_pix + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_tick_label(ty, loglog)}</text>"
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(
            f"{px(_transform(x, loglog)):.2f},{py(_transform(y, loglog)):.2f}"
            for x, y in s.points
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        for x, y in s.points:
            out.append(
                f'<circle cx="{px(_transform(x, loglog)):.2f}" '
                f'cy="{py(_transform(y, loglog)):.2f}" r="2.4" fill="{color}"/>'
            )
    if len(series) > 1:
        for k, s in enumerate(series):
            color = PALETTE[k % len(PALETTE)]
            y_pix = MARGIN_TOP + 14 + 16 * k
            out.append(
                f'<line x1="{WIDTH - MARGIN_RIGHT - 130}" y1="{y_pix}" '
                f'x2="{WIDTH - MARGIN_RIGHT - 108}" y2="{y_pix}" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )
            out.append(
                f'<text x="{WIDTH - MARGIN_RIGHT - 102}" y="{y_pix + 4}" '
                f'font-family="sans-serif" font-size="11">{s.name}</text>'
            )
    if slope_annotation is not None:
        out.append(
            f'<text x="{MARGIN_LEFT + 8}" y="{MARGIN_TOP + 16}" '
            f'font-family="sans-serif" font-size="12">'
            f"log-log slope &#8776; {slope_annotation:.3f}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def chart_from_report(report: Mapping) -> str | None:
    """Build the chart for a report's curve using its plot hints.

    On log axes a point with a coordinate <= 0 is left off the chart (it
    stays in the report and the CSV), and a series left with fewer than
    two points is dropped.  Returns None when no series is left.
    """
    curve = report.get("curve") or {}
    columns = curve.get("columns") or []
    rows = curve.get("rows") or []
    if len(columns) < 2:
        raise ValueError("report carries no plottable curve")
    if len(rows) < 2:
        raise ValueError("need at least two curve points to plot")
    hints = report.get("plot") or {}
    loglog = bool(hints.get("loglog", False))
    y_columns = hints.get("y_columns") or columns[1:]
    series = []
    for name in y_columns:
        j = columns.index(name)
        points = tuple((float(r[0]), float(r[j])) for r in rows)
        if loglog:
            points = tuple(p for p in points if p[0] > 0.0 and p[1] > 0.0)
        if len(points) >= 2:
            series.append(Series(name=name, points=points))
    if not series:
        return None
    return render_line_chart(
        series,
        title=hints.get("title", report.get("kind", "curve")),
        xlabel=hints.get("xlabel", columns[0]),
        ylabel=hints.get("ylabel", "value"),
        loglog=loglog,
        slope_annotation=hints.get("slope"),
    )
