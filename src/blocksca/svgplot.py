"""Minimal SVG line charts for convergence traces; no renderer dependency.

Charts are plain axes, tick marks, and one <polyline> per data series, so a
trace chart contains exactly two polylines per input (solid stationarity
gap, dashed disagreement). Everything else is drawn with <line> and <text>.
"""
from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 880, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 230, 40, 60
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

LOG_FLOOR = 1e-16


def _x_px(v, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return MARGIN_L + (v - lo) / span * PLOT_W


def _y_px(v, lo_exp, hi_exp):
    e = math.log10(max(v, LOG_FLOOR))
    span = hi_exp - lo_exp if hi_exp > lo_exp else 1.0
    return MARGIN_T + (hi_exp - e) / span * PLOT_H


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline(xs, ys, color, dashed=False) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="7,4"' if dashed else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} points="{pts}" />'


def _text(x, y, s, anchor="start") -> str:
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="13" font-family="sans-serif" text-anchor="{anchor}">{s}</text>'


def _line(x1, y1, x2, y2, color="#444", width=1.0) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{width}" />'
    )


def _write_chart(path, entries, x_label, y_label) -> None:
    """Write a log-scale chart: one legend entry per (label, x values,
    curves), one polyline per curve, the first solid and any other dashed."""
    if not entries:
        raise ValueError("nothing to plot")
    x_lo, x_hi = 0.0, max(max(xs) for _, xs, _ in entries if len(xs)) or 1.0
    vals = [max(v, LOG_FLOOR) for _, _, curves in entries for ys in curves for v in ys]
    lo_exp = math.floor(math.log10(min(vals)))
    hi_exp = math.ceil(math.log10(max(vals)))
    if hi_exp <= lo_exp:
        hi_exp = lo_exp + 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white" />',
    ]
    x0, y0 = MARGIN_L, MARGIN_T + PLOT_H
    parts.append(_line(x0, MARGIN_T, x0, y0))
    parts.append(_line(x0, y0, x0 + PLOT_W, y0))
    n_ticks = 6
    for k in range(n_ticks + 1):
        v = x_lo + (x_hi - x_lo) * k / n_ticks
        px = _x_px(v, x_lo, x_hi)
        parts.append(_line(px, y0, px, y0 + 5))
        parts.append(_text(px, y0 + 20, f"{v:g}", anchor="middle"))
    for e in range(math.ceil(lo_exp), math.floor(hi_exp) + 1):
        py = _y_px(10.0**e, lo_exp, hi_exp)
        parts.append(_line(x0 - 5, py, x0, py))
        parts.append(_line(x0, py, x0 + PLOT_W, py, color="#ddd", width=0.6))
        parts.append(_text(x0 - 9, py + 4, f"1e{e}", anchor="end"))
    parts.append(_text(x0 + PLOT_W / 2, HEIGHT - 18, x_label, anchor="middle"))
    parts.append(_text(18, MARGIN_T - 14, y_label))

    legend_x = MARGIN_L + PLOT_W + 18
    for idx, (label, xs, curves) in enumerate(entries):
        color = PALETTE[idx % len(PALETTE)]
        px = [_x_px(v, x_lo, x_hi) for v in xs]
        for k, ys in enumerate(curves):
            py = [_y_px(v, lo_exp, hi_exp) for v in ys]
            parts.append(_polyline(px, py, color, dashed=k > 0))
        y = MARGIN_T + 10 + idx * 20
        parts.append(_line(legend_x, y - 4, legend_x + 24, y - 4, color=color, width=2))
        parts.append(_text(legend_x + 30, y, label))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def plot_traces(series, path) -> None:
    """Convergence chart: per (label, x values, stationarity gap,
    disagreement) entry, a solid gap and a dashed disagreement polyline."""
    entries = [(label, xs, (solid, dashed)) for label, xs, solid, dashed in series]
    _write_chart(path, entries, "normalized iteration t/B",
                 "stationarity gap (solid), disagreement (dashed)")


def plot_summary(series, path) -> None:
    """Completion-time chart: one polyline per labeled (B, value) series."""
    entries = [(label, xs, (ys,)) for label, xs, ys in series]
    _write_chart(path, entries, "number of blocks B", "normalized completion time")
