"""The efficient-frontier chart as a static SVG, no plotting dependency.

Objective over minimum clearance: axes, tick marks with labels, fixed axis
labels, a title naming p, one polyline per run of solved points (gaps break
the line) and a dot on every solved point.
"""

from __future__ import annotations

import math
from itertools import groupby

from .frontier import FrontierRecord

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _ticks(lo: float, hi: float) -> list[float]:
    """Round ticks over [lo, hi], at least (hi - lo) / 6 apart, so at most 8; just [lo] for an
    empty span, one too narrow for distinct 12-decimal ticks, or one near overflow."""
    raw = (hi - lo) / 6
    scale = max(abs(lo), abs(hi), 1.0)
    if not (1e-12 * scale < raw and scale < 1e300):
        return [lo]
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_frontier_chart(records: list[FrontierRecord], path) -> None:
    """Chart of the records' objectives over their clearances; gap records
    break the line."""
    solved = [r for r in records if r.objective is not None]
    if not solved:
        raise ValueError("no solved point to chart")
    xmin, xmax = min(r.dmin for r in records), max(r.dmin for r in records)
    ymin, ymax = min(r.objective for r in solved), max(r.objective for r in solved)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pad = 0.04 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(x):
        return MARGIN_L + (x - xmin) / (xmax - xmin) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - ymin) / (ymax - ymin) * (HEIGHT - MARGIN_T - MARGIN_B)

    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    ymid = (MARGIN_T + HEIGHT - MARGIN_B) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f'efficient frontier, p={len(solved[0].facilities)}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}" stroke="black"/>',
    ]
    for t in _ticks(xmin, xmax):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{y0}" x2="{sx(t):.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{sx(t):.1f}" y="{y0 + 18}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(ymin, ymax):
        parts.append(f'<line x1="{x0 - 5}" y1="{sy(t):.1f}" x2="{x0}" y2="{sy(t):.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{sy(t) + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
    parts += [
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">minimum clearance D</text>',
        f'<text x="16" y="{ymid:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {ymid:.1f})">objective</text>',
    ]
    for is_solved, run in groupby(records, key=lambda r: r.objective is not None):
        points = [f"{sx(r.dmin):.2f},{sy(r.objective):.2f}" for r in run] if is_solved else []
        if len(points) > 1:
            parts.append(
                f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.8" '
                f'points="{" ".join(points)}"/>'
            )
    for r in solved:
        parts.append(f'<circle cx="{sx(r.dmin):.2f}" cy="{sy(r.objective):.2f}" r="2.5" fill="#1f77b4"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
