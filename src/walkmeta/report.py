"""Self-contained SVG line charts: metric versus cumulative communication.

No plotting library: output is a deterministic byte-for-byte function of
the inputs, so charts can be diffed across runs.
"""

from __future__ import annotations

import math

from .errors import ParameterError

_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 30, 50
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_svg(series: list[tuple[str, list[float], list[float]]],
               x_label: str = "communication units",
               y_label: str = "metric") -> str:
    """series: (label, xs, ys) triples; xs must be nondecreasing. Points
    with a non-finite coordinate (an aborted run's last row) are left out,
    and the axes span the finite points only."""
    from xml.sax.saxutils import escape  # here: it loads urllib.request and http.client
    if not series:
        raise ParameterError("nothing to plot")
    finite = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or not xs:
            raise ParameterError(f"series {label!r} is empty or ragged")
        points = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        if not points:
            raise ParameterError(f"series {label!r} has no finite point")
        if any(b[0] < a[0] for a, b in zip(points, points[1:])):
            raise ParameterError(f"series {label!r} has a decreasing x axis")
        finite.append((label, points))
    all_x = [x for _, points in finite for x, _ in points]
    all_y = [y for _, points in finite for _, y in points]
    x_lo, x_hi, y_lo, y_hi = min(all_x), max(all_x), min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = _fmt(sx(xt))
        out.append(f'<line x1="{px}" y1="{_MARGIN_T + plot_h}" x2="{px}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{px}" y="{_MARGIN_T + plot_h + 20}" '
                   f'font-size="11" text-anchor="middle">{_fmt(xt)}</text>')
    for yt in _ticks(y_lo, y_hi):
        py = _fmt(sy(yt))
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py}" x2="{_MARGIN_L}" '
                   f'y2="{py}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{py}" font-size="11" '
                   f'text-anchor="end" dominant-baseline="middle">{_fmt(yt)}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 10}" '
               f'font-size="13" text-anchor="middle">{escape(x_label)}</text>')
    out.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{_MARGIN_T + plot_h / 2})">{escape(y_label)}</text>')
    for idx, (label, points) in enumerate(finite):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 15 + idx * 18
        lx = _WIDTH - _MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 26}" y="{ly + 4}" '
                   f'font-size="11">{escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
