"""Static SVG rendering of sweep results.

The writer is deliberately dependency-free and deterministic: fixed canvas,
fixed colors, floats formatted to fixed precision, so repeated runs of the
same sweep produce byte-identical files.  A plot shows one block index.
One-dimensional sweeps become line plots; two-dimensional sweeps become a
two-color phase raster with the analytic boundary epsilon = omega +- 2
gamma sqrt(n+1) overlaid when the sweep spec is supplied.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .model import Phase
from .scan import SweepTable, _float_columns, _formatted, _opened, _require_table

__all__ = ["render_svg"]

_WIDTH, _HEIGHT = 800, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 24, 28, 48

_PHASE_FILL = {
    Phase.UNBROKEN: "#4878cf",
    Phase.BROKEN: "#c5c5c5",
    Phase.EXCEPTIONAL_POINT: "#111111",
}

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")
_DASHES = (None, "8,5", "2,3", "6,3,2,3")


def _px(x: float) -> str:
    return "%.2f" % x


def _pxs(values: list[float]) -> list[str]:
    """_px of each value: float.__format__ gives "%.2f" % v's text."""
    return list(map(float.__format__, values, repeat(".2f")))


def _tick(x: float) -> str:
    return "%.6g" % x


class _Scale:
    def __init__(self, lo: float, hi: float, p_lo: float, p_hi: float):
        if hi == lo:
            hi = lo + 1.0
        self.lo, self.hi, self.p_lo, self.p_hi = lo, hi, p_lo, p_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.p_lo + frac * (self.p_hi - self.p_lo)


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH // 2}" y="18" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]


def _axes(sx: _Scale, sy: _Scale, xlabel: str, ylabel: str) -> list[str]:
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    y0, y1 = _HEIGHT - _BOTTOM, _TOP
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000000" stroke-width="1"/>',
    ]
    for value, anchor_x in ((sx.lo, x0), (sx.hi, x1)):
        parts.append(
            f'<text x="{anchor_x}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{_tick(value)}</text>'
        )
    for value in (sy.lo, sy.hi):
        parts.append(
            f'<text x="{x0 - 8}" y="{_px(sy(value) + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_tick(value)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) // 2}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {(y0 + y1) // 2})">{ylabel}</text>'
    )
    return parts


def _polyline(xs, ys, sx: _Scale, sy: _Scale, stroke: str, dash: str | None) -> str:
    points = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5"{dash_attr} '
        f'points="{points}"/>'
    )


def _legend(labels_strokes: list[tuple[str, str, str | None]]) -> list[str]:
    parts = []
    x = _WIDTH - _RIGHT - 150
    y = _TOP + 10
    for i, (label, stroke, dash) in enumerate(labels_strokes):
        yy = y + 16 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{x}" y1="{yy}" x2="{x + 26}" y2="{yy}" stroke="{stroke}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{x + 32}" y="{yy + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    return parts


def _data_range(values) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


# Each line-plot kind's series as (label, file column) pairs.  render_svg's
# "auto" takes the first kind in this order whose columns the table holds;
# every table holds the spectrum's.
_SERIES = {
    "entropy": (("S I", "entropy_I"), ("S II", "entropy_II")),
    "dynamics": (("D(t)", "survival"), ("r_x", "bloch_x"), ("r_y", "bloch_y"), ("r_z", "bloch_z")),
    "metric": (("|G|", "metric_norm"),),
    "spectrum": (
        ("Re I", "eigenvalue_I_re"), ("Re II", "eigenvalue_II_re"),
        ("Im I", "eigenvalue_I_im"), ("Im II", "eigenvalue_II_im"),
    ),
}


def _ep_marker_x(table, spec) -> float | None:
    # vertical marker at the exceptional point, when it can be computed
    if spec is None:
        return None
    axis = table.axis_names[0]
    gap = abs(spec.fixed.omega - spec.fixed.epsilon)
    n = int(table.n[0])
    if axis == "delta":
        return 0.5 * gap
    if axis == "delta_sq":
        return (0.5 * gap) ** 2
    if axis == "gamma":
        return 0.5 * gap / math.sqrt(n + 1)
    return None


def _render_lines(table, kind: str, spec) -> str:
    if kind not in _SERIES:
        raise ValueError(f"unknown plot kind {kind!r}")
    xs = table.coords[0]
    columns = _float_columns(table)
    lines = []  # (label, x, y) of each series at its finite values, if it has one
    for label, name in _SERIES[kind]:
        # NaN where a cell omits the value or the table lacks the column
        values = np.where(table.omitted.get(name, False), math.nan, columns.get(name, math.nan))
        finite = np.isfinite(values)
        if finite.any():
            lines.append((label, xs[finite].tolist(), values[finite].tolist()))
    if not lines:
        raise ValueError(f"no data to plot for kind {kind!r}")
    sx = _Scale(min(xs.tolist()), max(xs.tolist()), _LEFT, _WIDTH - _RIGHT)
    ylo, yhi = _data_range([y for _, _, ys in lines for y in ys])
    sy = _Scale(ylo, yhi, _HEIGHT - _BOTTOM, _TOP)
    parts = _header(kind)
    parts += _axes(sx, sy, table.axis_names[0], kind)
    legend = []
    for i, (label, pts_x, pts_y) in enumerate(lines):
        stroke = _PALETTE[i % len(_PALETTE)]
        dash = _DASHES[i % len(_DASHES)]
        parts.append(_polyline(pts_x, pts_y, sx, sy, stroke, dash))
        legend.append((label, stroke, dash))
    marker = _ep_marker_x(table, spec)
    if marker is not None and sx.lo <= marker <= sx.hi:
        mx = _px(sx(marker))
        parts.append(
            f'<line x1="{mx}" y1="{_TOP}" x2="{mx}" y2="{_HEIGHT - _BOTTOM}" '
            f'stroke="#888888" stroke-width="1" stroke-dasharray="4,4"/>'
        )
    parts += _legend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _boundary_points(axis_names, x_values, spec, n):
    """Analytic phase boundary as (x, y) point lists, one per branch."""
    if spec is None:
        return []
    omega = spec.fixed.omega
    root = 2.0 * math.sqrt(n + 1)
    if axis_names == ("gamma", "epsilon"):
        return [[(g, omega + sign * root * g) for g in x_values] for sign in (1.0, -1.0)]
    if axis_names == ("epsilon", "gamma"):
        return [[(e, abs(omega - e) / root) for e in x_values]]
    return []


def _render_raster(table, spec) -> str:
    n = int(table.n[0])
    cx, cy = table.coords
    xs = np.unique(cx).tolist()
    ys = np.unique(cy).tolist()
    half_x = 0.5 * (xs[1] - xs[0]) if len(xs) > 1 else 0.5
    half_y = 0.5 * (ys[1] - ys[0]) if len(ys) > 1 else 0.5
    sx = _Scale(xs[0] - half_x, xs[-1] + half_x, _LEFT, _WIDTH - _RIGHT)
    sy = _Scale(ys[0] - half_y, ys[-1] + half_y, _HEIGHT - _BOTTOM, _TOP)
    names = table.axis_names
    parts = _header(f"phase map (n={n})")
    parts += _axes(sx, sy, names[0], names[1])
    w = _px(abs(sx(2 * half_x) - sx(0)))
    h = _px(abs(sy(0) - sy(2 * half_y)))
    # the scales do the same float operations on arrays as on scalars, and
    # _pxs is _px: a grid repeats each corner along a whole row or column
    corners = zip(
        _formatted(sx(cx - half_x), _pxs), _formatted(sy(cy + half_y), _pxs),
        table.phase.tolist(),
    )
    fills = [_PHASE_FILL[p] for p in Phase]
    parts += [
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fills[k]}"/>'
        for x, y, k in corners
    ]
    for branch in _boundary_points(names, xs, spec, n):
        inside = [(x, y) for x, y in branch if sy.lo <= y <= sy.hi]
        if len(inside) >= 2:
            parts.append(
                _polyline(
                    [p[0] for p in inside], [p[1] for p in inside], sx, sy, "#000000", "5,3"
                )
            )
    parts += _legend(
        [("unbroken", _PHASE_FILL[Phase.UNBROKEN], None),
         ("broken", _PHASE_FILL[Phase.BROKEN], None)]
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(table: SweepTable, path, kind: str = "auto", spec=None) -> None:
    """Render a SweepTable to a standalone SVG file (a path) or text stream.

    kind: "auto", "spectrum", "entropy", "metric", "dynamics", or "raster".
    `spec` (the SweepSpec that produced the table) is optional and enables
    the phase-boundary overlay and the exceptional-point marker.  The text
    is complete before the target is opened, so a plot that fails writes
    nothing.  Raises ValueError for anything but a SweepTable of one block
    index and EmptySweepError for a table with no cells.
    """
    _require_table(table, "render")
    if (table.n != table.n[0]).any():
        raise ValueError("SVG rendering expects a single block index")
    if kind == "auto":
        columns = _float_columns(table)
        kind = "raster" if len(table.axis_names) == 2 else next(
            k for k, series in _SERIES.items() if any(name in columns for _, name in series)
        )
    if kind == "raster":
        if len(table.axis_names) != 2:
            raise ValueError("raster rendering needs a two-axis sweep")
        text = _render_raster(table, spec)
    else:
        text = _render_lines(table, kind, spec)
    with _opened(path, "w") as stream:
        stream.write(text)
