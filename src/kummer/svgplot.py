"""Small native SVG renderer: polylines, scatter dots, bars, axes.

No plotting dependency; output is deterministic for identical input.
"""

from __future__ import annotations

from math import floor, log10

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 20
MARGIN_B = 44
SERIES_COLORS = ("steelblue", "crimson", "seagreen", "darkorange")  # plot_levels, in turn


def _ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** floor(log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * (floor(lo / step) + 1)
    out = []
    t = first
    while t < hi - 1e-12 * span:
        out.append(t)
        t += step
    return out


def _fmt_tick(t: float) -> str:
    if t == 0:
        return "0"
    if abs(t) >= 1e4 or abs(t) < 1e-3:
        return f"{t:.1e}"
    return f"{t:.6g}"


class SvgCanvas:
    """Fixed-viewport data-to-pixel canvas writing SVG primitives."""

    def __init__(self, xlim, ylim, title="", xlabel="", ylabel=""):
        self.xlim = xlim
        self.ylim = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self._frame(title, xlabel, ylabel)

    def _x(self, x):
        """Pixel column of data x, a number or an array (the middle on a degenerate axis)."""
        x0, x1 = self.xlim
        frac = (x - x0) / (x1 - x0) if x1 > x0 else np.full(np.shape(x), 0.5)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def _y(self, y):
        """Pixel row of data y, a number or an array (the middle on a degenerate axis)."""
        y0, y1 = self.ylim
        frac = (y - y0) / (y1 - y0) if y1 > y0 else np.full(np.shape(y), 0.5)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def _frame(self, title, xlabel, ylabel):
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        self.parts.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
        ticks = _ticks(*self.xlim)
        for t, px in zip(ticks, self._x(np.array(ticks)).tolist()):
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" '
                f'text-anchor="middle">{_fmt_tick(t)}</text>'
            )
        ticks = _ticks(*self.ylim)
        for t, py in zip(ticks, self._y(np.array(ticks)).tolist()):
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end">{_fmt_tick(t)}</text>'
            )
        if title:
            self.parts.append(
                f'<text x="{(x0 + x1) / 2}" y="14" font-size="13" '
                f'text-anchor="middle">{title}</text>'
            )
        if xlabel:
            self.parts.append(
                f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 6}" font-size="12" '
                f'text-anchor="middle">{xlabel}</text>'
            )
        if ylabel:
            self.parts.append(
                f'<text x="14" y="{(y0 + y1) / 2}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 14 {(y0 + y1) / 2})">{ylabel}</text>'
            )

    def _emit(self, template, columns):
        """One part of `template` per row of the columns, %-formatted in one go."""
        table = np.column_stack(columns)
        if len(table):
            self.parts.append("\n".join([template] * len(table)) % tuple(table.ravel().tolist()))

    def polyline(self, xs, ys, color="steelblue", width=1.2):
        """Lines through the points; NaN in x or y breaks the line, and a lone point draws nothing."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        pts = np.column_stack((self._x(xs), self._y(ys)))
        edge = np.diff(np.concatenate(([0], ~(np.isnan(xs) | np.isnan(ys)), [0])))
        for a, b in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)):
            if b - a > 1:
                points = " ".join(["%.2f,%.2f"] * (b - a)) % tuple(pts[a:b].ravel().tolist())
                self.parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="{width}"/>'
                )

    def scatter(self, xs, ys, color="steelblue", radius=1.2):
        style = f'r="{radius}" fill="{color}"'.replace("%", "%%")
        self._emit(f'<circle cx="%.2f" cy="%.2f" {style}/>',
                   (self._x(np.asarray(xs, dtype=float)), self._y(np.asarray(ys, dtype=float))))

    def bars(self, edges, heights, color="lightsteelblue"):
        heights = np.asarray(heights, dtype=float)
        px = self._x(np.asarray(edges, dtype=float)[:len(heights) + 1])
        y = self._y(heights)
        base = self._y(max(self.ylim[0], 0.0))
        style = f'fill="{color}" stroke="none"'.replace("%", "%%")
        self._emit(f'<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" {style}/>',
                   (px[:-1], np.minimum(y, base), px[1:] - px[:-1], np.abs(base - y)))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n</svg>\n")


def _finite_limits(values, pad=0.05):
    lo, hi = np.min(values), np.max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    return lo - pad * span, hi + pad * span


def plot_sweep(table, path):
    """Eigenvalue fan over eps with fixed-point energies overlaid."""
    eps = table.eps_values
    levels = np.concatenate(table.scaled_levels)
    canvas = SvgCanvas(
        _finite_limits(eps), _finite_limits(levels),
        title=f"(m,n)=({table.spec.m},{table.spec.n})  N={table.spec.N}",
        xlabel="eps", ylabel="scaled energy",
    )
    canvas.scatter(np.repeat(eps, [len(v) for v in table.scaled_levels]), levels,
                   color="steelblue", radius=0.9)
    canvas.scatter(np.repeat(eps, [len(v) for v in table.fixed_point_energies]),
                   np.concatenate(table.fixed_point_energies), color="crimson", radius=1.6)
    canvas.save(path)


def plot_dos(spec, hist, curve, path):
    """The histogram as bars, the period curve (semiclassics.DosCurve) over it."""
    top = np.nanmax(np.concatenate((hist.density, curve.density)))
    canvas = SvgCanvas(
        (hist.bin_edges[0], hist.bin_edges[-1]), (0.0, 1.08 * top),
        title=f"density of states  (m,n)=({spec.m},{spec.n})  N={spec.N}  eps={spec.eps:g}",
        xlabel="scaled energy", ylabel="density",
    )
    canvas.bars(hist.bin_edges, hist.density)
    canvas.polyline(curve.energies, curve.density, color="crimson", width=1.6)
    canvas.save(path)


def plot_levels(xs, series, path, title="", xlabel="", ylabel=""):
    """Several y-series against a common x (trajectories, comparisons)."""
    canvas = SvgCanvas(_finite_limits(xs), _finite_limits(np.concatenate(series)),
                       title=title, xlabel=xlabel, ylabel=ylabel)
    for i, ys in enumerate(series):
        canvas.polyline(xs, ys, color=SERIES_COLORS[i % len(SERIES_COLORS)])
    canvas.save(path)


def plot_shape_profile(spec, p_grid, r_vals, path):
    """Silhouette of the surface of revolution: +-r(p) against p."""
    r_vals = np.asarray(r_vals)
    canvas = SvgCanvas(
        _finite_limits(np.concatenate((-r_vals, r_vals))), (-0.55, 0.55),
        title=f"surface silhouette  (m,n)=({spec.m},{spec.n})",
        xlabel="radius", ylabel="p",
    )
    canvas.polyline(r_vals, p_grid, color="steelblue")
    canvas.polyline(-r_vals, p_grid, color="steelblue")
    canvas.save(path)
