"""The array canvas against the per-point formulas it replaced, text for text."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from kummer import meanfield, quantum, semiclassics
from kummer.model import ModelSpec
from kummer.svgplot import (
    HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, SvgCanvas, _fmt_tick, _ticks,
    plot_dos, plot_levels, plot_shape_profile, plot_sweep,
)

nan, inf = float("nan"), float("inf")


class ScalarReference:
    """Pixel mapping and primitives one point at a time, as a scalar oracle."""

    def __init__(self, xlim, ylim):
        self.xlim, self.ylim = xlim, ylim

    def x(self, x):
        x0, x1 = self.xlim
        frac = (x - x0) / (x1 - x0) if x1 > x0 else 0.5
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, y):
        y0, y1 = self.ylim
        frac = (y - y0) / (y1 - y0) if y1 > y0 else 0.5
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def polyline(self, xs, ys, color, width):
        out, pts = [], []
        for x, y in list(zip(xs, ys)) + [(nan, nan)]:
            if x != x or y != y:  # NaN breaks the line
                if len(pts) > 1:
                    out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                               f'stroke="{color}" stroke-width="{width}"/>')
                pts = []
                continue
            pts.append(f"{self.x(x):.2f},{self.y(y):.2f}")
        return out

    def scatter(self, xs, ys, color, radius):
        return [f'<circle cx="{self.x(x):.2f}" cy="{self.y(y):.2f}" r="{radius}" fill="{color}"/>'
                for x, y in zip(xs, ys)]

    def bars(self, edges, heights, color):
        base = self.y(max(self.ylim[0], 0.0))
        out = []
        for i, h in enumerate(heights):
            x0, x1, y = self.x(edges[i]), self.x(edges[i + 1]), self.y(h)
            out.append(f'<rect x="{x0:.2f}" y="{min(y, base):.2f}" width="{x1 - x0:.2f}" '
                       f'height="{abs(base - y):.2f}" fill="{color}" stroke="none"/>')
        return out


LIMITS = {
    "plain": ((-1.5, 2.0), (-0.3, 0.7)),
    "degenerate_x": ((0.5, 0.5), (-0.3, 0.7)),
    "degenerate_y": ((-1.5, 2.0), (1.0, 1.0)),
    "degenerate_both": ((3.0, 3.0), (0.0, 0.0)),
}

rng = np.random.default_rng(7)
XS, YS = rng.uniform(-2.0, 2.5, 300), rng.uniform(-0.5, 0.9, 300)
POINT_SETS = {
    "random": (XS, YS),
    "ints_as_lists": (list(range(8)), [3, -1, 0, 2, 5, 1, 1, 4]),
    "nan_at_start_and_end": ([nan, 0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4, nan]),
    "two_nans_in_a_row": ([0.0, 0.1, nan, nan, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    "lone_point_between_nans": ([0.0, 0.1, nan, 0.3, nan, 0.5, 0.6], [0.1, 0.2, 0.3, nan, 0.5, 0.6, 0.7]),
    "lone_points_only": ([0.2, nan, 0.3, nan], [0.1, 0.2, 0.3, 0.4]),
    "all_nan": ([nan, nan], [nan, nan]),
    "infinite": ([0.1, inf, -inf, 0.2], [0.0, 0.5, 0.6, -inf]),
    "empty": ([], []),
}


def _drawn(canvas, draw):
    """The text a primitive call adds to the canvas."""
    before = len(canvas.parts)
    draw()
    return canvas.parts[before:]


@pytest.mark.parametrize("limits", LIMITS)
def test_mapping_is_bit_identical_to_scalar_formula(limits):
    canvas, ref = SvgCanvas(*LIMITS[limits]), ScalarReference(*LIMITS[limits])
    values = np.concatenate([XS, YS, [nan, inf, -inf, -0.0, 5e-324, 1e300]])
    for mapped, scalar in ((canvas._x, ref.x), (canvas._y, ref.y)):
        got = mapped(values)
        want = np.array([scalar(v) for v in values.tolist()])
        assert got.tobytes() == want.tobytes()
        assert mapped(0.25) == scalar(0.25)


@pytest.mark.parametrize("limits", LIMITS)
@pytest.mark.parametrize("points", POINT_SETS)
def test_scatter_and_polyline_match_scalar_reference(limits, points):
    xlim, ylim = LIMITS[limits]
    xs, ys = POINT_SETS[points]
    canvas, ref = SvgCanvas(xlim, ylim), ScalarReference(xlim, ylim)
    for arrays in (False, True):
        if arrays:
            xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        got = _drawn(canvas, lambda: canvas.scatter(xs, ys, color="crimson", radius=0.9))
        assert "\n".join(got) == "\n".join(ref.scatter(xs, ys, "crimson", 0.9))
        assert len(got) == (1 if len(xs) else 0)  # one part per call, none for no points
        got = _drawn(canvas, lambda: canvas.polyline(xs, ys, color="seagreen", width=1.6))
        assert got == ref.polyline(xs, ys, "seagreen", 1.6)


@pytest.mark.parametrize("limits", LIMITS)
def test_bars_match_scalar_reference(limits):
    xlim, ylim = LIMITS[limits]
    edges = np.linspace(-1.6, 2.1, 41)
    heights = np.concatenate([rng.uniform(-0.4, 0.8, 39), [0.0]])
    canvas, ref = SvgCanvas(xlim, ylim), ScalarReference(xlim, ylim)
    got = _drawn(canvas, lambda: canvas.bars(edges, heights))
    assert "\n".join(got) == "\n".join(ref.bars(edges, heights, "lightsteelblue"))
    assert _drawn(canvas, lambda: canvas.bars([0.0], [])) == []


@pytest.mark.parametrize("limits", LIMITS)
def test_ticks_match_scalar_reference(limits):
    xlim, ylim = LIMITS[limits]
    canvas, ref = SvgCanvas(xlim, ylim), ScalarReference(xlim, ylim)
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    lines = []
    for t in _ticks(*xlim):
        px = ref.x(t)
        lines += [f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>',
                  f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" '
                  f'text-anchor="middle">{_fmt_tick(t)}</text>']
    for t in _ticks(*ylim):
        py = ref.y(t)
        lines += [f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>',
                  f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" '
                  f'text-anchor="end">{_fmt_tick(t)}</text>']
    assert canvas.parts[3:] == lines  # after the <svg>, background and frame rectangles


def test_colour_with_percent_sign_is_literal():
    canvas = SvgCanvas((0.0, 1.0), (0.0, 1.0))
    ref = ScalarReference((0.0, 1.0), (0.0, 1.0))
    colour = "rgb(50%,0%,10%)"
    assert _drawn(canvas, lambda: canvas.scatter([0.5], [0.5], color=colour)) == \
        ref.scatter([0.5], [0.5], colour, 1.2)
    assert _drawn(canvas, lambda: canvas.bars([0.0, 1.0], [0.5], color=colour)) == \
        ref.bars([0.0, 1.0], [0.5], colour)


def _svg(tmp_path, draw, *args):
    path = tmp_path / "plot.svg"
    draw(*args, path)
    return path.read_bytes()


def test_entry_points_give_the_same_bytes_from_lists_and_arrays(tmp_path):
    # the CLI passes arrays; lists (as tests and scripts pass them) must draw alike
    spec = ModelSpec(3, 2, 60, eps=0.4)
    xs = np.arange(12)
    series = [np.sin(xs / 3.0), np.cos(xs / 5.0) - 0.25]
    assert (_svg(tmp_path, plot_levels, xs, series)
            == _svg(tmp_path, plot_levels, xs.tolist(), [ys.tolist() for ys in series]))

    p_grid = np.linspace(-0.5, 0.5, 33)
    r_vals = meanfield.radius(spec, p_grid)
    assert (_svg(tmp_path, partial(plot_shape_profile, spec), p_grid, r_vals)
            == _svg(tmp_path, partial(plot_shape_profile, spec), p_grid.tolist(), r_vals.tolist()))

    hist = quantum.dos_histogram(spec, 16)
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    for curve in (semiclassics.dos_semiclassical(spec, centers),
                  np.where(np.arange(16) % 5 == 2, nan, 2.0 * np.max(hist.density)),
                  np.full(16, nan)):
        as_lists = SimpleNamespace(bin_edges=hist.bin_edges.tolist(), density=hist.density.tolist())
        assert (_svg(tmp_path, partial(plot_dos, spec), hist, centers, curve)
                == _svg(tmp_path, partial(plot_dos, spec), as_lists, centers.tolist(),
                        curve.tolist()))

    table = quantum.sweep_epsilon(spec, np.linspace(-1.0, 1.0, 5))
    as_lists = SimpleNamespace(
        spec=spec, eps_values=table.eps_values.tolist(),
        scaled_levels=[levels.tolist() for levels in table.scaled_levels],
        fixed_point_energies=[list(energies) for energies in table.fixed_point_energies])
    assert _svg(tmp_path, plot_sweep, table) == _svg(tmp_path, plot_sweep, as_lists)


def test_dos_plot_tops_out_above_bars_and_finite_curve(tmp_path):
    # the y range ends at 1.08 times the largest bar or finite curve value
    spec = ModelSpec(2, 1, 40)
    hist = SimpleNamespace(bin_edges=np.linspace(-1.0, 1.0, 5),
                           density=np.array([0.5, 1.0, 2.0, 0.25]))
    for curve, top in (([nan, 1.0, nan, 1.5], 2.0), ([nan, 3.0, nan, 1.5], 3.0),
                       ([nan] * 4, 2.0)):
        frame = SvgCanvas((-1.0, 1.0), (0.0, 1.08 * top), xlabel="scaled energy",
                          ylabel="density", title=f"density of states  (m,n)=(2,1)  N=40  eps=0")
        svg = _svg(tmp_path, partial(plot_dos, spec), hist, [-0.75, -0.25, 0.25, 0.75], curve)
        assert svg.decode().startswith("\n".join(frame.parts) + "\n")
