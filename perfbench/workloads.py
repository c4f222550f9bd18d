"""Seeded operation lists and output oracles for the four workloads.

Each workload is a closed loop of `kummer` CLI operations.  An operation
is an argv list (without `--out`) and the work it represents; the
workload's oracle in CHECKS checks what it wrote.  Random operations are stratified: every
(m, n) pair in {1..4}^2 appears equally often, and the n random ops
draw their dimensions and eps one from each of n equal strata of the
range, so the work of a run moves little from seed to seed.  Fixed
operations (README recipes and the known quantizer counterexample) come
first in every run and are never dropped.

The oracles check each output against something outside the layer that
produced it: an independent tridiagonal eigensolve for WKB levels, the
classical fixed-point band for eigenvalue fans, integer bin counts for
histograms, and conservation recomputed from the stored states for
trajectories.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

PAIRS = [(m, n) for m in range(1, 5) for n in range(1, 5)]

# Random operations per (m, n) pair and per second of --seconds, rounded
# to whole ops per pair.  On a 2-core x86_64 box at --seconds 12, fan and
# orbit ops take about 11 s of reference time, dos about 15 s (enough ops
# to steady its tail percentile) and wkb about 15 s: wkb keeps 4 ops per
# pair, the stratified layout generate() describes.
PER_PAIR_RATE = {"fan": 0.27, "wkb": 0.34, "dos": 0.2, "orbit": 0.46}


@dataclass(frozen=True)
class Op:
    argv: tuple
    work: int  # eps points, WKB levels, eigenvalues or RK4 steps
    dim: int


def _model_args(m, n, dim, eps=None):
    argv = ["--m", str(m), "--n", str(n), "--N", str((dim - 1) * m * n), "--v", "1"]
    if eps is not None:
        argv += ["--eps", eps]
    return argv


def _sweep(m, n, dim, eps_min, eps_max, steps):
    argv = ["sweep", *_model_args(m, n, dim), "--eps-min", eps_min,
            "--eps-max", eps_max, "--eps-steps", str(steps), "--plot"]
    return Op(tuple(argv), steps, dim)


def _quantize(m, n, dim, eps, plot=False):
    argv = ["quantize", *_model_args(m, n, dim, eps)] + (["--plot"] if plot else [])
    return Op(tuple(argv), dim, dim)


def _dos(m, n, dim, eps, bins):
    argv = ["dos", *_model_args(m, n, dim, eps), "--bins", str(bins), "--plot"]
    return Op(tuple(argv), dim, dim)


def _trajectory(m, n, eps, p, angle, t_end, dt):
    r0 = 1.0 / math.sqrt(float(m) ** (n - 2) * float(n) ** (m - 2))
    r = r0 * (0.5 + p) ** (m / 2.0) * (0.5 - p) ** (n / 2.0)
    argv = ["trajectory", "--m", str(m), "--n", str(n), "--N", str(40 * m * n),
            "--v", "1", "--eps", eps, f"--sx={r * math.cos(angle)!r}",
            f"--sy={r * math.sin(angle)!r}", f"--sz={p!r}",
            "--t-end", repr(t_end), "--dt", repr(dt)]
    return Op(tuple(argv), int(round(t_end / dt)), 41)


# README recipes plus the (4,1,160, eps=0.9) quantizer counterexample.
FIXED = {
    "fan": [
        _sweep(2, 1, 41, "-3", "3", 301),
        _sweep(2, 2, 41, "-3", "3", 301),
        _sweep(3, 3, 41, "-1", "1", 301),
    ],
    "wkb": [
        _quantize(4, 1, 41, "0.5", plot=True),
        _quantize(4, 3, 41, "0.5", plot=True),
        _quantize(4, 1, 41, "0.9"),
    ],
    "dos": [
        _dos(2, 1, 4501, "0.5", 200),
        _dos(3, 3, 1001, "0.08", 200),
        _dos(3, 2, 1501, "0.4", 200),
        _dos(3, 3, 8001, "0.08", 400),
    ],
    "orbit": [],
}

WKB_EPS_GRID = [repr(float(e)) for e in np.linspace(-2.0, 2.0, 41)]

# Dimension range of the random ops: (full run, --tiny smoke run).
DIMS = {"fan": ((41, 401), (5, 21)), "wkb": ((41, 201), (9, 21)),
        "dos": ((2001, 8001), (41, 201)), "orbit": ((41, 41), (41, 41))}


def generate(workload, seed, seconds, tiny=False):
    """Fixed operations followed by the seeded random ones.

    The random ops follow a layout that does not depend on the seed:
    slot j of n takes the j-th of n equal strata of the dimension range
    (of p for trajectories), and fixed permutations give each slot its
    (m, n) pair and its eps stratum.  The seed places every value inside
    its stratum and orders the ops, so seeds change the inputs but keep
    the mix of pairs, sizes and eps that per-op cost depends on.

    `wkb` takes every value at its stratum's midpoint and uses the seed
    only for the order.  Its per-op cost jumps with (dim, eps): where
    the quantizer's silent retry ladder fires, one input costs 10-40x
    the median, about one input in a hundred.  Jittered inputs moved
    run_s by 30% from seed to seed, more than any bound allows.
    """
    count = len(PAIRS) * (1 if tiny else max(1, round(seconds * PER_PAIR_RATE[workload])))
    layout = random.Random(f"{workload}:layout")
    pairs = PAIRS * (count // len(PAIRS))
    layout.shuffle(pairs)
    eps_strata = list(range(count))
    layout.shuffle(eps_strata)
    rng = random.Random(f"{workload}:{seed}")

    def draw(stratum, lo, hi):
        offset = 0.5 if workload == "wkb" else rng.random()
        return lo + (stratum + offset) * (hi - lo) / count

    lo, hi = DIMS[workload][tiny]
    ops = []
    for j, ((m, n), e) in enumerate(zip(pairs, eps_strata)):
        d = round(draw(j, lo, hi))
        if workload == "fan":
            ops.append(_sweep(m, n, d, f"{-draw(e, 1, 3):.4f}",
                              f"{draw(count - 1 - e, 1, 3):.4f}", 5 if tiny else 31))
        elif workload == "wkb":
            ops.append(_quantize(m, n, d, WKB_EPS_GRID[int(draw(e, 0, len(WKB_EPS_GRID)))]))
        elif workload == "dos":
            # bins grow with dim from 200 to 400: 10 to 20 levels per bin
            ops.append(_dos(m, n, d, f"{draw(e, -1.5, 1.5):.4f}",
                            200 + round(200 * (d - lo) / max(hi - lo, 1))))
        else:
            ops.append(_trajectory(m, n, f"{draw(e, -1, 1):.4f}", draw(j, -0.45, 0.45),
                                   rng.uniform(0, 2 * math.pi), 1.0 if tiny else 10.0, 1e-3))
    rng.shuffle(ops)
    return list(FIXED[workload]) + ops


# ---------------------------------------------------------------------
# oracles: check(op, outdir, stdout) -> None or a reason string


def _rows(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def _arg(op, flag, typ=float):
    return typ(op.argv[op.argv.index(flag) + 1])


def _exact_scaled_levels(m, n, N, eps, v=1.0):
    """Scaled spectrum from the ladder weights, built here independently."""
    dim = N // (m * n) + 1
    scale = float(N) ** ((m + n - 2) / (m + n))
    mu = np.arange(1, dim, dtype=float)
    beta = np.ones(dim - 1)
    for i in range(m):
        beta *= (mu * m - i) / scale
    for i in range(n):
        beta *= (N // m - mu * n + n - i) / scale
    z = np.arange(dim) - N / (2.0 * m * n)
    if dim == 1:
        return eps * z / dim
    return eigvalsh_tridiagonal(eps * z, 0.5 * v * np.sqrt(beta)) / dim


def _check_svg(path):
    if not os.path.exists(path):
        return f"missing {os.path.basename(path)}"
    with open(path) as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return f"malformed {os.path.basename(path)}"
    return None


def check_fan(op, outdir, stdout):
    """dim sorted levels per eps row, inside the fixed-point band (+-3 eta)."""
    steps = _arg(op, "--eps-steps", int)
    eta = 1.0 / op.dim
    levels, bands = {}, {}
    for eps, index, value in _rows(os.path.join(outdir, "sweep_levels.csv"))[1]:
        levels.setdefault(eps, []).append((int(index), float(value)))
    for eps, energy, _kind in _rows(os.path.join(outdir, "sweep_fixed_points.csv"))[1]:
        bands.setdefault(eps, []).append(float(energy))
    if len(levels) != steps or set(levels) != set(bands):
        return f"{len(levels)} level rows / {len(bands)} fixed-point rows for {steps} eps"
    for eps, row in levels.items():
        values = np.array([v for _, v in row])
        if [i for i, _ in row] != list(range(op.dim)) or not np.all(np.isfinite(values)):
            return f"eps={eps}: level indices or values malformed"
        if np.any(np.diff(values) < 0):
            return f"eps={eps}: levels not sorted"
        lo, hi = min(bands[eps]), max(bands[eps])
        if values[0] < lo - 3 * eta or values[-1] > hi + 3 * eta:
            return f"eps={eps}: levels [{values[0]}, {values[-1]}] outside band [{lo}, {hi}]"
    return _check_svg(os.path.join(outdir, "sweep.svg"))


def check_wkb(op, outdir, stdout):
    """dim finite sorted levels, each within one local spacing of exact."""
    header, rows = _rows(os.path.join(outdir, "quantize.csv"))
    if len(rows) != op.dim:
        return f"{len(rows)} levels, expected {op.dim}"
    wkb = np.array([float(r[header.index("scaled_energy")]) for r in rows])
    written = np.array([float(r[header.index("exact")]) for r in rows])
    m, n, N = (_arg(op, f, int) for f in ("--m", "--n", "--N"))
    exact = _exact_scaled_levels(m, n, N, _arg(op, "--eps"))
    if not np.all(np.isfinite(wkb)) or np.any(np.diff(wkb) <= 0):
        return "levels not finite and strictly increasing"
    if np.max(np.abs(written - exact)) > 1e-9 * (1 + np.max(np.abs(exact))):
        return "exact column disagrees with an independent eigensolve"
    worst = float(np.max(np.abs(wkb - exact) / np.gradient(exact)))
    if worst > 1.0:
        return f"a level is {worst:.3f} local spacings from exact"
    return None


def check_dos(op, outdir, stdout):
    """Histogram mass 1; implied bin counts are integers summing to dim."""
    bins = _arg(op, "--bins", int)
    _, rows = _rows(os.path.join(outdir, "dos_histogram.csv"))
    _, curve = _rows(os.path.join(outdir, "dos_curve.csv"))
    if len(rows) != bins or len(curve) != bins:
        return f"{len(rows)} bins / {len(curve)} curve points, expected {bins}"
    table = np.array(rows, dtype=float)
    mass = table[:, 3] * (table[:, 1] - table[:, 0])
    counts = mass * op.dim
    if abs(mass.sum() - 1.0) > 1e-9:
        return f"histogram mass {mass.sum()!r}"
    if np.max(np.abs(counts - np.round(counts))) > 1e-6 or round(counts.sum()) != op.dim:
        return "implied bin counts are not integers summing to dim"
    return _check_svg(os.path.join(outdir, "dos.svg"))


_DRIFT = re.compile(r"drift_H = (\S+), drift_C = (\S+)")


def check_orbit(op, outdir, stdout):
    """Printed drifts within 1e-9; stored states conserve H and C."""
    found = _DRIFT.search(stdout)
    if not found:
        return "no drift report on stdout"
    drift_h, drift_c = (float(x) for x in found.groups())
    if not (drift_h < 1e-9 and drift_c < 1e-9):
        return f"drift_H={drift_h}, drift_C={drift_c} (tol 1e-9)"
    _, rows = _rows(os.path.join(outdir, "trajectory.csv"))
    states = np.array(rows, dtype=float)
    if len(states) != op.work // 100 + 1 or not np.all(np.isfinite(states)):
        return f"{len(states)} stored states"
    m, n = _arg(op, "--m", int), _arg(op, "--n", int)
    eps = _arg(op, "--eps")
    sx, sy, sz = states[:, 1], states[:, 2], states[:, 3]
    r0sq = float(m) ** (2 - n) * float(n) ** (2 - m)
    casimir = sx**2 + sy**2 - r0sq * (0.5 + sz) ** m * (0.5 - sz) ** n
    energy = sx + eps * sz
    if np.max(np.abs(casimir)) > 1e-9 or np.ptp(energy) > 2e-9:
        return "stored states leave the energy shell or the surface"
    return None


CHECKS = {"fan": check_fan, "wkb": check_wkb, "dos": check_dos, "orbit": check_orbit}
