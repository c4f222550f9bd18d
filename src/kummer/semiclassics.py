"""WKB quantization and density of states from the mean-field flow.

Scaled energies E live between the extreme fixed-point energies.  At a
given E the classically allowed motion is bounded by the turning
points, the real roots of

    v^2 r^2(p) - (E - eps*p)^2 = (U+(p) - E)(E - U-(p)),

a polynomial of degree m+n in p.  Orbit areas S(E) feed the Bohr type
condition S = 2*pi*eta*(nu + 1/2); two allowed regions are matched
through the barrier with a tunneling weight, and above a barrier top
the inner turning points continue into a complex conjugate pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acosh, ceil, cos, exp, floor, log, pi, sqrt

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq
from scipy.special import loggamma

from . import meanfield
from .model import ModelSpec

TWO_PI = 2.0 * pi

LOWER = "lower"  # turning point on U-
UPPER = "upper"  # turning point on U+


class OutOfBandError(ValueError):
    """Requested energy lies outside the classical band."""


class PeriodDivergenceError(ValueError):
    """The orbit period diverges logarithmically at a saddle energy."""


class QuantizationError(RuntimeError):
    """Level search produced a level count different from the dimension."""


# ---------------------------------------------------------------------
# turning points


def _band_poly_coeffs(spec: ModelSpec, energy: float) -> np.ndarray:
    """Ascending coefficients of v^2 r^2(p) - (E - eps*p)^2."""
    core = meanfield.structure_polynomials(spec.m, spec.n)
    out = (spec.v**2 * core.r0sq) * core.pole
    eps = spec.eps
    out[:3] -= (energy * energy, -2.0 * energy * eps, eps * eps)
    return out


def band_polynomial(spec: ModelSpec, energy: float, p):
    """(U+ - E)(E - U-) evaluated directly; positive inside allowed regions."""
    p = np.asarray(p, dtype=float)
    out = (spec.v * meanfield.radius(spec, p)) ** 2 - (energy - spec.eps * p) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TurningPointSet:
    energy: float
    real_points: tuple  # ((p, branch), ...) sorted by p
    regions: tuple  # ((p_left, p_right, branch_left, branch_right), ...)
    complex_pairs: tuple  # upper-half roots z with conjugate partners
    out_of_band: bool


def _branch_by_probe(spec: ModelSpec, energy: float, probe: float, fallback: str) -> str:
    """Branch of a turning point, decided in the adjacent forbidden zone.

    At the turning point itself E - eps*p = +-v*r(p) vanishes to rounding
    for orbits hugging a pole; one step into the forbidden side, E above
    U+ or below U- is well separated.
    """
    gap = energy - spec.eps * probe
    vr = spec.v * meanfield.radius(spec, probe)
    if gap > vr:
        return UPPER
    if gap < -vr:
        return LOWER
    return fallback


def turning_points(spec: ModelSpec, energy: float) -> TurningPointSet:
    """Classified real solutions of U+-(p) = E plus complex continuations.

    A root belongs to U+ when E >= eps*p there and to U- otherwise; the
    endpoints of allowed regions are re-labeled through a probe in the
    neighbouring forbidden zone, which stays well conditioned when the
    region hugs a pole.  Allowed regions are the intervals between
    consecutive roots whose midpoint satisfies U- <= E <= U+.
    """
    coeffs = _band_poly_coeffs(spec, energy)
    roots = npoly.polyroots(coeffs)
    scale = 1.0 + abs(energy)
    tol_im = 1e-9 * scale

    real = []
    for z in roots:
        if abs(z.imag) <= tol_im and -0.5 - 1e-12 <= z.real <= 0.5 + 1e-12:
            real.append(min(0.5, max(-0.5, z.real)))
    real.sort()
    labeled = tuple(
        (p, UPPER if energy >= spec.eps * p else LOWER) for p in real
    )

    regions = []
    for i in range(len(real) - 1):
        pl, pr = real[i], real[i + 1]
        if band_polynomial(spec, energy, 0.5 * (pl + pr)) > 0.0:
            left_edge = real[i - 1] if i > 0 else -0.5
            right_edge = real[i + 2] if i + 2 < len(real) else 0.5
            bl = _branch_by_probe(spec, energy, 0.5 * (left_edge + pl), labeled[i][1])
            br = _branch_by_probe(
                spec, energy, 0.5 * (pr + right_edge), labeled[i + 1][1]
            )
            regions.append((pl, pr, bl, br))

    pairs = tuple(
        z for z in roots if z.imag > tol_im and -0.5 < z.real < 0.5
    )
    out_of_band = not regions
    return TurningPointSet(energy, labeled, tuple(regions), pairs, out_of_band)


# ---------------------------------------------------------------------
# angle variable and action integrals


def _radius_any(spec: ModelSpec, p):
    """r(p) continued to complex p (principal powers)."""
    return (
        meanfield.radius_coefficient(spec)
        * (0.5 + p) ** (spec.m / 2.0)
        * (0.5 - p) ** (spec.n / 2.0)
    )


def orbit_angle(spec: ModelSpec, p: float, energy: float) -> float:
    """Angle q(p) = arccos((E - eps*p)/(v r(p))) of the orbit at height p.

    In the allowed region the principal arccos in [0, pi] is returned;
    in a forbidden region the magnitude arccosh(|argument|) of the
    imaginary part is returned instead.  Arguments within 1e-12 of the
    branch points count as turning points.
    """
    r = meanfield.radius(spec, p)
    if r == 0.0:
        if abs(energy - spec.eps * p) < 1e-15:
            return 0.5 * pi
        raise ValueError("angle undefined at a pole of the surface")
    w = (energy - spec.eps * p) / (spec.v * r)
    if abs(w) <= 1.0 + 1e-12:
        return float(np.arccos(min(1.0, max(-1.0, w))))
    return acosh(abs(w))


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


ACTION_ORDER = 96


def _angle_nodes(spec: ModelSpec, p_nodes, energy: float):
    """Principal complex arccos of the orbit argument at the given nodes."""
    w = (energy - spec.eps * p_nodes) / (spec.v * _radius_any(spec, p_nodes))
    return np.emath.arccos(w)


def _action_integral(spec: ModelSpec, energy: float, p_left, p_right,
                     order: int = ACTION_ORDER):
    """Integral of q(p) dp between two turning points (real or complex).

    The substitution p = center + halfwidth*sin(theta) soaks up the
    square-root behaviour at both endpoints, making the integrand
    analytic; the straight segment between the endpoints is used as the
    contour when they are complex.
    """
    nodes, weights = _gauss_legendre(order)
    center = 0.5 * (p_left + p_right)
    half = 0.5 * (p_right - p_left)
    theta = 0.5 * pi * nodes
    p_nodes = center + half * np.sin(theta)
    q = _angle_nodes(spec, p_nodes, energy)
    vals = q * half * np.cos(theta) * (0.5 * pi)
    return complex(np.dot(weights, vals))


def _area_from_cases(p_left, p_right, branch_left, branch_right, s_tilde):
    """Orbit area from the branch labels of the two turning points.

    Both endpoints on U- encloses 2*pi*(p+ - p-) - 2*S~; mixed cases
    measure from the adjacent pole; both on U+ gives 2*pi - 2*S~, the
    sign branch that keeps S increasing across the band.
    """
    if branch_left == LOWER and branch_right == LOWER:
        return TWO_PI * (p_right - p_left) - 2.0 * s_tilde
    if branch_left == LOWER and branch_right == UPPER:
        return TWO_PI * (0.5 - p_left) - 2.0 * s_tilde
    if branch_left == UPPER and branch_right == LOWER:
        return TWO_PI * (0.5 + p_right) - 2.0 * s_tilde
    return TWO_PI - 2.0 * s_tilde


def action_area(spec: ModelSpec, energy: float, region=None,
                order: int = ACTION_ORDER) -> float:
    """Phase-space area S(E) of the orbit in one allowed region.

    `region` selects among several allowed regions (index, default the
    only one).  S grows monotonically from 0 at a region bottom; the
    area of the full band reaches 2*pi at the top.
    """
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    if region is None:
        if len(tps.regions) != 1:
            raise ValueError("multiple allowed regions; pass region index")
        region = 0
    pl, pr, bl, br = tps.regions[region]
    s_tilde = _action_integral(spec, energy, pl, pr, order).real
    return float(_area_from_cases(pl, pr, bl, br, s_tilde))


# ---------------------------------------------------------------------
# tunneling machinery


def _forbidden_integral(spec: ModelSpec, energy: float, p_left: float,
                        p_right: float, order: int = ACTION_ORDER) -> float:
    """Integral of |q(p)| dp across a real classically forbidden gap."""
    nodes, weights = _gauss_legendre(order)
    center = 0.5 * (p_left + p_right)
    half = 0.5 * (p_right - p_left)
    theta = 0.5 * pi * nodes
    p_nodes = center + half * np.sin(theta)
    w = np.abs((energy - spec.eps * p_nodes) / (spec.v * meanfield.radius(spec, p_nodes)))
    q = np.arccosh(np.maximum(w, 1.0))
    return float(np.dot(weights, q * half * np.cos(theta) * (0.5 * pi)))


def _tunneling_signed(spec: ModelSpec, energy: float, gap) -> float:
    """Barrier parameter: positive below the barrier, negative above.

    Below: (1/(pi*eta)) * integral of |q| over the real gap (p1, p2).
    Above: the same integral continued along the straight contour
    between the complex pair, oriented so the parameter passes through
    zero continuously at the barrier top.
    """
    eta = spec.eta
    if isinstance(gap, tuple):
        p1, p2 = gap
        return _forbidden_integral(spec, energy, p1, p2) / (pi * eta)
    z = gap  # upper-half complex turning point
    # the principal arccos equals pi at both complex turning points (the
    # barrier lives on the lower curve); integrate its deviation from pi
    # so the parameter vanishes linearly at the barrier top, and orient
    # the contour so the parameter continues to negative values above
    # (the weight exp(-pi*S_eps) must grow for the matching condition to
    # decouple into the single-region rule far above the barrier)
    s = _action_integral(spec, energy, np.conj(z), z) - pi * (z - np.conj(z))
    return -abs(float((1j * s).real / (pi * eta)))


def tunneling_integral(spec: ModelSpec, energy: float, gap) -> float:
    """Magnitude of the barrier parameter S_eps (see _tunneling_signed)."""
    return abs(_tunneling_signed(spec, energy, gap))


def phase_correction(s_eps: float) -> float:
    """Barrier phase arg Gamma(1/2 + i*S_eps) - S_eps*log|S_eps| + S_eps.

    Odd in S_eps and zero at S_eps = 0 (the S log S limit vanishes).
    """
    if s_eps == 0.0:
        return 0.0
    return float(loggamma(0.5 + 1j * s_eps).imag - s_eps * log(abs(s_eps)) + s_eps)


def _matching_amplitude(s_eps: float) -> float:
    """1/sqrt(1 + kappa^2) with kappa = exp(-pi*S_eps), overflow safe."""
    x = pi * s_eps
    if x >= 0.0:
        return 1.0 / sqrt(1.0 + exp(-2.0 * x))
    return exp(x) / sqrt(1.0 + exp(2.0 * x))


# ---------------------------------------------------------------------
# orbit period and density of states


def orbit_period(spec: ModelSpec, energy: float, nodes: int = 1024) -> float:
    """Mean-field period T(E), summed over allowed regions.

    The band polynomial is deflated by the two bounding roots of each
    region and the remaining factor integrated with Gauss-Chebyshev
    nodes, which absorb the inverse-square-root endpoints exactly.
    Raises PeriodDivergenceError at saddle energies.
    """
    coeffs = _band_poly_coeffs(spec, energy)
    lead = coeffs[-1]
    roots = npoly.polyroots(coeffs)
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")

    theta = pi * (np.arange(nodes) + 0.5) / nodes
    total = 0.0
    for pl, pr, _, _ in tps.regions:
        span = max(pr - pl, 1e-300)
        # identify the two deflated roots; every other root must stay clear
        idx = sorted(range(len(roots)), key=lambda i: min(abs(roots[i] - pl), abs(roots[i] - pr)))
        keep = idx[2:]
        for i in keep:
            ri = roots[i]
            if abs(ri.imag) < 1e-9 and pl - 1e-10 * span <= ri.real <= pr + 1e-10 * span:
                raise PeriodDivergenceError(
                    f"period diverges: saddle turning point inside region at E = {energy}"
                )
        center = 0.5 * (pl + pr)
        half = 0.5 * (pr - pl)
        p_nodes = center + half * np.cos(theta)
        q_factor = np.full(nodes, -lead + 0j)
        for i in keep:
            q_factor = q_factor * (p_nodes - roots[i])
        q_real = q_factor.real
        if np.any(q_real <= 0.0):
            raise PeriodDivergenceError(f"deflated factor not positive at E = {energy}")
        total += 2.0 * (pi / nodes) * float(np.sum(1.0 / np.sqrt(q_real)))
    return total


def dos_semiclassical(spec: ModelSpec, energies, saddle_margin: float = 1e-6):
    """T(E)/(2*pi) on a grid; NaN inside the margin around saddle energies."""
    fps = meanfield.find_fixed_points(spec)
    saddles = [fp.energy for fp in fps if fp.stability == "saddle"]
    out = np.full(len(energies), np.nan)
    for i, e in enumerate(energies):
        if any(abs(e - s) < saddle_margin for s in saddles):
            continue
        try:
            out[i] = orbit_period(spec, float(e)) / TWO_PI
        except (OutOfBandError, PeriodDivergenceError):
            pass
    return out


# ---------------------------------------------------------------------
# quantization


SINGLE_WELL = "single_well"
DOUBLE_WELL = "double_well_below"
ABOVE_BARRIER = "above_barrier"


@dataclass(frozen=True)
class SemiclassicalLevel:
    nu: int
    energy: float
    regime: str


@dataclass(frozen=True)
class SemiclassicalSpectrum:
    spec: ModelSpec
    levels: tuple

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])


def _total_action(spec: ModelSpec, energy: float) -> float:
    """Sum of orbit areas over all allowed regions at E."""
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    total = 0.0
    for i in range(len(tps.regions)):
        pl, pr, bl, br = tps.regions[i]
        s_tilde = _action_integral(spec, energy, pl, pr).real
        total += _area_from_cases(pl, pr, bl, br, s_tilde)
    return total


@dataclass(frozen=True)
class ActionSet:
    """Orbit areas and barrier quantities entering the matching condition."""

    total: float  # S, summed over allowed regions
    left: float  # S_l
    right: float  # S_r
    s_eps: float  # signed barrier parameter (negative above the top)
    s_phi: float  # barrier phase correction
    kappa: float  # exp(-pi * s_eps)


def _continued_pair(tps: TurningPointSet, barrier_p):
    """Upper-half root continuing the barrier's turning points, if usable.

    Near the barrier top the pair sits close to the real axis at the
    barrier location.  A pair far from the axis (relative to the region
    width) or far from the barrier belongs to some other structure, and
    a contour through it is unreliable; by then the barrier correction
    is dead anyway, so callers fall back to the plain rule.
    """
    if len(tps.regions) != 1:
        return None
    pl, pr, _, _ = tps.regions[0]
    inside = [z for z in tps.complex_pairs if pl < z.real < pr]
    if not inside:
        return None
    if barrier_p is None:
        z = min(inside, key=lambda w: w.imag)
    else:
        z = min(inside, key=lambda w: abs(w.real - barrier_p))
    width = pr - pl
    if z.imag > 0.5 * width:
        return None
    if barrier_p is not None and abs(z.real - barrier_p) > 0.3 * width + 2.0 * z.imag:
        return None
    return z


def barrier_actions(spec: ModelSpec, energy: float, barrier_p=None) -> ActionSet:
    """Left/right areas plus tunneling quantities at a barrier energy.

    Below the top (two allowed regions) the areas are real orbit areas
    and the gap integral is taken along the real axis; above the top
    both partial actions are continued through the same upper-half
    complex turning point, so their sum stays exactly the single-region
    area and the matching condition passes smoothly into plain
    quantization as the barrier influence dies out.  `barrier_p`
    disambiguates which barrier is continued when several complex pairs
    exist.
    """
    tps = turning_points(spec, energy)
    if len(tps.regions) == 2:
        areas = []
        for pl, pr, bl, br in tps.regions:
            s_tilde = _action_integral(spec, energy, pl, pr).real
            areas.append(_area_from_cases(pl, pr, bl, br, s_tilde))
        s_left, s_right = areas
        s_eps = _tunneling_signed(
            spec, energy, (tps.regions[0][1], tps.regions[1][0])
        )
    elif len(tps.regions) == 1:
        pl, pr, bl, br = tps.regions[0]
        z = _continued_pair(tps, barrier_p)
        if z is None:
            raise ValueError(f"no barrier continuation available at E = {energy}")
        s_left = _area_from_cases(pl, z, bl, LOWER,
                                  _action_integral(spec, energy, pl, z)).real
        s_right = _area_from_cases(z, pr, LOWER, br,
                                   _action_integral(spec, energy, z, pr)).real
        s_eps = _tunneling_signed(spec, energy, z)
    else:
        raise ValueError(f"expected one or two allowed regions at E = {energy}")
    kappa = exp(-pi * s_eps) if pi * s_eps > -700 else float("inf")
    return ActionSet(s_left + s_right, s_left, s_right, s_eps,
                     phase_correction(s_eps), kappa)


def _matching_residual(spec: ModelSpec, actions: ActionSet) -> float:
    eta = spec.eta
    amp = _matching_amplitude(actions.s_eps)
    return cos((actions.left + actions.right) / (2.0 * eta) - actions.s_phi) + \
        amp * cos((actions.left - actions.right) / (2.0 * eta))


def _matching_residual_below(spec: ModelSpec, energy: float):
    """Residual of the two-well matching condition below the barrier."""
    tps = turning_points(spec, energy)
    if len(tps.regions) != 2:
        raise ValueError(f"expected two allowed regions at E = {energy}")
    return _matching_residual(spec, barrier_actions(spec, energy))


def _matching_residual_above(spec: ModelSpec, energy: float, barrier_p=None):
    """Residual above the barrier top, with complex inner turning points."""
    tps = turning_points(spec, energy)
    if len(tps.regions) != 1:
        raise ValueError(f"expected one allowed region at E = {energy}")
    if _continued_pair(tps, barrier_p) is None:
        # barrier influence out of reach; plain single-well residual
        return cos(_total_action(spec, energy) / (2.0 * spec.eta))
    return _matching_residual(spec, barrier_actions(spec, energy, barrier_p))


def _scan_roots(fn, lo: float, hi: float, n_grid: int):
    """Bracketed sign changes of fn on [lo, hi], refined with brentq.

    Grid points where fn cannot be evaluated (structure unresolvable a
    hair away from a boundary) are skipped; the count check upstream
    guards against a root hiding in such a sliver.
    """
    grid = list(np.linspace(lo, hi, n_grid))
    span = hi - lo
    for k in range(6, 44):  # extra resolution against endpoint bunching
        grid.append(lo + span * 2.0**-k)
        grid.append(hi - span * 2.0**-k)
    grid = np.unique(np.array(grid))

    def safe(e):
        try:
            return fn(e)
        except (ValueError, OutOfBandError):
            return np.nan

    vals = np.array([safe(e) for e in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            roots.append(grid[i])
        elif a * b < 0.0:
            try:
                roots.append(brentq(safe, grid[i], grid[i + 1],
                                    xtol=1e-14, rtol=8.9e-16))
            except ValueError:
                pass
    if len(vals) and vals[-1] == 0.0:
        roots.append(grid[-1])
    return roots


def _edge_action(spec: ModelSpec, bound: float, side: int, span: float):
    """(E, S(E)) evaluated just inside a structure boundary.

    Slivers attached to heavily pinched poles are numerically
    unresolvable arbitrarily close to their birth energy, so the offset
    grows geometrically until the turning-point structure resolves.
    """
    margin = max(1e-12, 1e-7 * span)
    while margin <= 1.5e-3 * span:
        e = bound + side * margin
        try:
            return e, _total_action(spec, e)
        except OutOfBandError:
            margin *= 10.0
    raise OutOfBandError(f"band structure unresolvable near E = {bound}")


def _plain_levels(spec: ModelSpec, lo: float, hi: float) -> list:
    """Single-well levels in (lo, hi) by bisection of the monotone area."""
    eta = spec.eta
    if hi - lo <= 2e-12:
        return []
    a, s_a = _edge_action(spec, lo, +1, hi - lo)
    b, s_b = _edge_action(spec, hi, -1, hi - lo)
    if b <= a:
        return []
    nu_lo = ceil(s_a / (TWO_PI * eta) - 0.5)
    nu_hi = floor(s_b / (TWO_PI * eta) - 0.5)
    out = []
    for nu in range(max(nu_lo, 0), nu_hi + 1):
        target = TWO_PI * eta * (nu + 0.5)
        root = brentq(lambda e: _total_action(spec, e) - target, a, b,
                      xtol=1e-14, rtol=8.9e-16)
        out.append(root)
    return out


def _count_estimate(spec: ModelSpec, lo: float, hi: float) -> int:
    eta = spec.eta
    try:
        _, s_lo = _edge_action(spec, lo, +1, hi - lo)
        _, s_hi = _edge_action(spec, hi, -1, hi - lo)
    except OutOfBandError:
        return 0
    return max(0, int(round((s_hi - s_lo) / (TWO_PI * eta))))


def _structure_boundaries(spec: ModelSpec):
    fps = meanfield.find_fixed_points(spec)
    energies = sorted(fp.energy for fp in fps)
    merged = []
    for e in energies:
        if not merged or e - merged[-1] > 1e-12 * (1.0 + abs(e)):
            merged.append(e)
    return fps, merged


def _boundary_saddle(fps, energy: float, q_value: float):
    """Interior saddle fixed point sitting at a boundary energy, if any."""
    for fp in fps:
        if (fp.stability == "saddle" and fp.location == "interior"
                and fp.q == q_value
                and abs(fp.energy - energy) <= 1e-10 * (1.0 + abs(energy))):
            return fp
    return None


def _interval_mode(spec: ModelSpec, fps, lo: float, hi: float):
    """Mode of one energy interval plus the continued barrier locations."""
    mid = 0.5 * (lo + hi)
    tps = turning_points(spec, mid)
    regions = tps.regions
    if len(regions) > 2:
        raise QuantizationError(f"unexpected {len(regions)} allowed regions at E = {mid}")
    if len(regions) == 2:
        gap_mid = 0.5 * (regions[0][1] + regions[1][0])
        u_lo, u_hi = meanfield.potentials(spec, gap_mid)
        mode = "matching_lower" if mid < u_lo else "matching_upper"
        return mode, None, None
    low_saddle = _boundary_saddle(fps, lo, pi)  # barrier top on U-
    high_saddle = _boundary_saddle(fps, hi, 0.0)  # dip bottom on U+
    if low_saddle and high_saddle:
        return "froman_both", low_saddle.p, high_saddle.p
    if low_saddle:
        return "froman_lower", low_saddle.p, None
    if high_saddle:
        return "froman_upper", None, high_saddle.p
    return "plain", None, None


def _levels_in_interval(spec: ModelSpec, lo: float, hi: float, mode: str,
                        oversample: int = 16, seam_frac: float = 0.6180339887,
                        barrier_p=None):
    """Level energies and regime labels inside one structure interval."""
    if hi - lo <= 1e-12 * (1.0 + abs(lo) + abs(hi)):
        return []
    if mode == "plain":
        return [(e, SINGLE_WELL) for e in _plain_levels(spec, lo, hi)]
    if mode == "matching_upper":
        sub = _levels_in_interval(spec.mirrored(), -hi, -lo, "matching_lower",
                                  oversample, seam_frac)
        return [(-e, tag + "_mirrored") for e, tag in reversed(sub)]
    if mode == "froman_upper":
        mirror_p = None if barrier_p is None else -barrier_p
        sub = _levels_in_interval(spec.mirrored(), -hi, -lo, "froman_lower",
                                  oversample, seam_frac, mirror_p)
        return [(-e, tag + "_mirrored") for e, tag in reversed(sub)]
    if mode == "froman_both":
        # barrier continuation from below on the lower part of the band
        # and (mirrored) from above higher up, joined at a seam where
        # both barrier corrections are negligible; the asymmetric seam
        # fraction avoids pinning it onto a symmetric model's central
        # level, and a spacing-based dedupe removes the one level a
        # seam straddle can produce twice
        p_low, p_high = barrier_p if isinstance(barrier_p, tuple) else (None, None)
        seam = lo + seam_frac * (hi - lo)
        low_part = _levels_in_interval(spec, lo, seam, "froman_lower",
                                       oversample, seam_frac, p_low)
        high_part = _levels_in_interval(spec, seam, hi, "froman_upper",
                                        oversample, seam_frac, p_high)
        if low_part and high_part:
            spacing = TWO_PI * spec.eta / orbit_period(spec, seam)
            if high_part[0][0] - low_part[-1][0] < 0.3 * spacing:
                high_part = high_part[1:]
        return low_part + high_part
    if mode == "matching_lower":
        fn = lambda e: _matching_residual_below(spec, e)
        tag = DOUBLE_WELL
    elif mode == "froman_lower":
        fn = lambda e: _matching_residual_above(spec, e, barrier_p)
        tag = ABOVE_BARRIER
    else:
        raise ValueError(f"unknown interval mode {mode!r}")

    margin = max(1e-12, 1e-7 * (hi - lo))
    n_grid = max(81, oversample * (_count_estimate(spec, lo, hi) + 2))
    roots = _scan_roots(fn, lo + margin, hi - margin, n_grid)
    return [(e, tag) for e in roots]


def _rescue_boundary_levels(spec: ModelSpec, bounds, dedup):
    """Recover levels sitting exactly on a structure boundary.

    A quantization target can coincide with an interval endpoint (a
    symmetric model pins its central level to a degenerate pole energy,
    for instance), where both adjacent searches exclude it by their
    margins.  The area is continuous across every boundary, so a target
    caught inside the small excluded window belongs to a level at the
    boundary energy itself.
    """
    eta = spec.eta
    span = bounds[-1] - bounds[0]
    have = [e for e, _ in dedup]
    out = list(dedup)
    for bound in bounds[1:-1]:
        try:
            e_lo, s_lo = _edge_action(spec, bound, -1, span)
            e_hi, s_hi = _edge_action(spec, bound, +1, span)
        except OutOfBandError:
            continue
        if s_hi <= s_lo or s_hi - s_lo > 2.0 * TWO_PI * eta:
            continue  # window is a hairline; a wide one means bad structure
        spacing = TWO_PI * eta * (e_hi - e_lo) / (s_hi - s_lo)
        nu_lo = ceil(s_lo / (TWO_PI * eta) - 0.5)
        nu_hi = floor(s_hi / (TWO_PI * eta) - 0.5)
        for nu in range(nu_lo, nu_hi + 1):
            target = TWO_PI * eta * (nu + 0.5)
            if not s_lo <= target <= s_hi:
                continue
            frac = (target - s_lo) / (s_hi - s_lo)
            level = e_lo + frac * (e_hi - e_lo)
            # levels the interval searches already placed stay theirs
            if any(abs(level - e) < 0.45 * spacing for e in have):
                continue
            out.append((level, SINGLE_WELL))
            have.append(level)
    out.sort(key=lambda pair: pair[0])
    return out


def semiclassical_spectrum(spec: ModelSpec, _retry: int = 0) -> SemiclassicalSpectrum:
    """All dim levels from the WKB rules, regime-labeled and sorted.

    The band is partitioned at the fixed-point energies; each interval
    has a fixed structure (plain well, double well below a barrier, or
    barrier-top continuation, possibly mirrored for structures of the
    upper potential curve).  A global count check against the subspace
    dimension guards the oscillatory root searches.
    """
    fps, bounds = _structure_boundaries(spec)
    if len(bounds) < 2:
        raise QuantizationError("classical band is degenerate")
    found = []
    oversample = 16 * (4**_retry)
    seam_frac = (0.6180339887, 0.5352, 0.7071)[_retry]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mode, p_low, p_high = _interval_mode(spec, fps, lo, hi)
        if mode == "froman_both":
            barrier_p = (p_low, p_high)
        elif mode == "froman_lower":
            barrier_p = p_low
        elif mode == "froman_upper":
            barrier_p = p_high
        else:
            barrier_p = None
        found.extend(
            _levels_in_interval(spec, lo, hi, mode, oversample, seam_frac, barrier_p)
        )
    found.sort(key=lambda pair: pair[0])

    # dedupe roots found twice at interval seams
    dedup = []
    tol = 1e-9 * spec.eta * (bounds[-1] - bounds[0])
    for e, tag in found:
        if dedup and abs(e - dedup[-1][0]) < tol:
            continue
        dedup.append((e, tag))

    if len(dedup) < spec.dim:
        dedup = _rescue_boundary_levels(spec, bounds, dedup)
    if len(dedup) != spec.dim:
        if _retry < 2:
            return semiclassical_spectrum(spec, _retry + 1)
        raise QuantizationError(
            f"found {len(dedup)} levels, expected {spec.dim} for {spec}"
        )
    levels = tuple(
        SemiclassicalLevel(nu, e, tag) for nu, (e, tag) in enumerate(dedup)
    )
    return SemiclassicalSpectrum(spec, levels)


def quantize_single_well(spec: ModelSpec) -> SemiclassicalSpectrum:
    """Single-well quantization; refuses regimes with two allowed regions."""
    fps, bounds = _structure_boundaries(spec)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        if len(turning_points(spec, mid).regions) != 1:
            raise QuantizationError(
                "two allowed regions present; use the double-well quantizer"
            )
    levels = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        levels.extend(_levels_in_interval(spec, lo, hi, "plain"))
    levels.sort(key=lambda pair: pair[0])
    if len(levels) != spec.dim:
        raise QuantizationError(
            f"found {len(levels)} levels, expected {spec.dim} for {spec}"
        )
    return SemiclassicalSpectrum(
        spec,
        tuple(SemiclassicalLevel(nu, e, tag) for nu, (e, tag) in enumerate(levels)),
    )


def quantize_double_well(spec: ModelSpec) -> SemiclassicalSpectrum:
    """Full quantizer with barrier matching and complex continuation."""
    return semiclassical_spectrum(spec)
