"""WKB quantization and density of states from the mean-field flow.

Scaled energies E live between the extreme fixed-point energies.  At a
given E the classically allowed motion is bounded by the turning
points, the real roots of

    v^2 r^2(p) - (E - eps*p)^2 = (U+(p) - E)(E - U-(p)),

a polynomial of degree m+n in p.  Orbit areas S(E) feed the Bohr type
condition S = 2*pi*eta*(nu + 1/2); two allowed regions are matched
through the barrier with a tunneling weight, and above a barrier top
the inner turning points continue into a complex conjugate pair.

The rule carries the first-order term of discrete WKB for three-term
recurrences (P. A. Braun, Rev. Mod. Phys. 65, 115 (1993)).  The hopping
weights of H are the squared radius r_eta^2 at the hop midpoints, not
r^2; with r_eta = rho*r the energy on an orbit changes by
dH = (rho - 1)(E - eps*p) = O(eta) and its area by - oint dH dt.  Levels
solve S(E) - oint (dH - s) dt = 2*pi*eta*(nu + 1/2) and sit at E + s,
where s runs linearly between the values of dH at the fixed points that
bound each structure interval: to first order that is the same rule,
and it stays finite at a saddle, where T(E) diverges.
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
    if not isinstance(p, float):
        p = np.asarray(p, dtype=float)
    out = (spec.v * meanfield.radius(spec, p)) ** 2 - (energy - spec.eps * p) ** 2
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TurningPointSet:
    energy: float
    real_points: tuple  # ((p, branch), ...) sorted by p
    regions: tuple  # ((p_left, p_right, branch_left, branch_right), ...)
    complex_pairs: tuple  # upper-half roots z with conjugate partners
    out_of_band: bool
    roots: np.ndarray = None  # every root of the band polynomial


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
    return TurningPointSet(energy, labeled, tuple(regions), pairs, out_of_band, roots)


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
def _sine_rule(order: int):
    """Gauss-Legendre rule in theta for p = center + half*sin(theta).

    Returns sin(theta) at the nodes, the weights times pi/2, and the
    weights times cos(theta)*pi/2 (the Jacobian dp/dtheta over half).
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * pi * nodes
    return np.sin(theta), 0.5 * pi * weights, 0.5 * pi * weights * np.cos(theta)


ACTION_ORDER = 96


def _radius_excess(spec: ModelSpec, p):
    """rho(p) - 1, where rho = r_eta / r.

    At the hop midpoint p = eta*(mu - 1/2 - z_max) the ladder weights
    are exactly r_eta^2 = r0^2 (1-eta)^(2-m-n) prod_{i<m} (1/2+p - i*eta/m)
    prod_{i<n} (1/2-p - i*eta/n).  Within (m-1)*eta/m of the south pole
    (or (n-1)*eta/n of the north pole), short of the first hop, r_eta^2
    passes through its zeros and rho is taken as 0, for complex p by the
    real part; elsewhere complex p takes the principal square root.
    """
    m, n, eta = spec.m, spec.n, spec.eta
    p = np.asarray(p)
    ratio = (1.0 - eta) ** (2 - m - n)
    inside = True
    for mode, side in ((m, 0.5 + p), (n, 0.5 - p)):
        if mode > 1:
            step = eta / mode
            for i in range(1, mode):
                ratio = ratio * (1.0 - i * step / side)
            inside = inside & (side.real > (mode - 1) * step)
    return np.sqrt(np.where(inside, ratio, 0.0)) - 1.0


def _deflated_band(spec: ModelSpec, energy: float, roots, p_left: float,
                   p_right: float, p_nodes):
    """Band polynomial at real `p_nodes` divided by (p - p_left)(p_right - p).

    The divided roots are the one of `roots` nearest p_left and, of the
    others, the one nearest p_right.  Returns the quotient and the roots
    left in it.
    """
    roots = roots.tolist()  # a handful of roots: plain complex is faster
    left = min(range(len(roots)), key=lambda i: abs(roots[i] - p_left))
    right = min((i for i in range(len(roots)) if i != left),
                key=lambda i: abs(roots[i] - p_right))
    rest = [z for i, z in enumerate(roots) if i not in (left, right)]
    quotient = np.full(p_nodes.shape, -_band_poly_coeffs(spec, energy)[-1] + 0j)
    for z in rest:
        quotient *= p_nodes - z
    return quotient.real, rest


def _action_integral(spec: ModelSpec, energy: float, p_left, p_right,
                     order: int = ACTION_ORDER, shift=None, roots=None):
    """Integral of q(p) dp between two turning points (real or complex).

    The substitution p = center + halfwidth*sin(theta) soaks up the
    square-root behaviour at both endpoints, making the integrand
    analytic; the straight segment between the endpoints is used as the
    contour when they are complex.

    A numeric `shift` s adds the integral of (dH - s) dt over the same
    half orbit: dH = (rho - 1)(E - eps*p) is the first-order energy
    change (see _region_area) and dt = dp / sqrt(B), B = (v r sin q)^2
    the band polynomial.  On the real axis B is divided by its two
    endpoint roots, found in `roots` (_deflated_band), so
    (p - p_left)(p_right - p) = (half*cos(theta))^2 cancels against the
    Jacobian exactly and a region narrower than the roots' accuracy
    stays smooth; on a contour to a complex turning point v r sin q
    itself fixes the branch.
    """
    sin_t, weights, jacobian = _sine_rule(order)
    half = 0.5 * (p_right - p_left)
    p_nodes = 0.5 * (p_left + p_right) + half * sin_t
    gap = energy - spec.eps * p_nodes  # v r cos q
    vr = spec.v * _radius_any(spec, p_nodes)
    q = np.emath.arccos(gap / vr)
    total = half * complex(np.dot(jacobian, q))
    if shift is None:
        return total
    dh = _radius_excess(spec, p_nodes) * gap - shift
    if np.isrealobj(p_nodes):
        quotient, _ = _deflated_band(spec, energy, roots, p_left, p_right, p_nodes)
        # positive inside the region; a root pair at an endpoint can tip
        # its rounding below zero
        return total + complex(np.dot(weights, dh / np.sqrt(np.abs(quotient))))
    return total + half * complex(np.dot(jacobian, dh / (vr * np.sin(q))))


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


def _region_area(spec: ModelSpec, tps: TurningPointSet, region: int, shift=None,
                 order: int = ACTION_ORDER) -> float:
    """Area of allowed region `region` at the turning points `tps`.

    A numeric `shift` s gives the area the quantization rule uses:
    S(E) - oint ((rho - 1)(E - eps*p) - s) dt over the orbit, the
    first-order area change when the radius r is replaced by the hopping
    radius r_eta = rho*r, plus s*T(E).  A level satisfying the rule with
    this area sits at E + s; s = 0 is the plain first-order rule, and s
    equal to the energy change at a saddle keeps the area finite where
    T(E) diverges.  With shift None it is the mean-field S(E).
    """
    pl, pr, bl, br = tps.regions[region]
    s_tilde = _action_integral(spec, tps.energy, pl, pr, order, shift, tps.roots).real
    return float(_area_from_cases(pl, pr, bl, br, s_tilde))


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
    return _region_area(spec, tps, region, order=order)


# ---------------------------------------------------------------------
# tunneling machinery


def _tunneling_signed(spec: ModelSpec, energy: float, gap) -> float:
    """Barrier parameter: positive below the barrier, negative above.

    Below: (1/(pi*eta)) * integral of |q| over the real gap (p1, p2),
    where q = arccos(w) has the imaginary part +-arccosh|w|, |w| > 1.
    Above: the same integral continued along the straight contour
    between the complex pair, oriented so the parameter passes through
    zero continuously at the barrier top.
    """
    eta = spec.eta
    if isinstance(gap, tuple):
        p1, p2 = gap
        return abs(_action_integral(spec, energy, p1, p2).imag) / (pi * eta)
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
    region (_deflated_band) and the remaining factor integrated with
    Gauss-Chebyshev nodes, which absorb the inverse-square-root
    endpoints exactly.  Raises PeriodDivergenceError at saddle energies.
    """
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")

    theta = pi * (np.arange(nodes) + 0.5) / nodes
    total = 0.0
    for pl, pr, _, _ in tps.regions:
        span = max(pr - pl, 1e-300)
        center = 0.5 * (pl + pr)
        half = 0.5 * (pr - pl)
        p_nodes = center + half * np.cos(theta)
        quotient, rest = _deflated_band(spec, energy, tps.roots, pl, pr, p_nodes)
        # every root left in the quotient must stay clear of the region
        for z in rest:
            if abs(z.imag) < 1e-9 and pl - 1e-10 * span <= z.real <= pr + 1e-10 * span:
                raise PeriodDivergenceError(
                    f"period diverges: saddle turning point inside region at E = {energy}"
                )
        if np.any(quotient <= 0.0):
            raise PeriodDivergenceError(f"deflated factor not positive at E = {energy}")
        total += 2.0 * (pi / nodes) * float(np.sum(1.0 / np.sqrt(quotient)))
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
    attempt: int = 0  # index into _ATTEMPTS of the search whose count matched

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    @property
    def search(self) -> dict:
        """The level search that succeeded; attempt > 0 means fallbacks fired."""
        first_order, oversample, seam_frac = _ATTEMPTS[self.attempt]
        return {"attempt": self.attempt, "first_order_term": first_order,
                "oversample": oversample, "seam_fraction": seam_frac}


def _total_action(spec: ModelSpec, energy: float, shift=None) -> float:
    """Sum of orbit areas over all allowed regions at E (shift: _region_area)."""
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    return _sum_areas(spec, tps, shift)


def _sum_areas(spec: ModelSpec, tps: TurningPointSet, shift=None) -> float:
    return sum(_region_area(spec, tps, k, shift) for k in range(len(tps.regions)))


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


def barrier_actions(spec: ModelSpec, energy: float, barrier_p=None,
                    tps: TurningPointSet = None, shift=None) -> ActionSet:
    """Left/right areas plus tunneling quantities at a barrier energy.

    Below the top (two allowed regions) the areas are real orbit areas
    and the gap integral is taken along the real axis; above the top
    both partial actions are continued through the same upper-half
    complex turning point, so their sum stays exactly the single-region
    area and the matching condition passes smoothly into plain
    quantization as the barrier influence dies out.  `barrier_p`
    disambiguates which barrier is continued when several complex pairs
    exist.  `tps` reuses turning points already found at `energy`, and a
    numeric `shift` gives the quantization areas (see _region_area).
    """
    if tps is None:
        tps = turning_points(spec, energy)
    roots = tps.roots
    if len(tps.regions) == 2:
        s_left, s_right = (_region_area(spec, tps, k, shift) for k in (0, 1))
        s_eps = _tunneling_signed(
            spec, energy, (tps.regions[0][1], tps.regions[1][0])
        )
    elif len(tps.regions) == 1:
        pl, pr, bl, br = tps.regions[0]
        z = _continued_pair(tps, barrier_p)
        if z is None:
            raise ValueError(f"no barrier continuation available at E = {energy}")
        s_left = _area_from_cases(pl, z, bl, LOWER, _action_integral(
            spec, energy, pl, z, shift=shift, roots=roots)).real
        s_right = _area_from_cases(z, pr, LOWER, br, _action_integral(
            spec, energy, z, pr, shift=shift, roots=roots)).real
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


def _matching_residual_below(spec: ModelSpec, energy: float, shift):
    """Residual of the two-well matching condition below the barrier."""
    tps = turning_points(spec, energy)
    if len(tps.regions) != 2:
        raise ValueError(f"expected two allowed regions at E = {energy}")
    return _matching_residual(spec, barrier_actions(spec, energy, tps=tps, shift=shift))


def _matching_residual_above(spec: ModelSpec, energy: float, barrier_p, shift):
    """Residual above the barrier top, with complex inner turning points."""
    tps = turning_points(spec, energy)
    if len(tps.regions) != 1:
        raise ValueError(f"expected one allowed region at E = {energy}")
    if _continued_pair(tps, barrier_p) is None:
        # barrier influence out of reach; plain single-well residual
        return cos(_sum_areas(spec, tps, shift) / (2.0 * spec.eta))
    return _matching_residual(spec, barrier_actions(spec, energy, barrier_p, tps=tps, shift=shift))


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


@dataclass(frozen=True)
class _Shifts:
    """Energy shift s(E) over one structure interval, linear between its ends.

    Levels are solved for in the mean-field energy E with the areas of
    _region_area(..., shift=s(E)) and placed at E + s(E).  Each structure
    boundary carries dH at its fixed point, shared by both intervals that
    meet there: at a saddle that keeps the areas finite, and where a well
    is born it makes the new well's area start from 0, so the total area
    stays continuous across the boundary.  Ends of None select the rule
    without the first-order term (s(E) is None, levels stay at E).
    """

    lo: float
    hi: float
    s_lo: float | None
    s_hi: float | None

    def __call__(self, energy: float):
        if self.s_lo is None:
            return None
        return self.s_lo + (self.s_hi - self.s_lo) * (energy - self.lo) / (self.hi - self.lo)

    def place(self, energy: float) -> float:
        """Level energy for a solution of the rule at `energy`."""
        shift = self(energy)
        return energy if shift is None else energy + shift

    def mirrored(self) -> "_Shifts":
        if self.s_lo is None:
            return _Shifts(-self.hi, -self.lo, None, None)
        return _Shifts(-self.hi, -self.lo, -self.s_hi, -self.s_lo)

    def split(self, seam: float):
        s_seam = self(seam)
        return (_Shifts(self.lo, seam, self.s_lo, s_seam),
                _Shifts(seam, self.hi, s_seam, self.s_hi))


def _edge_action(spec: ModelSpec, bound: float, side: int, span: float, shift: float):
    """(E, S(E)) just inside a structure boundary, S the quantization area.

    Close root pairs at a pole or a saddle leave the turning points
    unresolvable a hair away from the boundary, so the offset grows
    geometrically until they resolve.  A well born at a pinched pole
    (r ~ (1/2+p)^(m/2), m >= 3) may never resolve, but S is continuous
    across every boundary: S is then taken just outside, and at a band
    end, which has no outside, it is 0 at the bottom and 2*pi at the
    top.  A boundary counts as a band end when it lies within the
    probe's reach of one, the first offset or 1e-7 of the band if that
    is wider: a well born a hair away from a pole saddle can put the
    band bottom there.  Any other boundary that resolves on neither
    side raises OutOfBandError.  S is clamped to [0, 2*pi]: next to a
    saddle on a conical pole (mode index 2) the first-order term is no
    longer small and can push it past the whole band's area.
    """
    first = max(1e-12, 1e-7 * span)
    for probe_side in (side, -side):
        margin = first
        while margin <= 1.5e-3 * span:
            e = bound + probe_side * margin
            try:
                area = _total_action(spec, e, shift)
                return (e if probe_side == side else bound + side * first,
                        min(max(area, 0.0), TWO_PI))
            except OutOfBandError:
                margin *= 10.0
    _, bounds, _ = _structure_boundaries(spec)
    reach = max(first, 1e-7 * (bounds[-1] - bounds[0]))
    for band_end, area in ((bounds[0], 0.0), (bounds[-1], TWO_PI)):
        if abs(bound - band_end) <= reach:
            return bound + side * first, area
    raise OutOfBandError(f"band structure unresolvable near E = {bound}")


def _plain_levels(spec: ModelSpec, lo: float, hi: float, shifts: _Shifts) -> list:
    """Single-well levels in (lo, hi) by bisection of the monotone area.

    Every area evaluated is kept, and each level is bracketed by the
    closest kept energies on either side of its target.
    """
    eta = spec.eta
    if hi - lo <= 2e-12:
        return []
    a, s_a = _edge_action(spec, lo, +1, hi - lo, shifts.s_lo)
    b, s_b = _edge_action(spec, hi, -1, hi - lo, shifts.s_hi)
    if b <= a:
        return []
    known = {a: s_a, b: s_b}

    def area(e):
        if e not in known:
            try:
                known[e] = _total_action(spec, e, shifts(e))
            except OutOfBandError:  # unresolved newborn well: its edge value
                known[e] = s_a if e - a < b - e else s_b
        return known[e]

    nu_lo = ceil(s_a / (TWO_PI * eta) - 0.5)
    nu_hi = floor(s_b / (TWO_PI * eta) - 0.5)
    out = []
    for nu in range(max(nu_lo, 0), nu_hi + 1):
        target = TWO_PI * eta * (nu + 0.5)
        left = max((e for e, s in known.items() if s < target), default=a)
        right = min((e for e, s in known.items() if s > target), default=b)
        if not left < right:  # the area is not monotone here
            left, right = a, b
        root = brentq(lambda e: area(e) - target, left, right, xtol=1e-14, rtol=8.9e-16)
        out.append(shifts.place(root))
    return out


def _count_estimate(spec: ModelSpec, lo: float, hi: float, shifts: _Shifts) -> int:
    eta = spec.eta
    try:
        _, s_lo = _edge_action(spec, lo, +1, hi - lo, shifts.s_lo)
        _, s_hi = _edge_action(spec, hi, -1, hi - lo, shifts.s_hi)
    except OutOfBandError:
        return 0
    return max(0, int(round((s_hi - s_lo) / (TWO_PI * eta))))


def _fixed_point_shift(spec: ModelSpec, fp) -> float:
    """First-order energy change (rho - 1)(E - eps*p) at a fixed point; 0 at a pole."""
    if fp.location != "interior":
        return 0.0
    return float(_radius_excess(spec, fp.p) * (fp.energy - spec.eps * fp.p))


def _structure_boundaries(spec: ModelSpec):
    """Fixed points, their merged energies, and the energy shift at each.

    Where fixed points share an energy, a saddle's shift wins: it is the
    one that keeps the areas finite there.
    """
    fps = meanfield.find_fixed_points(spec)
    bounds, shifts = [], []
    for fp in sorted(fps, key=lambda fp: fp.energy):
        e = fp.energy
        if bounds and e - bounds[-1] <= 1e-12 * (1.0 + abs(e)):
            if fp.stability == "saddle":
                shifts[-1] = _fixed_point_shift(spec, fp)
            continue
        bounds.append(e)
        shifts.append(_fixed_point_shift(spec, fp))
    return fps, bounds, shifts


def _boundary_saddle(fps, energy: float, q_value: float):
    """Interior saddle fixed point sitting at a boundary energy, if any."""
    for fp in fps:
        if (fp.stability == "saddle" and fp.location == "interior"
                and fp.q == q_value
                and abs(fp.energy - energy) <= 1e-10 * (1.0 + abs(energy))):
            return fp
    return None


def _interval_mode(spec: ModelSpec, fps, lo: float, hi: float):
    """Mode of one energy interval and the `barrier_p` of _levels_in_interval.

    barrier_p is the location of the continued barrier, (lower, upper)
    for "froman_both", and None where nothing is continued.
    """
    mid = 0.5 * (lo + hi)
    tps = turning_points(spec, mid)
    regions = tps.regions
    if len(regions) > 2:
        raise QuantizationError(f"unexpected {len(regions)} allowed regions at E = {mid}")
    if len(regions) == 2:
        gap_mid = 0.5 * (regions[0][1] + regions[1][0])
        u_lo, u_hi = meanfield.potentials(spec, gap_mid)
        mode = "matching_lower" if mid < u_lo else "matching_upper"
        return mode, None
    low_saddle = _boundary_saddle(fps, lo, pi)  # barrier top on U-
    high_saddle = _boundary_saddle(fps, hi, 0.0)  # dip bottom on U+
    if low_saddle and high_saddle:
        return "froman_both", (low_saddle.p, high_saddle.p)
    if low_saddle:
        return "froman_lower", low_saddle.p
    if high_saddle:
        return "froman_upper", high_saddle.p
    return "plain", None


def _levels_in_interval(spec: ModelSpec, lo: float, hi: float, mode: str,
                        shifts: _Shifts, oversample: int = 16,
                        seam_frac: float = 0.6180339887, barrier_p=None):
    """Level energies and regime labels inside one structure interval."""
    if hi - lo <= 1e-12 * (1.0 + abs(lo) + abs(hi)):
        return []
    if mode == "plain":
        return [(e, SINGLE_WELL) for e in _plain_levels(spec, lo, hi, shifts)]
    if mode in ("matching_upper", "froman_upper"):
        mirror_p = None if barrier_p is None else -barrier_p
        sub = _levels_in_interval(spec.mirrored(), -hi, -lo,
                                  mode.replace("upper", "lower"), shifts.mirrored(),
                                  oversample, seam_frac, mirror_p)
        return [(-e, tag + "_mirrored") for e, tag in reversed(sub)]
    if mode == "froman_both":
        # barrier continuation from below on the lower part of the band
        # and (mirrored) from above higher up, joined at a seam where
        # both barrier corrections are negligible; the asymmetric seam
        # fraction avoids pinning it onto a symmetric model's central
        # level, and a spacing-based dedupe removes the one level a
        # seam straddle can produce twice
        p_low, p_high = barrier_p
        seam = lo + seam_frac * (hi - lo)
        low_shifts, high_shifts = shifts.split(seam)
        low_part = _levels_in_interval(spec, lo, seam, "froman_lower", low_shifts,
                                       oversample, seam_frac, p_low)
        high_part = _levels_in_interval(spec, seam, hi, "froman_upper", high_shifts,
                                        oversample, seam_frac, p_high)
        if low_part and high_part:
            spacing = TWO_PI * spec.eta / orbit_period(spec, seam)
            if high_part[0][0] - low_part[-1][0] < 0.3 * spacing:
                high_part = high_part[1:]
        return low_part + high_part
    if mode == "matching_lower":
        fn = lambda e: _matching_residual_below(spec, e, shifts(e))
        tag = DOUBLE_WELL
    elif mode == "froman_lower":
        fn = lambda e: _matching_residual_above(spec, e, barrier_p, shifts(e))
        tag = ABOVE_BARRIER
    else:
        raise ValueError(f"unknown interval mode {mode!r}")

    margin = max(1e-12, 1e-7 * (hi - lo))
    n_grid = max(81, oversample * (_count_estimate(spec, lo, hi, shifts) + 2))
    roots = _scan_roots(fn, lo + margin, hi - margin, n_grid)
    return [(shifts.place(e), tag) for e in roots]


def _rescue_boundary_levels(spec: ModelSpec, bounds, shifts, dedup):
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
    for bound, shift in zip(bounds[1:-1], shifts[1:-1]):
        try:
            e_lo, s_lo = _edge_action(spec, bound, -1, span, shift)
            e_hi, s_hi = _edge_action(spec, bound, +1, span, shift)
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
            level = e_lo + frac * (e_hi - e_lo) + (shift or 0.0)
            # levels the interval searches already placed stay theirs
            if any(abs(level - e) < 0.45 * spacing for e in have):
                continue
            out.append((level, SINGLE_WELL))
            have.append(level)
    out.sort(key=lambda pair: pair[0])
    return out


# (first-order term, oversampling, seam fraction) of successive attempts
_ATTEMPTS = (
    (True, 16, 0.6180339887), (True, 64, 0.5352),
    (False, 16, 0.6180339887), (False, 64, 0.5352), (False, 256, 0.7071),
)


def semiclassical_spectrum(spec: ModelSpec, _retry: int = 0) -> SemiclassicalSpectrum:
    """All dim levels from the WKB rules, regime-labeled and sorted.

    The band is partitioned at the fixed-point energies; each interval
    has a fixed structure (plain well, double well below a barrier, or
    barrier-top continuation, possibly mirrored for structures of the
    upper potential curve).  A global count check against the subspace
    dimension guards the oscillatory root searches.  On a miss the search
    is repeated with finer sampling and another seam, and last without
    the first-order term: within a few eta of a pinched pole the term
    is no longer small, and the matching condition can gain spurious
    roots there.  The result's `search` names the attempt that matched.
    """
    first_order, oversample, seam_frac = _ATTEMPTS[_retry]
    fps, bounds, shifts = _structure_boundaries(spec)
    if len(bounds) < 2:
        raise QuantizationError("classical band is degenerate")
    if not first_order:
        shifts = [None] * len(bounds)
    found = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        mode, barrier_p = _interval_mode(spec, fps, lo, hi)
        found.extend(_levels_in_interval(
            spec, lo, hi, mode, _Shifts(lo, hi, shifts[k], shifts[k + 1]),
            oversample, seam_frac, barrier_p,
        ))
    found.sort(key=lambda pair: pair[0])

    # dedupe roots found twice at interval seams
    dedup = []
    tol = 1e-9 * spec.eta * (bounds[-1] - bounds[0])
    for e, tag in found:
        if dedup and abs(e - dedup[-1][0]) < tol:
            continue
        dedup.append((e, tag))

    if len(dedup) < spec.dim:
        dedup = _rescue_boundary_levels(spec, bounds, shifts, dedup)
    if len(dedup) != spec.dim:
        if _retry + 1 < len(_ATTEMPTS):
            return semiclassical_spectrum(spec, _retry + 1)
        raise QuantizationError(
            f"found {len(dedup)} levels, expected {spec.dim} for {spec}"
        )
    levels = tuple(
        SemiclassicalLevel(nu, e, tag) for nu, (e, tag) in enumerate(dedup)
    )
    return SemiclassicalSpectrum(spec, levels, _retry)
