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
from math import acosh, atan2, ceil, cos, exp, floor, hypot, log, pi, sin

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
    """The level search cannot place every level exactly once."""


# ---------------------------------------------------------------------
# turning points


ROOT_IMAG_TOL = 1e-9  # a root is real when |Im z| <= ROOT_IMAG_TOL * (1 + |E|)
POLE_SLACK = 1e-12  # and Re z lies within [-1/2, 1/2] widened by this


def _band_poly_coeffs(spec: ModelSpec, energy) -> np.ndarray:
    """Ascending coefficients of v^2 r^2(p) - (E - eps*p)^2; a row per E of an array."""
    core = meanfield.structure_polynomials(spec.m, spec.n)
    out = (spec.v**2 * core.r0sq) * core.pole
    eps = spec.eps
    if isinstance(energy, np.ndarray):
        out = np.repeat(out[None], len(energy), axis=0)
        out[:, 0] -= energy * energy
        out[:, 1] -= -2.0 * energy * eps
        out[:, 2] -= eps * eps
        return out
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
    tol_im = ROOT_IMAG_TOL * scale

    real = []
    for z in roots:
        if abs(z.imag) <= tol_im and -0.5 - POLE_SLACK <= z.real <= 0.5 + POLE_SLACK:
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


# ---------------------------------------------------------------------
# orbit period and density of states


PERIOD_NODES = 1024  # Gauss-Chebyshev nodes per allowed region of T(E)
_PERIOD_BLOCK = 64  # regions per quadrature block: 1 MB complex arrays

# why _periods gives no period at an energy; 0 means it gave one
_OUT_OF_BAND, _SADDLE_ROOT, _NOT_POSITIVE = 1, 2, 3


def _stacked_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of ascending coefficients, sorted, as complex.

    The companion matrices are stacked in npoly.polycompanion's layout
    and solved by one eigvals call, so each row has the bits that
    npoly.polyroots gives for it.
    """
    count, d = coeffs.shape[0], coeffs.shape[1] - 1
    mat = np.zeros((count, d, d))
    mat[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    mat[:, :, -1] -= coeffs[:, :-1] / coeffs[:, -1:]
    roots = np.linalg.eigvals(mat)
    roots.sort(axis=-1)
    return roots.astype(complex)


def _allowed_regions(spec: ModelSpec, energies: np.ndarray, roots: np.ndarray):
    """Allowed regions of every energy as flat arrays (row, p_left, p_right).

    turning_points' rules in numpy: the real roots in [-1/2, 1/2],
    clipped to it, and the pairs of consecutive real roots with the band
    polynomial positive at their midpoint.  Rows ascend, and the regions
    of one row ascend in p.
    """
    tol_im = ROOT_IMAG_TOL * (1.0 + np.abs(energies))
    re = roots.real
    real = ((np.abs(roots.imag) <= tol_im[:, None])
            & (re >= -0.5 - POLE_SLACK) & (re <= 0.5 + POLE_SLACK))
    points = np.sort(np.where(real, np.clip(re, -0.5, 0.5), np.inf), axis=1)
    row, i = np.nonzero(np.isfinite(points[:, 1:]))
    pl, pr = points[row, i], points[row, i + 1]
    e, mid = energies[row], 0.5 * (pl + pr)
    value = band_polynomial(spec, e, mid)
    # numpy's vector power can differ from libm's pow by an ulp, enough to
    # flip the sign in a region narrower than about 1e-8: where it could,
    # take the scalar value that turning_points takes
    for k in np.nonzero(np.abs(value) <= 1e-13 * (e - spec.eps * mid) ** 2)[0]:
        value[k] = band_polynomial(spec, float(e[k]), float(mid[k]))
    inside = value > 0.0
    return row[inside], pl[inside], pr[inside]


def _region_periods(roots, lead, p_left, p_right, cos_theta):
    """Twice the time across each region, and why a region has none.

    Each region's band polynomial is deflated by its two bounding roots
    as in _deflated_band: the root nearest p_left, then the other root
    nearest p_right.  The quotient is integrated with Gauss-Chebyshev
    nodes, which absorb the inverse-square-root endpoints exactly.  A
    region holding a leftover real root (a saddle turning point) or with
    a quotient not positive is flagged _SADDLE_ROOT or _NOT_POSITIVE.
    """
    count, d = roots.shape
    rows = np.arange(count)
    left = np.argmin(np.abs(roots - p_left[:, None]), axis=1)
    to_right = np.abs(roots - p_right[:, None])
    to_right[rows, left] = np.inf
    right = np.argmin(to_right, axis=1)
    keep = np.ones(roots.shape, dtype=bool)
    keep[rows, left] = keep[rows, right] = False
    rest = roots[keep].reshape(count, d - 2)

    span = np.maximum(p_right - p_left, 1e-300)[:, None]
    half = (0.5 * (p_right - p_left))[:, None]
    # complex once here, not once per factor below
    p_nodes = (0.5 * (p_left + p_right)[:, None] + half * cos_theta).astype(complex)
    quotient = np.full(p_nodes.shape, -lead + 0j)
    for k in range(d - 2):
        quotient *= p_nodes - rest[:, k:k + 1]
    quotient = quotient.real
    saddle = np.any((np.abs(rest.imag) < 1e-9)
                    & (rest.real >= p_left[:, None] - 1e-10 * span)
                    & (rest.real <= p_right[:, None] + 1e-10 * span), axis=1)
    status = np.where(saddle, _SADDLE_ROOT,
                      np.where(np.any(quotient <= 0.0, axis=1), _NOT_POSITIVE, 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        period = 2.0 * (pi / PERIOD_NODES) * np.sum(1.0 / np.sqrt(quotient), axis=1)
    return period, status


def _periods(spec: ModelSpec, energies):
    """Mean-field period T(E) at an array of energies, and a status each.

    T(E) sums the regions of an energy in p order (_region_periods).
    The status is 0 where T is finite; otherwise T is NaN and the status
    is _OUT_OF_BAND, or the fault of the first faulty region in p order.
    """
    energies = np.asarray(energies, dtype=float)
    total = np.zeros(len(energies))
    status = np.full(len(energies), _OUT_OF_BAND)
    coeffs = _band_poly_coeffs(spec, energies)
    # the leading coefficient does not depend on E; it vanishes only at
    # v = 0, where -(E - eps*p)^2 allows no region
    lead = coeffs[0, -1] if len(energies) else 0.0
    if lead == 0.0:
        return np.full(len(energies), np.nan), status
    roots = _stacked_roots(coeffs)
    row, p_left, p_right = _allowed_regions(spec, energies, roots)
    status[row] = 0
    cos_theta = np.cos(pi * (np.arange(PERIOD_NODES) + 0.5) / PERIOD_NODES)
    fault = np.zeros(len(row), dtype=int)
    for b in range(0, len(row), _PERIOD_BLOCK):
        blk = slice(b, b + _PERIOD_BLOCK)
        period, fault[blk] = _region_periods(roots[row[blk]], lead, p_left[blk],
                                             p_right[blk], cos_theta)
        np.add.at(total, row[blk], period)
    faulty = np.nonzero(fault)[0]
    first_rows, first = np.unique(row[faulty], return_index=True)
    status[first_rows] = fault[faulty[first]]
    total[status != 0] = np.nan
    return total, status


def orbit_period(spec: ModelSpec, energy: float) -> float:
    """Mean-field period T(E), summed over allowed regions (_periods).

    Raises OutOfBandError outside the band and PeriodDivergenceError at
    saddle energies.
    """
    period, status = _periods(spec, [energy])
    if status[0] == _OUT_OF_BAND:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    if status[0] == _SADDLE_ROOT:
        raise PeriodDivergenceError(
            f"period diverges: saddle turning point inside region at E = {energy}"
        )
    if status[0] == _NOT_POSITIVE:
        raise PeriodDivergenceError(f"deflated factor not positive at E = {energy}")
    return float(period[0])


SADDLE_MARGIN = 1e-6  # dos_semiclassical masks energies this close to a saddle


def dos_semiclassical(spec: ModelSpec, energies):
    """T(E)/(2*pi) on a grid; NaN within SADDLE_MARGIN of saddle energies."""
    energies = np.asarray(energies, dtype=float)
    saddles = np.array([fp.energy for fp in meanfield.find_fixed_points(spec)
                        if fp.stability == "saddle"])
    clear = ~np.any(np.abs(energies[:, None] - saddles) < SADDLE_MARGIN, axis=1)
    out = np.full(len(energies), np.nan)
    out[clear] = _periods(spec, energies[clear])[0] / TWO_PI
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


def _total_action(spec: ModelSpec, energy: float, shift=None) -> float:
    """Phase-space area below E over all allowed regions (shift: _region_area)."""
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    return _sum_areas(spec, tps, shift)


def _upper_gaps(tps: TurningPointSet) -> int:
    """Number of gaps above U+ between two allowed regions.

    The regions on either side of such a gap both measure their area
    across it from their far pole (_area_from_cases), so each already
    contains the whole gap and a sum of areas counts the circle once too
    often per gap.
    """
    return sum(region[3] == UPPER for region in tps.regions[:-1])


def _sum_areas(spec: ModelSpec, tps: TurningPointSet, shift=None) -> float:
    """Sum of the region areas, less 2*pi for each gap above U+ (_upper_gaps)."""
    return sum(_region_area(spec, tps, k, shift)
               for k in range(len(tps.regions))) - TWO_PI * _upper_gaps(tps)


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
    overlap = 0.0  # as in _sum_areas
    if len(tps.regions) == 2:
        s_left, s_right = (_region_area(spec, tps, k, shift) for k in (0, 1))
        overlap = TWO_PI * _upper_gaps(tps)
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
    return ActionSet(s_left + s_right - overlap, s_left, s_right, s_eps,
                     phase_correction(s_eps), kappa)


def _matching_area(spec: ModelSpec, energy: float, barrier_p, shift) -> float:
    """Area form of the matching condition across a barrier.

    The residual cos(A - phi) + a*cos(B), with A, B = (S_l +- S_r)/(2*eta),
    phi = s_phi and a = 1/sqrt(1 + kappa^2) < 1, factors exactly
    as |1 + a*exp(-i*x)| * cos(Phi), where x = S_r/eta - phi and
    Phi = A - phi - atan2(a*sin(x), 1 + a*cos(x)).  The modulus never
    vanishes, so the levels solve 2*eta*Phi = 2*pi*eta*(nu + 1/2), the
    plain-well target, and 2*eta*Phi is the area returned: a tunnelling
    doublet is two neighbouring targets.  As the barrier correction dies
    out (a, phi -> 0) it passes into S(E), which is returned where no
    barrier continuation is usable (see _continued_pair).
    """
    tps = turning_points(spec, energy)
    if tps.out_of_band:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    if len(tps.regions) != 2 and _continued_pair(tps, barrier_p) is None:
        return _sum_areas(spec, tps, shift)
    actions = barrier_actions(spec, energy, barrier_p, tps=tps, shift=shift)
    amp = 1.0 / hypot(1.0, actions.kappa)
    x = actions.right / spec.eta - actions.s_phi
    return actions.total - 2.0 * spec.eta * (
        actions.s_phi + atan2(amp * sin(x), 1.0 + amp * cos(x)))


def _edge_action(spec: ModelSpec, bound: float, side: int, span: float, area):
    """(E, S(E)) just inside a structure boundary, S = area(E).

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
                s = area(e)
                return (e if probe_side == side else bound + side * first,
                        min(max(s, 0.0), TWO_PI))
            except OutOfBandError:
                margin *= 10.0
    _, bounds, _ = _structure_boundaries(spec)
    reach = max(first, 1e-7 * (bounds[-1] - bounds[0]))
    for band_end, s_end in ((bounds[0], 0.0), (bounds[-1], TWO_PI)):
        if abs(bound - band_end) <= reach:
            return bound + side * first, s_end
    raise OutOfBandError(f"band structure unresolvable near E = {bound}")


def _area_levels(spec: ModelSpec, lo: float, hi: float, area):
    """Roots {nu: E} of a monotone area in (lo, hi), and its two edge points.

    The targets are 2*pi*eta*(nu + 1/2) between the areas at the two
    edges, which are returned as ((E, A(E)), (E, A(E))); an interval too
    narrow to probe has no edges.  Every area evaluated is kept, and each
    level is bracketed by the closest kept energies on either side of its
    target.
    """
    eta = spec.eta
    if hi - lo <= 2e-12:
        return {}, ()
    a, s_a = _edge_action(spec, lo, +1, hi - lo, area)
    b, s_b = _edge_action(spec, hi, -1, hi - lo, area)
    if b <= a:
        return {}, ()
    known = {a: s_a, b: s_b}

    def kept(e):
        if e not in known:
            try:
                known[e] = area(e)
            except OutOfBandError:  # unresolved newborn well: its edge value
                known[e] = s_a if e - a < b - e else s_b
        return known[e]

    nu_lo = ceil(s_a / (TWO_PI * eta) - 0.5)
    nu_hi = floor(s_b / (TWO_PI * eta) - 0.5)
    roots = {}
    for nu in range(max(nu_lo, 0), nu_hi + 1):
        target = TWO_PI * eta * (nu + 0.5)
        left = max((e for e, s in known.items() if s < target), default=a)
        right = min((e for e, s in known.items() if s > target), default=b)
        if not left < right:  # the area is not monotone here
            left, right = a, b
        roots[nu] = brentq(lambda e: kept(e) - target, left, right, xtol=1e-14, rtol=8.9e-16)
    return roots, ((a, s_a), (b, s_b))


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
    """Mode of one energy interval and the `barrier_p` of _interval_pieces.

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


def _step_past_continuation(spec: ModelSpec, lo: float, hi: float, barrier_p, area,
                            roots: dict, edges) -> None:
    """Move the roots taken before the step where a barrier continuation ends.

    Where _continued_pair gives up, the matching area steps from its
    continued form to S(E).  Within a few eta of a pinched pole the
    first-order term can make that a step down past a target, which then
    has three roots: the one before the step comes from the term alone,
    and the level is the root beyond it, bracketed by the step and the
    upper edge.
    """
    def usable(e):
        return _continued_pair(turning_points(spec, e), barrier_p) is not None

    if not roots or usable(hi):
        return
    a, b = lo, hi
    while b - a > 1e-12 * (1.0 + abs(a) + abs(b)):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if usable(mid) else (a, mid)
    if a == lo:
        return
    s_end = area(b)
    edge = edges[1][0]
    for nu, e in roots.items():
        target = TWO_PI * spec.eta * (nu + 0.5)
        if e < a and target > s_end:
            roots[nu] = brentq(lambda x: area(x) - target, b, edge, xtol=1e-14, rtol=8.9e-16)


def _interval_pieces(spec: ModelSpec, lo: float, hi: float, mode: str, shift,
                     barrier_p=None) -> list:
    """Pieces (roots {nu: E}, edges, regime) solved inside one structure interval.

    Roots and edges (E, A(E)) are those of _area_levels in this spec's
    orientation: a mirrored piece maps E -> -E, A -> 2*pi - A and
    nu -> dim - 1 - nu.  `shift` is s(E) (see semiclassical_spectrum).
    """
    if hi - lo <= 1e-12 * (1.0 + abs(lo) + abs(hi)):
        return []
    if mode in ("matching_upper", "froman_upper"):
        mirror_p = None if barrier_p is None else -barrier_p
        top = spec.dim - 1
        sub = _interval_pieces(spec.mirrored(), -hi, -lo, mode.replace("upper", "lower"),
                               lambda e: -shift(-e), mirror_p)
        return [({top - nu: -e for nu, e in roots.items()},
                 tuple((-e, TWO_PI - a) for e, a in reversed(edges)), tag + "_mirrored")
                for roots, edges, tag in sub]
    if mode == "froman_both":
        # barrier continuation from below on the lower part of the band
        # and (mirrored) from above higher up, joined at a seam where
        # both barrier corrections are negligible; the asymmetric seam
        # fraction avoids pinning it onto a symmetric model's central level
        p_low, p_high = barrier_p
        seam = lo + 0.6180339887 * (hi - lo)
        return (_interval_pieces(spec, lo, seam, "froman_lower", shift, p_low)
                + _interval_pieces(spec, seam, hi, "froman_upper", shift, p_high))
    if mode == "plain":
        area = lambda e: _total_action(spec, e, shift(e))
        tag = SINGLE_WELL
    elif mode in ("matching_lower", "froman_lower"):
        area = lambda e: _matching_area(spec, e, barrier_p, shift(e))
        tag = DOUBLE_WELL if mode == "matching_lower" else ABOVE_BARRIER
    else:
        raise ValueError(f"unknown interval mode {mode!r}")
    roots, edges = _area_levels(spec, lo, hi, area)
    if mode == "froman_lower":
        _step_past_continuation(spec, lo, hi, barrier_p, area, roots, edges)
    return [(roots, edges, tag)]


def _assemble(spec: ModelSpec, band, pieces) -> list:
    """Level (E, regime) of every nu, from the pieces or from their windows.

    A target that two pieces both solve takes the root of the piece
    whose area at an edge comes closest to it: the root nearest the
    shared edge, where the two areas meet.  The mirror map A -> 2*pi - A
    leaves that choice unchanged.  Any other target lies in a window
    between two consecutive edges, the band ends counting as edges at
    (E_min, 0) and (E_max, 2*pi), and its level is interpolated linearly
    in the area there; a window left between pieces is a small probe
    margin, so one that would hold two levels is a fault.
    """
    best = {}
    for roots, ((_, a_lo), (_, a_hi)), tag in (p for p in pieces if p[0]):
        for nu, e in roots.items():
            target = TWO_PI * spec.eta * (nu + 0.5)
            mismatch = min(target - a_lo, a_hi - target)
            if nu not in best or mismatch < best[nu][0]:
                best[nu] = (mismatch, e, tag)
    found = {nu: (e, tag) for nu, (_, e, tag) in best.items()}
    edges = sorted([(band[0], 0.0, SINGLE_WELL), (band[1], TWO_PI, SINGLE_WELL)]
                   + [(e, a, tag) for _, piece_edges, tag in pieces for e, a in piece_edges])
    filled = {}
    for nu in range(spec.dim):
        if nu in found:
            continue
        target = TWO_PI * spec.eta * (nu + 0.5)
        k = next(k for k in range(len(edges) - 1) if edges[k][1] < target <= edges[k + 1][1])
        (e_lo, a_lo, tag), (e_hi, a_hi, _) = edges[k], edges[k + 1]
        if k in filled:
            raise QuantizationError(
                f"levels {filled[k]} and {nu} of {spec} fall in one window, "
                f"E in [{e_lo!r}, {e_hi!r}], areas [{a_lo!r}, {a_hi!r}]")
        filled[k] = nu
        found[nu] = (e_lo + (target - a_lo) / (a_hi - a_lo) * (e_hi - e_lo), tag)
    return [found[nu] for nu in range(spec.dim)]


def semiclassical_spectrum(spec: ModelSpec) -> SemiclassicalSpectrum:
    """All dim levels from the WKB rules, regime-labeled and sorted.

    The band is partitioned at the fixed-point energies; each interval
    has a fixed structure (plain well, double well below a barrier, or
    barrier-top continuation, possibly mirrored for structures of the
    upper potential curve).  Every interval finds its levels the same
    way, by bisection of a monotone area against the targets
    2*pi*eta*(nu + 1/2): the orbit area S(E) in a plain well, the area
    form of the matching condition across a barrier (_matching_area).
    Levels are assembled by their index nu (_assemble), and each sits at
    E + s(E): s runs linearly between the values of dH at the structure
    boundaries, shared by the two intervals that meet there, so the area
    stays continuous across every boundary.  A window holding two levels,
    or levels that do not increase strictly, raise QuantizationError.
    """
    fps, bounds, shifts = _structure_boundaries(spec)
    if len(bounds) < 2:
        raise QuantizationError("classical band is degenerate")
    table = np.array(bounds), np.array(shifts)
    shift = lambda e: float(np.interp(e, *table))
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mode, barrier_p = _interval_mode(spec, fps, lo, hi)
        pieces += _interval_pieces(spec, lo, hi, mode, shift, barrier_p)
    levels = [(e + shift(e), tag) for e, tag in _assemble(spec, (bounds[0], bounds[-1]), pieces)]
    if any(b[0] <= a[0] for a, b in zip(levels, levels[1:])):
        raise QuantizationError(f"levels of {spec} do not increase strictly")
    return SemiclassicalSpectrum(spec, tuple(
        SemiclassicalLevel(nu, e, tag) for nu, (e, tag) in enumerate(levels)))
