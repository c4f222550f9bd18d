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

Turning points, areas and periods are computed for arrays of energies
at once: one path gives the roots, regions and branch labels (_turning),
and blocked quadratures over the regions give the areas (_area_terms)
and periods (_periods).  The one public function of one energy,
orbit_period, is the period kernel at that energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil, floor, pi

import numpy as np
# nothing here calls scipy.optimize any more, but perfbench/run.py reads
# its import time from the breakdown of `import kummer` and fails on a
# module that is not loaded; the import goes once the benchmark reads a
# missing module as 0
import scipy.optimize  # noqa: F401
from scipy.special import loggamma

from . import meanfield
from .model import ModelSpec

TWO_PI = 2.0 * pi

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


def _band_poly_coeffs(spec: ModelSpec, energies: np.ndarray) -> np.ndarray:
    """Ascending coefficients of v^2 r^2(p) - (E - eps*p)^2, a row per energy."""
    core = meanfield.residual_core(spec.m, spec.n)
    out = np.repeat(((spec.v**2 * core.r0sq) * core.pole)[None], len(energies), axis=0)
    eps = spec.eps
    out[:, 0] -= energies * energies
    out[:, 1] -= -2.0 * energies * eps
    out[:, 2] -= eps * eps
    return out


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


def _regions(spec: ModelSpec, energies: np.ndarray, roots: np.ndarray):
    """Real turning points of every energy, its allowed regions, their labels and roots.

    The real roots lie in [-1/2, 1/2], are clipped to it, and come back
    sorted in `points`, one row per energy padded with inf.  They and the
    two poles cut [-1/2, 1/2] into zones, and the middle of every zone is
    probed once for E - eps*p and |v|*r.  A region is a zone between two
    real points with (|v| r)^2 - (E - eps*p)^2 positive, given as flat
    arrays of its row and its left and right ends.  Rows ascend, and the
    regions of one row ascend in p.  The branch of each end, True on U+,
    is read in the zone beyond it: at the turning point itself
    E - eps*p = +-|v| r(p) vanishes to rounding for orbits hugging a pole,
    but E above U+ or below U- is well separated there.  Where neither
    holds, the end is on U+ when E >= eps*p.

    Each region also gets `rest`, its energy's other roots in root order
    (the points sort stably: of two roots at one point the earlier ends a
    region, the later starts one), and each energy its region count and
    first region (where the count is not 0).
    """
    tol_im = ROOT_IMAG_TOL * (1.0 + np.abs(energies))
    re = roots.real
    real = ((np.abs(roots.imag) <= tol_im[:, None])
            & (re >= -0.5 - POLE_SLACK) & (re <= 0.5 + POLE_SLACK))
    keys = np.where(real, np.clip(re, -0.5, 0.5), np.inf)
    order = np.argsort(keys, axis=1, kind="stable")  # point j is root order[row, j]
    points = np.take_along_axis(keys, order, axis=1)
    count, width = points.shape
    last = np.isfinite(points).sum(axis=1)  # zones per row, less one
    cuts = np.hstack((np.full((count, 1), -0.5), points, np.full((count, 1), np.inf)))
    cuts[np.arange(count), last + 1] = 0.5
    # zone j of a row runs from cuts[j] to cuts[j + 1]; zones are flat, in
    # row order, so the zones beside zone k are k - 1 and k + 1
    row, j = np.nonzero(np.arange(width + 1) <= last[:, None])
    mid = 0.5 * (cuts[row, j] + cuts[row, j + 1])
    gap = energies[row] - spec.eps * mid
    vr = abs(spec.v) * meanfield.radius(spec, mid)
    # numpy's vector power can differ from libm's pow by an ulp, enough to
    # flip a comparison in a zone narrower than about 1e-8: where it could,
    # take the scalar value
    for k in np.nonzero(np.abs(np.abs(gap) - vr) <= 1e-13 * vr)[0]:
        vr[k] = abs(spec.v) * meanfield.radius(spec, float(mid[k]))
    zone = np.nonzero((j > 0) & (j < last[row]) & (vr**2 - gap**2 > 0.0))[0]
    row, left, right = row[zone], cuts[row[zone], j[zone]], cuts[row[zone], j[zone] + 1]
    keep = np.ones((len(row), width), dtype=bool)  # less the roots at points j - 1 and j
    np.put_along_axis(keep, order[row[:, None], j[zone, None] + [-1, 0]], False, axis=1)
    rest = roots[row][keep].reshape(len(row), max(width - 2, 0))
    beyond = np.concatenate((zone - 1, zone + 1))
    gap, vr = gap[beyond], vr[beyond]
    tie = energies[np.tile(row, 2)] >= spec.eps * np.concatenate((left, right))
    upper = np.where(gap > vr, True, np.where(gap < -vr, False, tie))
    regions = np.bincount(row, minlength=count)
    first = np.minimum(np.searchsorted(row, np.arange(count)), len(row) - 1)
    return points, row, left, right, upper[:len(row)], upper[len(row):], regions, first, rest


@dataclass(frozen=True)
class _Turning:
    """Turning points of an array of energies (_turning).

    `roots` holds every root of each band polynomial, sorted, `points`
    the real ones (_regions) and `lead` the leading coefficient.  The
    allowed regions are flat arrays, in row order and within a row in p
    order: the row of their energy, their two ends, the branch labels of
    the ends (True on U+) and the other roots of their energy (`rest`).
    `count` and `first` hold each energy's (_regions), and so does
    `pair`, worked out when first read: with one region, the upper-half
    root inside it (no real root is) nearest the real axis, where a
    barrier's turning points go above its top.  Further from the axis
    than half the region's width it belongs to some other structure and
    is NaN, as where no pair exists, and callers take the plain rule.
    """

    lead: float
    roots: np.ndarray
    points: np.ndarray
    row: np.ndarray
    left: np.ndarray
    right: np.ndarray
    upper_left: np.ndarray
    upper_right: np.ndarray
    count: np.ndarray
    first: np.ndarray
    rest: np.ndarray

    @cached_property
    def pair(self) -> np.ndarray:
        """The continued pair of every energy (see _Turning)."""
        pair = np.full(len(self.count), np.nan + 0j)
        one = np.flatnonzero(self.count == 1)
        if len(one):
            z, k = self.roots[one], self.first[one]
            left, right = self.left[k, None], self.right[k, None]
            imag = np.where((z.imag > 0.0) & (left < z.real) & (z.real < right), z.imag, np.inf)
            near = np.arange(len(one)), np.argmin(imag, axis=1)  # inf: no root inside
            pair[one] = np.where(imag[near] <= 0.5 * (right - left)[:, 0], z[near], np.nan)
        return pair


def _turning(spec: ModelSpec, energies: np.ndarray) -> _Turning:
    """Roots, real turning points, allowed regions and their labels at every energy."""
    coeffs = _band_poly_coeffs(spec, energies)
    lead = coeffs[0, -1] if len(energies) else 0.0
    if lead == 0.0:  # v = 0: -(E - eps*p)^2 allows no region
        roots = np.zeros((len(energies), 0), dtype=complex)
    else:
        roots = _stacked_roots(coeffs)
    return _Turning(lead, roots, *_regions(spec, energies, roots))


# ---------------------------------------------------------------------
# action integrals


def _radius_any(spec: ModelSpec, p):
    """r(p) continued to complex p (principal powers)."""
    return (
        meanfield.radius_coefficient(spec)
        * (0.5 + p) ** (spec.m / 2.0)
        * (0.5 - p) ** (spec.n / 2.0)
    )


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
_AREA_BLOCK = 256  # regions per quadrature block of _region_areas


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


def _deflated_quotient(rest, lead, p_nodes):
    """-lead * prod (p - z) at `p_nodes`, complex, z over each row of `rest` (_Turning)."""
    quotient = np.full(p_nodes.shape, -lead + 0j)
    for z in rest.T:
        quotient *= p_nodes - z[:, None]
    return quotient


def _area_from_cases(p_left, p_right, upper_left, upper_right, s_tilde):
    """Orbit area from the branches of the two turning points (True on U+).

    Both ends on U- encloses 2*pi*(p+ - p-) - 2*S~; mixed cases measure
    from the adjacent pole; both on U+ gives 2*pi - 2*S~, the sign
    branch that keeps S increasing across the band.
    """
    enclosed = np.where(upper_left, np.where(upper_right, 1.0, 0.5 + p_right),
                        np.where(upper_right, 0.5 - p_left, p_right - p_left))
    return TWO_PI * enclosed - 2.0 * s_tilde


def _region_areas(spec: ModelSpec, energies, tp: _Turning, shift=None) -> np.ndarray:
    """Area of every allowed region of `tp` (_turning), in its order.

    S~, the integral of q(p) dp across a region, takes the substitution
    p = center + half*sin(theta), which soaks up the square-root
    behaviour at both ends; the area follows from the branch labels
    (_area_from_cases).  A numeric `shift` s, one per energy, gives the
    area the quantization rule uses: S(E) - oint ((rho - 1)(E - eps*p) - s) dt
    over the orbit, the first-order area change when the radius r is
    replaced by the hopping radius r_eta = rho*r, plus s*T(E).  A level
    satisfying the rule with this area sits at E + s; s = 0 is the plain
    first-order rule, and s equal to the energy change at a saddle keeps
    the area finite where T(E) diverges.  With shift None it is the
    mean-field S(E).  dt = dp / sqrt(B), B = (v r sin q)^2 the band
    polynomial, divided by the two roots bounding the region
    (_deflated_quotient), so (p - p_left)(p_right - p) = (half*cos(theta))^2
    cancels against the Jacobian exactly and a region narrower than the
    roots' accuracy stays smooth.
    """
    sin_t, weights, jacobian = _sine_rule(ACTION_ORDER)
    out = np.empty(len(tp.row))
    for b in range(0, len(tp.row), _AREA_BLOCK):
        blk = slice(b, b + _AREA_BLOCK)
        row, p_left, p_right = tp.row[blk], tp.left[blk], tp.right[blk]
        half = 0.5 * (p_right - p_left)
        p_nodes = (0.5 * (p_left + p_right))[:, None] + half[:, None] * sin_t
        gap = energies[row][:, None] - spec.eps * p_nodes  # |v| r cos q
        w = gap / (abs(spec.v) * _radius_any(spec, p_nodes))
        s_tilde = half * (np.arccos(np.clip(w, -1.0, 1.0)) @ jacobian)
        if shift is not None:
            quotient = _deflated_quotient(tp.rest[blk], tp.lead, p_nodes)
            dh = _radius_excess(spec, p_nodes) * gap - shift[row][:, None]
            # positive inside the region; a root pair at an end can tip
            # its rounding below zero
            s_tilde = s_tilde + (dh / np.sqrt(np.abs(quotient.real))) @ weights
        out[blk] = _area_from_cases(p_left, p_right, tp.upper_left[blk],
                                    tp.upper_right[blk], s_tilde)
    return out


def _contour_actions(spec: ModelSpec, energies, start, end, shift=None):
    """Integral of q(p) dp along the straight segments from `start` to `end`.

    The ends are complex turning points (or a real one and a complex
    one); q is the principal arccos and r is continued to complex p
    (_radius_any), under the substitution of _region_areas.  A numeric
    `shift` adds the first-order term with dt = dp / (|v| r sin q): on a
    contour to a complex turning point |v| r sin q itself fixes the branch.
    """
    sin_t, _, jacobian = _sine_rule(ACTION_ORDER)
    half = 0.5 * (end - start)
    p_nodes = (0.5 * (start + end))[:, None] + half[:, None] * sin_t
    gap = energies[:, None] - spec.eps * p_nodes
    vr = abs(spec.v) * _radius_any(spec, p_nodes)
    q = np.arccos(gap / vr)
    total = half * (q @ jacobian)
    if shift is None:
        return total
    dh = _radius_excess(spec, p_nodes) * gap - shift[:, None]
    return total + half * ((dh / (vr * np.sin(q))) @ jacobian)


# ---------------------------------------------------------------------
# tunneling machinery


def _gap_barrier(spec: ModelSpec, energies, p_left, p_right):
    """Barrier parameter below the top, across the real gaps (p_left, p_right).

    Across a forbidden gap |w| > 1, so the principal arccos has the
    imaginary part +-arccosh|w| there.
    """
    s = _contour_actions(spec, energies, p_left + 0j, p_right + 0j)
    return np.abs(s.imag) / (pi * spec.eta)


def _continued_barrier(spec: ModelSpec, energies, z):
    """Barrier parameter above the top, through upper-half turning points z.

    The principal arccos equals pi at both complex turning points (the
    barrier lives on the lower curve); the parameter integrates its
    deviation from pi, so it vanishes linearly at the barrier top, and
    the contour is oriented so it continues to negative values above
    (the weight exp(-pi*S_eps) must grow for the matching condition to
    decouple into the single-region rule far above the barrier).
    """
    s = _contour_actions(spec, energies, np.conj(z), z) - pi * (z - np.conj(z))
    return -np.abs((1j * s).real / (pi * spec.eta))


def phase_correction(s_eps):
    """Barrier phase arg Gamma(1/2 + i*S_eps) - S_eps*log|S_eps| + S_eps.

    Odd in S_eps and zero at S_eps = 0 (the S log S limit vanishes).
    Takes a number or an array.
    """
    s = np.asarray(s_eps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s == 0.0, 0.0,
                       loggamma(0.5 + 1j * s).imag - s * np.log(np.abs(s)) + s)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------
# orbit period and density of states


PERIOD_NODES = 1024  # the most Gauss-Chebyshev nodes an allowed region of T(E) gets
_PERIOD_BLOCK = 64  # regions per block at PERIOD_NODES, more at fewer: 1 MB complex arrays


def _period_nodes(rest, p_left, p_right):
    """Gauss-Chebyshev nodes each region needs, from its nearest deflated root.

    The rule's error falls as rho^(-2n), rho the parameter of the nearest
    root's Bernstein ellipse with foci at the region's ends: n is the
    least power of two from 16 to PERIOD_NODES with rho^(2n) >= 2^72.  In
    real arithmetic a root far beyond a narrow region overflows to rho =
    inf (16 nodes); a root on the region gives rho = 1 (PERIOD_NODES), as
    does 0/0, a region of width 0 at a root.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = ((np.abs(rest - p_left[:, None]) + np.abs(rest - p_right[:, None]))
             / (p_right - p_left)[:, None])
        a = np.fmax(a, 1.0)
        rho = np.min(a + np.sqrt((a - 1.0) * (a + 1.0)), axis=1, initial=np.inf)
        need = 2.0 ** np.ceil(np.log2(36.0 * np.log(2.0) / np.log(rho)))
    return np.clip(need, 16, PERIOD_NODES).astype(int)


def _region_periods(rest, lead, p_left, p_right, cos_theta):
    """Twice the time across each region; NaN beside a saddle, where it diverges.

    Each region's band polynomial is deflated by its two bounding roots
    (_deflated_quotient), and the quotient is integrated with the
    Gauss-Chebyshev nodes `cos_theta`, which absorb the inverse-square-root
    endpoints exactly.  A region beside a saddle holds a leftover real
    root (a saddle turning point) or a quotient that is not positive.
    """
    span = np.maximum(p_right - p_left, 1e-300)[:, None]
    half = (0.5 * (p_right - p_left))[:, None]
    # complex once here, not once per factor
    p_nodes = (0.5 * (p_left + p_right)[:, None] + half * cos_theta).astype(complex)
    quotient = _deflated_quotient(rest, lead, p_nodes).real
    saddle = np.any((np.abs(rest.imag) < 1e-9)
                    & (rest.real >= p_left[:, None] - 1e-10 * span)
                    & (rest.real <= p_right[:, None] + 1e-10 * span), axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        period = 2.0 * (pi / len(cos_theta)) * np.sum(1.0 / np.sqrt(quotient), axis=1)
    return np.where(saddle | np.any(quotient <= 0.0, axis=1), np.nan, period)


def _periods(spec: ModelSpec, energies):
    """Mean-field period T(E) at an array of energies, and its region count.

    T(E) sums the regions of an energy (_turning) in p order
    (_region_periods), each with the nodes it needs (_period_nodes); it
    is NaN out of band, where the count is 0, and where a region's period
    diverges.  All at unit scale (ModelSpec.unit_scale).
    """
    spec, s = spec.unit_scale()
    energies = np.asarray(energies, dtype=float) / s
    tp = _turning(spec, energies)
    nodes = _period_nodes(tp.rest, tp.left, tp.right)
    period = np.empty(len(tp.row))
    for n in np.unique(nodes):
        cos_theta = np.cos(pi * (np.arange(n) + 0.5) / n)
        here, size = np.flatnonzero(nodes == n), _PERIOD_BLOCK * PERIOD_NODES // n
        for b in range(0, len(here), size):
            k = here[b:b + size]
            period[k] = _region_periods(tp.rest[k], tp.lead, tp.left[k], tp.right[k], cos_theta)
    total = np.where(tp.count == 0, np.nan, 0.0)
    np.add.at(total, tp.row, period)
    return total / s, tp.count


def orbit_period(spec: ModelSpec, energy: float) -> float:
    """Mean-field period T(E), summed over allowed regions (_periods).

    Raises OutOfBandError outside the band and PeriodDivergenceError at
    saddle energies.
    """
    period, count = _periods(spec, [energy])
    if count[0] == 0:
        raise OutOfBandError(f"E = {energy} is outside the classical band")
    if np.isnan(period[0]):
        raise PeriodDivergenceError(f"the period diverges at E = {energy}, a saddle energy")
    return float(period[0])


SADDLE_MARGIN = 1e-6  # dos_semiclassical masks energies this close to a saddle, at unit scale


@dataclass(frozen=True)
class DosCurve:
    """T(E)/(2*pi) at `energies`; NaN within `margin` of the saddle energies."""

    energies: np.ndarray
    density: np.ndarray
    saddle_energies: np.ndarray  # those of meanfield.find_fixed_points
    margin: float  # SADDLE_MARGIN in the caller's units


def dos_semiclassical(spec: ModelSpec, energies) -> DosCurve:
    """T(E)/(2*pi) on a grid, masked near the saddles that it finds, once."""
    energies = np.asarray(energies, dtype=float)
    saddles = np.array([fp.energy for fp in meanfield.find_fixed_points(spec)
                        if fp.stability == "saddle"], dtype=float)
    margin = SADDLE_MARGIN * spec.unit_scale()[1]
    clear = ~np.any(np.abs(energies[:, None] - saddles) < margin, axis=1)
    density = np.full(len(energies), np.nan)
    density[clear] = _periods(spec, energies[clear])[0] / TWO_PI
    return DosCurve(energies, density, saddles, margin)


# ---------------------------------------------------------------------
# the area kernel


@dataclass(frozen=True)
class _AreaTerms:
    """The areas of an array of energies (_area_terms); NaN where none is computed."""

    total: np.ndarray  # the regions' sum S, or S_l + S_r across a barrier
    left: np.ndarray  # S_l, S_r and the signed barrier parameter; NaN
    right: np.ndarray  # where no barrier applies
    s_eps: np.ndarray


def _area_terms(spec: ModelSpec, energies, shift=None, barrier: bool = False) -> _AreaTerms:
    """Areas at an array of energies: the plain sum, and the barrier terms if asked.

    The plain area S sums the region areas (_region_areas) in p order,
    less 2*pi for each gap above U+ between two regions: the regions on
    either side of such a gap both measure their area across it from
    their far pole (_area_from_cases), so each already contains the whole
    gap.  With `barrier`, an energy with two regions also gets S_l and
    S_r from its regions and the signed barrier parameter from the real
    gap between them (_gap_barrier); an energy with one region and a
    usable continued pair (_Turning.pair) gets both partial areas
    continued through the same upper-half complex turning point, so
    their sum stays exactly the single-region area, and the parameter
    from the contour between the pair (_continued_barrier).  `shift`
    holds s per energy (see _region_areas).
    """
    energies = np.asarray(energies, dtype=float)
    size = len(energies)
    tp = _turning(spec, energies)
    area = _region_areas(spec, energies, tp, shift)
    last = np.append(tp.row[1:] != tp.row[:-1], True)
    total = (np.bincount(tp.row, weights=area, minlength=size)
             - TWO_PI * np.bincount(tp.row[tp.upper_right & ~last], minlength=size))
    total[tp.count == 0] = np.nan
    left, right, s_eps = np.full((3, size), np.nan)
    if barrier:
        two = np.nonzero(tp.count == 2)[0]
        k = tp.first[two]
        left[two], right[two] = area[k], area[k + 1]
        total[two] = left[two] + right[two] - TWO_PI * tp.upper_right[k]
        s_eps[two] = _gap_barrier(spec, energies[two], tp.right[k], tp.left[k + 1])
        one = np.nonzero(~np.isnan(tp.pair))[0]
        k, z, e = tp.first[one], tp.pair[one], energies[one]
        s = None if shift is None else np.tile(shift[one], 2)
        s_tilde = _contour_actions(spec, np.tile(e, 2), np.concatenate((tp.left[k] + 0j, z)),
                                   np.concatenate((z, tp.right[k] + 0j)), s).real
        left[one] = _area_from_cases(tp.left[k], z.real, tp.upper_left[k], False,
                                     s_tilde[:len(one)])
        right[one] = _area_from_cases(z.real, tp.right[k], False, tp.upper_right[k],
                                      s_tilde[len(one):])
        total[one] = left[one] + right[one]
        s_eps[one] = _continued_barrier(spec, e, z)
    return _AreaTerms(total, left, right, s_eps)


def _matching_areas(spec: ModelSpec, terms: _AreaTerms) -> np.ndarray:
    """Area form of the matching condition where S_r (a barrier) is set, S elsewhere.

    The residual cos(A - phi) + a*cos(B), with A, B = (S_l +- S_r)/(2*eta),
    phi = s_phi and a = 1/sqrt(1 + kappa^2) < 1, factors exactly
    as |1 + a*exp(-i*x)| * cos(Phi), where x = S_r/eta - phi and
    Phi = A - phi - atan2(a*sin(x), 1 + a*cos(x)).  The modulus never
    vanishes, so the levels solve 2*eta*Phi = 2*pi*eta*(nu + 1/2), the
    plain-well target, and 2*eta*Phi is the area returned: a tunnelling
    doublet is two neighbouring targets.  As the barrier correction dies
    out (a, phi -> 0) it passes into S(E), which is returned where no
    barrier continuation is usable (see _regions).
    """
    area = terms.total.copy()
    k = np.nonzero(~np.isnan(terms.right))[0]
    s_eps = terms.s_eps[k]
    s_phi = phase_correction(s_eps)
    with np.errstate(over="ignore"):
        kappa = np.where(pi * s_eps > -700, np.exp(-pi * s_eps), np.inf)
    amp = 1.0 / np.hypot(1.0, kappa)
    x = terms.right[k] / spec.eta - s_phi
    area[k] = terms.total[k] - 2.0 * spec.eta * (
        s_phi + np.arctan2(amp * np.sin(x), 1.0 + amp * np.cos(x)))
    return area


# ---------------------------------------------------------------------
# quantization


SINGLE_WELL = "single_well"
DOUBLE_WELL = "double_well_below"
ABOVE_BARRIER = "above_barrier"

_XTOL, _RTOL = 1e-14, 8.9e-16  # a level is solved to _XTOL + _RTOL*|E|


@dataclass(frozen=True)
class SemiclassicalSpectrum:
    spec: ModelSpec
    energies: np.ndarray  # the levels, indexed by nu
    regimes: tuple  # of each level: SINGLE_WELL, DOUBLE_WELL or ABOVE_BARRIER, maybe _mirrored


@dataclass(frozen=True)
class _IntervalArea:
    """The area one interval quantizes, as a function of an array of energies.

    `table` holds the structure boundaries and s at each (see
    semiclassical_spectrum), so s(E) interpolates it and the band runs
    from its first energy to its last.  With `barrier` the area is the
    matching form across a barrier (_matching_areas), otherwise the plain
    sum S(E).  `scale`, here and below, takes its energies to the caller's units.
    """

    spec: ModelSpec
    table: tuple
    barrier: bool = False
    scale: float = 1.0

    @property
    def band(self):
        return self.table[0][0], self.table[0][-1]

    def __call__(self, energies):
        """The areas (_area_terms); NaN where the turning points do not resolve."""
        energies = np.asarray(energies, dtype=float)
        terms = _area_terms(self.spec, energies, np.interp(energies, *self.table), self.barrier)
        return _matching_areas(self.spec, terms) if self.barrier else terms.total


def _edge_actions(lo: float, hi: float, area: _IntervalArea):
    """(E, A(E)) just inside both ends of the interval (lo, hi), A = area(E).

    Close root pairs at a pole or a saddle leave the turning points
    unresolvable a hair away from the boundary, so the offset grows
    geometrically inward until they resolve; the ladder of offsets from
    both ends is one area call, and each end takes the first offset that
    resolves.  An end that none resolves (a well born at a pinched pole,
    r ~ (1/2+p)^(m/2) with m >= 3, or an interval narrower than the
    first offset) has a known area only at a band end, the first or last
    boundary of `area.band`: 0 at the bottom and 2*pi at the top.  At any
    other such end the interval has no edges, returned as (), and gives
    no levels; _assemble places its targets from their window.  S is
    clamped to [0, 2*pi]: next to a saddle on a conical pole (mode index
    2) the first-order term is no longer small and can push it past the
    whole band's area.
    """
    span = hi - lo
    first = max(1e-12, 1e-7 * span)
    margins = []
    margin = first
    while margin <= 1.5e-3 * span:
        margins.append(margin)
        margin *= 10.0
    margins = np.array(margins)
    probes = np.stack((lo + margins, hi - margins))
    values = np.clip(area(probes.ravel()), 0.0, TWO_PI).reshape(probes.shape)
    resolved = ~np.isnan(values)
    edges = []
    for row, (bound, side, s_end) in enumerate(((lo, 1, 0.0), (hi, -1, TWO_PI))):
        hit = np.flatnonzero(resolved[row])
        if len(hit):
            edges.append((float(probes[row, hit[0]]), float(values[row, hit[0]])))
        elif bound == area.band[row]:
            edges.append((bound + side * first, s_end))
        else:
            return ()
    return tuple(edges)


def _lockstep_roots(area, targets, x0, x1, s0, s1, scale=1.0):
    """Energies where area(E) = target for every target together.

    Each target's root lies in its bracket (x0, x1), in either order:
    s0 = area(x0) and s1 = area(x1) lie on either side of the target, or
    at it.  Every target runs the steps of brentq, whose tolerance
    _XTOL + _RTOL*|E| it keeps: secant or inverse quadratic steps inside
    the bracket, bisection where they would not shrink it fast enough.
    The targets move in lockstep, so each sweep is one call of `area` on
    an array of energies, one per unresolved target.  An energy where
    the area is NaN (unresolved turning points) raises QuantizationError.
    """
    x_pre, x_cur = np.array(x0, dtype=float), np.array(x1, dtype=float)
    f_pre, f_cur = np.asarray(s0) - targets, np.asarray(s1) - targets
    if np.any(f_pre * f_cur > 0.0):
        raise ValueError("an area bracket does not straddle its target")
    roots = np.where(f_pre == 0.0, x_pre, x_cur)
    act = np.nonzero((f_pre != 0.0) & (f_cur != 0.0))[0]
    x_pre, x_cur, f_pre, f_cur = x_pre[act], x_cur[act], f_pre[act], f_cur[act]
    x_blk, f_blk, s_pre, s_cur = (np.zeros(len(act)) for _ in range(4))
    while len(act):
        nan = np.isnan(f_pre) | np.isnan(f_cur)
        if nan.any():
            e = np.where(np.isnan(f_cur), x_cur, x_pre)[nan][0]
            raise QuantizationError(f"the area is unresolved at E = {float(scale * e)!r}, "
                                    "inside its edges")
        flip = f_pre * f_cur < 0.0
        x_blk, f_blk = np.where(flip, x_pre, x_blk), np.where(flip, f_pre, f_blk)
        s_pre = np.where(flip, x_cur - x_pre, s_pre)
        s_cur = np.where(flip, x_cur - x_pre, s_cur)
        swap = np.abs(f_blk) < np.abs(f_cur)
        x_pre, x_cur, x_blk = (np.where(swap, x_cur, x_pre), np.where(swap, x_blk, x_cur),
                               np.where(swap, x_cur, x_blk))
        f_pre, f_cur, f_blk = (np.where(swap, f_cur, f_pre), np.where(swap, f_blk, f_cur),
                               np.where(swap, f_cur, f_blk))
        delta = 0.5 * (_XTOL + _RTOL * np.abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        done = (f_cur == 0.0) | (np.abs(s_bis) < delta)
        roots[act[done]] = x_cur[done]
        go = ~done
        act, x_pre, x_cur, x_blk, f_pre, f_cur, f_blk, s_pre, s_cur, delta, s_bis = (
            a[go] for a in (act, x_pre, x_cur, x_blk, f_pre, f_cur, f_blk, s_pre, s_cur,
                            delta, s_bis))
        if not len(act):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            d_pre = (f_pre - f_cur) / (x_pre - x_cur)
            d_blk = (f_blk - f_cur) / (x_blk - x_cur)
            s_try = np.where(x_pre == x_blk, -f_cur * (x_cur - x_pre) / (f_cur - f_pre),
                             -f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
        good = ((np.abs(s_pre) > delta) & (np.abs(f_cur) < np.abs(f_pre))
                & (2.0 * np.abs(s_try) < np.minimum(np.abs(s_pre), 3.0 * np.abs(s_bis) - delta)))
        s_pre, s_cur = np.where(good, s_cur, s_bis), np.where(good, s_try, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur = x_cur + np.where(np.abs(s_cur) > delta, s_cur, np.where(s_bis > 0.0, delta, -delta))
        f_cur = area(x_cur) - targets[act]
    return roots


def _area_levels(spec: ModelSpec, lo: float, hi: float, area: _IntervalArea):
    """Roots {nu: E} of a monotone area in (lo, hi), and its two edge points.

    The targets are 2*pi*eta*(nu + 1/2) between the areas at the two
    edges (_edge_actions), which are returned as ((E, A(E)), (E, A(E)));
    without edges, or with edges that bound no span, there are no levels.
    One area call on a grid of as many energies as targets, plus two,
    brackets each target by the last grid energy below it and the first
    above it, in either order; one solve then finds every level together
    (_lockstep_roots).
    """
    eta = spec.eta
    edges = _edge_actions(lo, hi, area)
    if not edges or edges[1][0] <= edges[0][0]:
        return {}, ()
    (a, s_a), (b, s_b) = edges
    nus = np.arange(max(ceil(s_a / (TWO_PI * eta) - 0.5), 0),
                    floor(s_b / (TWO_PI * eta) - 0.5) + 1)
    if not len(nus):
        return {}, edges
    targets = TWO_PI * eta * (nus + 0.5)
    grid = np.linspace(a, b, len(nus) + 4)
    s_grid = np.concatenate(([s_a], area(grid[1:-1]), [s_b]))
    # the last grid energy below each target and the first above it
    below = np.searchsorted(np.minimum.accumulate(s_grid[::-1])[::-1], targets) - 1
    above = np.searchsorted(np.maximum.accumulate(s_grid), targets, side="right")
    left, right = np.maximum(below, 0), np.minimum(above, len(grid) - 1)
    roots = _lockstep_roots(area, targets, grid[left], grid[right], s_grid[left],
                            s_grid[right], area.scale)
    return dict(zip(nus.tolist(), roots.tolist())), edges


def _fixed_point_shift(spec: ModelSpec, fp) -> float:
    """First-order energy change (rho - 1)(E - eps*p) at a fixed point; 0 at a pole."""
    if fp.location != "interior":
        return 0.0
    return float(_radius_excess(spec, fp.p) * (fp.energy - spec.eps * fp.p))


def _structure_boundaries(spec: ModelSpec):
    """Merged fixed-point energies, the energy shift at each, and their saddles.

    Where fixed points share an energy, a saddle's shift wins: it is the
    one that keeps the areas finite there.  `tops` and `dips` tell, per
    boundary, whether an interior saddle there lies on U- (v*sx < 0, a
    barrier top) or on U+ (a dip bottom).
    """
    bounds, shifts, tops, dips = [], [], [], []
    for fp in sorted(meanfield.find_fixed_points(spec), key=lambda fp: fp.energy):
        e, saddle = fp.energy, fp.stability == "saddle"
        if not (bounds and e - bounds[-1] <= 1e-12 * (1.0 + abs(e))):
            bounds.append(e)
            shifts.append(_fixed_point_shift(spec, fp))
            tops.append(False)
            dips.append(False)
        elif saddle:
            shifts[-1] = _fixed_point_shift(spec, fp)
        if saddle and fp.location == "interior":
            (tops if spec.v * fp.sx < 0.0 else dips)[-1] = True
    return bounds, shifts, tops, dips


def _interval_plans(lo: float, hi: float, top: bool, dip: bool, upper, scale: float) -> list:
    """Plans (lo, hi, mirrored, tag) that solve one structure interval (_piece).

    `upper` holds the right-end branch labels of the allowed regions at
    the interval's midpoint (_regions), and `top` and `dip` tell whether
    a barrier top lies at lo and a dip bottom at hi (_structure_boundaries).
    Two regions make a double well, mirrored where the gap between them
    lies above U+; a barrier top at lo is continued from below, a dip
    bottom at hi (mirrored) from above, and with both the interval is
    split at a seam where both barrier corrections are negligible; the
    asymmetric seam fraction avoids pinning it onto a symmetric model's
    central level.
    """
    if len(upper) > 2:
        mid = float(scale * 0.5 * (lo + hi))
        raise QuantizationError(f"unexpected {len(upper)} allowed regions at E = {mid!r}")
    if len(upper) == 2:
        return [(lo, hi, bool(upper[0]), DOUBLE_WELL)]
    if top and dip:
        seam = lo + 0.6180339887 * (hi - lo)
        return [(lo, seam, False, ABOVE_BARRIER), (seam, hi, True, ABOVE_BARRIER)]
    if top or dip:
        return [(lo, hi, dip, ABOVE_BARRIER)]
    return [(lo, hi, False, SINGLE_WELL)]


_STEP_PROBES = 32  # energies per round of _step_past_continuation's search


def _step_past_continuation(spec: ModelSpec, lo: float, hi: float, area: _IntervalArea,
                            roots: dict, edges) -> None:
    """Move the roots taken before the step where a barrier continuation ends.

    Where no continued pair is usable, the matching area steps from its
    continued form to S(E).  Within a few eta of a pinched pole the
    first-order term can make that a step down past a target, which then
    has three roots: the one before the step comes from the term alone,
    and the level is the root beyond it, bracketed by the step and the
    upper edge.  Each round of the search for the step splits its
    bracket at _STEP_PROBES energies, tested in one array, and keeps the
    span before the first where no pair is usable; the moved roots are
    then solved together (_lockstep_roots).
    """
    if not roots or not np.isnan(_turning(spec, np.array([hi])).pair[0]):
        return
    a, b = lo, hi
    while b - a > 1e-12 * (1.0 + abs(a) + abs(b)):
        probes = np.linspace(a, b, _STEP_PROBES + 2)[1:-1]
        off = np.flatnonzero(np.isnan(_turning(spec, probes).pair))
        if len(off):
            a, b = (probes[off[0] - 1] if off[0] else a), probes[off[0]]
        else:
            a = probes[-1]
    if a == lo:
        return
    edge = edges[1][0]
    s_end, s_edge = area(np.array([b, edge]))
    moved = [nu for nu, e in roots.items() if e < a and TWO_PI * spec.eta * (nu + 0.5) > s_end]
    if moved:
        count = len(moved)
        targets = TWO_PI * spec.eta * (np.array(moved) + 0.5)
        found = _lockstep_roots(area, targets, np.full(count, b), np.full(count, edge),
                                np.full(count, s_end), np.full(count, s_edge), area.scale)
        roots.update(zip(moved, found.tolist()))


def _piece(spec: ModelSpec, table, lo: float, hi: float, mirrored: bool, tag: str, scale: float):
    """Roots {nu: E}, edges and regime of one plan (_interval_plans).

    Roots and edges (E, A(E)) come from _area_levels, with the matching
    area unless the tag is SINGLE_WELL; where the tag is ABOVE_BARRIER,
    the roots step past the continuation's end (_step_past_continuation).
    A mirrored plan is solved on spec.mirrored(), with E, the table and
    the scale negated, and mapped back by nu -> dim - 1 - nu and A -> 2*pi - A.
    """
    if mirrored:
        spec, table = spec.mirrored(), (-table[0][::-1], -table[1][::-1])
        lo, hi, scale = -hi, -lo, -scale
    area = _IntervalArea(spec, table, tag != SINGLE_WELL, scale)
    roots, edges = _area_levels(spec, lo, hi, area)
    if tag == ABOVE_BARRIER:
        _step_past_continuation(spec, lo, hi, area, roots, edges)
    if not mirrored:
        return roots, edges, tag
    return ({spec.dim - 1 - nu: -e for nu, e in roots.items()},
            tuple((-e, TWO_PI - a) for e, a in reversed(edges)), tag + "_mirrored")


def _assemble(spec: ModelSpec, scale: float, band, pieces) -> list:
    """Level (E, regime) of every nu, from the pieces or from their windows.

    A target that two pieces both solve takes the root of the piece
    whose area at an edge comes closest to it: the root nearest the
    shared edge, where the two areas meet.  The mirror map A -> 2*pi - A
    leaves that choice unchanged.  Any other target lies in a window
    between two consecutive edges, the band ends counting as edges at
    (E_min, 0) and (E_max, 2*pi), and its level is interpolated linearly
    in the area there; a window spans a probe margin or an interval with
    no edges, and one that would hold two levels raises QuantizationError.
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
                f"E in [{float(scale * e_lo)!r}, {float(scale * e_hi)!r}], "
                f"areas [{a_lo!r}, {a_hi!r}]")
        filled[k] = nu
        found[nu] = (e_lo + (target - a_lo) / (a_hi - a_lo) * (e_hi - e_lo), tag)
    return [found[nu] for nu in range(spec.dim)]


def semiclassical_spectrum(spec: ModelSpec) -> SemiclassicalSpectrum:
    """All dim levels from the WKB rules, regime-labeled and sorted.

    The band is partitioned at the fixed-point energies, and the
    structure of each interval is decided once, as flat plans
    (_interval_plans): a plain well, a double well below a barrier, or a
    barrier-top continuation, mirrored (_piece) for structures of the
    upper potential curve.  Every plan finds its levels the same way, as
    the roots of a monotone area at the targets
    2*pi*eta*(nu + 1/2), all solved together (_area_levels): the orbit
    area S(E) in a plain well, the area form of the matching condition
    across a barrier (_matching_areas).  Levels are assembled by their
    index nu (_assemble), and each sits at E + s(E): s runs linearly
    between the values of dH at the structure boundaries, shared by the
    two intervals that meet there, so the area stays continuous across
    every boundary.  A window holding two levels, or levels that do not
    increase strictly, raise QuantizationError, as does v = 0, where no
    orbit has turning points.  All at unit scale (ModelSpec.unit_scale),
    with the levels, and the energies that errors name, scaled back by s.
    """
    if spec.v == 0.0:
        raise QuantizationError(f"v = 0: no orbit of {spec} has turning points to quantize")
    meanfield.residual_core(spec.m, spec.n)  # its ValueError comes before _radius_excess overflows
    unit, s = spec.unit_scale()
    bounds, shifts, tops, dips = _structure_boundaries(unit)
    if len(bounds) < 2:
        raise QuantizationError("classical band is degenerate")
    table = np.array(bounds), np.array(shifts)
    mids = _turning(unit, 0.5 * (table[0][:-1] + table[0][1:]))
    pieces = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        pieces += [_piece(unit, table, *plan, s) for plan in _interval_plans(
            lo, hi, tops[k], dips[k + 1], mids.upper_right[mids.row == k], s)]
    energies, tags = zip(*_assemble(spec, s, (bounds[0], bounds[-1]), pieces))
    energies = np.array(energies)
    levels = energies + np.interp(energies, *table)
    if np.any(np.diff(levels) <= 0.0):
        raise QuantizationError(f"levels of {spec} do not increase strictly")
    return SemiclassicalSpectrum(spec, s * levels, tags)
