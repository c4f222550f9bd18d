"""Classical limit: Kummer-shape geometry, fixed points, trajectories.

The mean-field state s = (sx, sy, sz) moves on the surface
sx^2 + sy^2 = r^2(sz) with r(p) = r0 (1/2+p)^(m/2) (1/2-p)^(n/2),
driven by dsx/dt = -eps*sy, dsy/dt = eps*sx - v*f(sz), dsz/dt = v*sy.
The structure functions f and g satisfy dg/dp = 2 f and g = -r^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, nan, pi, sin, sqrt

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import ModelSpec

DEGENERATE_TOL = 1e-10  # |eps^2 + v^2 f'| below this is a bifurcation point


def _shape_prefactor(spec: ModelSpec) -> float:
    return structure_polynomials(spec.m, spec.n).r0sq


def radius_coefficient(spec: ModelSpec) -> float:
    """r0 = 1/sqrt(m^(n-2) n^(m-2)), the scale of the surface radius."""
    return 1.0 / sqrt(float(spec.m) ** (spec.n - 2) * float(spec.n) ** (spec.m - 2))


def _check_domain(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < -0.5) or np.any(p > 0.5):
        raise ValueError("p must lie in [-1/2, 1/2]")
    return p


def radius(spec: ModelSpec, p):
    """Surface radius r(p) = r0 (1/2+p)^(m/2) (1/2-p)^(n/2) on [-1/2, 1/2]."""
    if isinstance(p, float):  # the same arithmetic without array overhead
        if p < -0.5 or p > 0.5:
            raise ValueError("p must lie in [-1/2, 1/2]")
        return (radius_coefficient(spec) * max(0.5 + p, 0.0) ** (spec.m / 2.0)
                * max(0.5 - p, 0.0) ** (spec.n / 2.0))
    p = _check_domain(p)
    x = np.maximum(0.5 + p, 0.0)
    y = np.maximum(0.5 - p, 0.0)
    out = radius_coefficient(spec) * x ** (spec.m / 2.0) * y ** (spec.n / 2.0)
    return float(out) if out.ndim == 0 else out


def radius_deriv(spec: ModelSpec, p):
    """dr/dp; infinite at a pole whose mode index is 1."""
    p = _check_domain(p)
    m, n = spec.m, spec.n
    x = np.maximum(0.5 + p, 0.0)
    y = np.maximum(0.5 - p, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = radius_coefficient(spec) * (
            (m / 2.0) * x ** (m / 2.0 - 1.0) * y ** (n / 2.0)
            - (n / 2.0) * x ** (m / 2.0) * y ** (n / 2.0 - 1.0)
        )
    return float(out) if out.ndim == 0 else out


def classical_commutator(spec: ModelSpec, p):
    """Structure function f with {sx, sy} = f(sz); a polynomial, total in p."""
    p = np.asarray(p, dtype=float)
    m, n = spec.m, spec.n
    x = 0.5 + p
    y = 0.5 - p
    out = 0.5 * _shape_prefactor(spec) * (
        n * x**m * y ** (n - 1) - m * x ** (m - 1) * y**n
    )
    return float(out) if out.ndim == 0 else out


def classical_casimir(spec: ModelSpec, p):
    """Structure function g with C = sx^2 + sy^2 + g(sz); equals -r^2 on domain."""
    p = np.asarray(p, dtype=float)
    out = -_shape_prefactor(spec) * (0.5 + p) ** spec.m * (0.5 - p) ** spec.n
    return float(out) if out.ndim == 0 else out


def classical_commutator_deriv(spec: ModelSpec, p):
    """df/dp, with vanishing-coefficient terms dropped before evaluation."""
    p = np.asarray(p, dtype=float)
    m, n = spec.m, spec.n
    x = 0.5 + p
    y = 0.5 - p
    out = 2.0 * m * n * x ** (m - 1) * y ** (n - 1)
    if n >= 2:
        out = out - n * (n - 1) * x**m * y ** (n - 2)
    if m >= 2:
        out = out - m * (m - 1) * x ** (m - 2) * y**n
    out = 0.5 * _shape_prefactor(spec) * out
    return float(out) if out.ndim == 0 else out


def casimir_value(spec: ModelSpec, state) -> float:
    """C(s) = sx^2 + sy^2 + g(sz); zero on the physical surface."""
    sx, sy, sz = state
    return float(sx * sx + sy * sy + classical_casimir(spec, sz))


def potentials(spec: ModelSpec, p):
    """Momentum potential curves U-(p) <= U+(p) bounding the energy at p."""
    r = radius(spec, p)
    base = np.asarray(p, dtype=float) * spec.eps
    lo, hi = base - spec.v * r, base + spec.v * r
    if np.asarray(p).ndim == 0:
        return float(lo), float(hi)
    return lo, hi


@dataclass(frozen=True)
class StructurePolynomials:
    """Ascending coefficients of the structure polynomials of one (m, n).

    pole = (1/2+p)^m (1/2-p)^n, so r^2 = r0sq * pole and g = -r^2.  The
    fixed points solve v^2 f^2 = eps^2 r^2; with the pole factors divided
    out that is v^2 fixed_a - eps^2 fixed_b = 0.  Arrays are read-only.
    """

    r0sq: float
    pole: np.ndarray
    f: np.ndarray
    g: np.ndarray
    fixed_a: np.ndarray
    fixed_b: np.ndarray


def _power_product(m: int, n: int) -> np.ndarray:
    """Ascending coefficients of (1/2+p)^m (1/2-p)^n."""
    xp, yp = np.array([0.5, 1.0]), np.array([0.5, -1.0])
    return npoly.polymul(npoly.polypow(xp, m), npoly.polypow(yp, n))


@lru_cache(maxsize=64)
def structure_polynomials(m: int, n: int) -> StructurePolynomials:
    """The cached structure-polynomial core of the (m, n) Kummer shape."""
    r0sq = float(m) ** (2 - n) * float(n) ** (2 - m)
    pole = _power_product(m, n)
    f = 0.5 * r0sq * (n * _power_product(m, n - 1) - m * _power_product(m - 1, n))
    lin = np.array([0.5 * (n - m), float(m + n)])  # n*(1/2+p) - m*(1/2-p)
    fixed_a = (0.5 * r0sq) ** 2 * npoly.polymul(
        _power_product(max(m - 2, 0), max(n - 2, 0)), npoly.polymul(lin, lin)
    )
    fixed_b = r0sq * _power_product(int(m == 1), int(n == 1))
    fixed_b = np.pad(fixed_b, (0, len(fixed_a) - len(fixed_b)))
    arrays = (pole, f, -r0sq * pole, fixed_a, fixed_b)
    for arr in arrays:
        arr.setflags(write=False)
    return StructurePolynomials(r0sq, *arrays)


@dataclass(frozen=True)
class FixedPoint:
    """Stationary point of the classical flow (sy = 0 always)."""

    p: float
    q: float  # 0 or pi for interior points, nan at a pole
    sx: float
    energy: float
    stability: str  # 'center', 'saddle' or 'degenerate'
    rate: float  # rotation frequency omega (center) or exponent lambda (saddle)
    location: str  # 'interior', 'south_pole' or 'north_pole'


def _classify(spec: ModelSpec, p: float):
    jac = spec.eps**2 + spec.v**2 * classical_commutator_deriv(spec, p)
    if jac > DEGENERATE_TOL:
        return "center", sqrt(jac)
    if jac < -DEGENERATE_TOL:
        return "saddle", sqrt(-jac)
    return "degenerate", 0.0


ROOT_CLUSTER_TOL = 1e-6  # closer companion roots are examined as one pair
TANGENCY_ULPS = 1e3  # a pair whose extremum is zero to this many ulps is a double root


def _horner(coeffs, z: float):
    """Value and first two derivatives of an ascending polynomial at z."""
    val = d1 = d2 = 0.0
    for c in reversed(coeffs):
        d2 = d2 * z + 2.0 * d1
        d1 = d1 * z + val
        val = val * z + c
    return val, d1, d2


def _polish(coeffs, p: float, order: int) -> float:
    """Two Newton steps to a zero of the polynomial (order 0) or its slope (1)."""
    for _ in range(2):
        derivs = _horner(coeffs, p)
        if derivs[order + 1] == 0.0:
            break
        p -= derivs[order] / derivs[order + 1]
    return p


def _interior_roots(spec: ModelSpec) -> list:
    """Roots in (-1/2, 1/2) of v^2 fixed_a - eps^2 fixed_b, for eps != 0.

    Companion-matrix roots (Edelman & Murakami, Math. Comp. 64, 1995) are
    grouped by real part.  A lone real root gets Newton steps.  A cluster
    is driven onto the residual's extremum: a zero there (to rounding) is
    a tangency, else the cluster holds two close real roots or none.  The
    domain test follows polishing, so a root driven onto a pole is dropped.
    """
    core = structure_polynomials(spec.m, spec.n)
    va, eb = spec.v**2 * core.fixed_a, spec.eps**2 * core.fixed_b
    coeffs = va - eb
    near_real = sorted(
        float(z.real) for z in npoly.polyroots(coeffs) if abs(z.imag) <= ROOT_CLUSTER_TOL
    )
    clusters = []
    for x in near_real:
        if clusters and x - clusters[-1][-1] <= ROOT_CLUSTER_TOL:
            clusters[-1].append(x)
        else:
            clusters.append([x])

    coeffs = coeffs.tolist()
    roots = []
    for cluster in clusters:
        if len(cluster) == 1:
            roots.append(_polish(coeffs, cluster[0], 0))
            continue
        p = _polish(coeffs, sum(cluster) / len(cluster), 1)
        val, _, curv = _horner(coeffs, p)
        noise = _horner((np.abs(va) + np.abs(eb)).tolist(), abs(p))[0]
        if abs(val) <= TANGENCY_ULPS * np.finfo(float).eps * noise:
            roots.append(p)
        elif val * curv < 0.0:  # two close simple roots, one either side
            half = sqrt(-2.0 * val / curv)
            roots += [_polish(coeffs, p - half, 0), _polish(coeffs, p + half, 0)]
    return [p for p in roots if -0.5 < p < 0.5]


def find_fixed_points(spec: ModelSpec) -> list:
    """All fixed points: interior roots plus the poles demanded by m, n > 1.

    Interior points carry sx = (v/eps) f(p) (or sx = +-r for eps = 0);
    energies are E = v*sx + eps*p.  Stability follows the sign of
    eps^2 + v^2 f'(p).
    """
    out = []
    if spec.m > 1:
        kind, rate = _classify(spec, -0.5)
        out.append(FixedPoint(-0.5, nan, 0.0, -spec.eps / 2.0, kind, rate, "south_pole"))
    if spec.n > 1:
        kind, rate = _classify(spec, 0.5)
        out.append(FixedPoint(0.5, nan, 0.0, spec.eps / 2.0, kind, rate, "north_pole"))

    if spec.eps == 0.0:
        # stationary requires f(p) = 0; the only interior zero is n*x = m*y
        p = (spec.m - spec.n) / (2.0 * (spec.m + spec.n))
        r = radius(spec, p)
        kind, rate = _classify(spec, p)
        out.append(FixedPoint(p, 0.0, r, spec.v * r, kind, rate, "interior"))
        out.append(FixedPoint(p, pi, -r, -spec.v * r, kind, rate, "interior"))
    else:
        for p in _interior_roots(spec):
            sx = (spec.v / spec.eps) * classical_commutator(spec, p)
            q = 0.0 if sx >= 0.0 else pi
            energy = spec.v * sx + spec.eps * p
            kind, rate = _classify(spec, p)
            out.append(FixedPoint(p, q, sx, energy, kind, rate, "interior"))

    out.sort(key=lambda fp: fp.p)
    limit = min(spec.m + spec.n, 6)
    if len(out) > limit:
        raise RuntimeError(f"found {len(out)} fixed points, expected at most {limit}")
    return out


@dataclass(frozen=True)
class BifurcationEvent:
    eps_critical: float
    kind: str  # 'saddle_node' or 'transcritical'
    location: float | str  # inflection p value, or pole name
    energy: float


def inflection_points(spec: ModelSpec) -> list:
    """Interior inflection points of r(p), from the closed-form quadratic.

    r'' = 0 reduces to m(m-2)(1/2-p)^2 - 2mn(1/4-p^2) + n(n-2)(1/2+p)^2 = 0.
    Each candidate is confirmed by a sign change of r'' measured with
    second differences.
    """
    m, n = spec.m, spec.n
    a = (m + n) * (m + n - 2)
    b = (n - m) * (m + n - 2)
    c = ((m - n) ** 2 - 2 * (m + n)) / 4.0
    if a == 0:
        cands = [-c / b] if b != 0 else []
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            cands = []
        else:
            cands = [(-b - sqrt(disc)) / (2 * a), (-b + sqrt(disc)) / (2 * a)]
    out = []
    h = 1e-5
    for p in sorted(cands):
        if not -0.5 + h < p < 0.5 - h:
            continue
        dd = lambda t: radius(spec, t - h) - 2 * radius(spec, t) + radius(spec, t + h)
        if dd(p - 2 * h) * dd(p + 2 * h) < 0:
            out.append(float(p))
    return out


def pole_slopes(spec: ModelSpec):
    """(south, north) slope |dr/dp| of the radius at the poles.

    Infinite for a mode index of 1, 0 for a mode index above 2, and
    2^(1 - n/2) at the south pole for m = 2 (2^(1 - m/2) at the north
    pole for n = 2).
    """
    south = float("inf") if spec.m == 1 else (
        2.0 ** (1.0 - spec.n / 2.0) if spec.m == 2 else 0.0
    )
    north = float("inf") if spec.n == 1 else (
        2.0 ** (1.0 - spec.m / 2.0) if spec.n == 2 else 0.0
    )
    return south, north


def classify_bifurcations(spec: ModelSpec) -> list:
    """Critical eps values where the fixed-point count changes.

    Saddle-node events occur at the inflection points of r with
    eps_c = +-v r'(p); transcritical events exist only for a mode index
    of exactly 2, at eps_c = +-v times the pole's slope (pole_slopes).
    """
    events = []
    for p in inflection_points(spec):
        slope = radius_deriv(spec, p)
        if abs(slope) < 1e-14:
            continue
        for sign in (1.0, -1.0):
            eps_c = sign * spec.v * slope
            energy = (spec.v**2 / eps_c) * classical_commutator(spec, p) + eps_c * p
            events.append(BifurcationEvent(eps_c, "saddle_node", p, energy))
    south, north = pole_slopes(spec)
    if spec.m == 2:
        for sign in (1.0, -1.0):
            eps_c = sign * spec.v * south
            events.append(BifurcationEvent(eps_c, "transcritical", "south_pole", -eps_c / 2.0))
    if spec.n == 2:
        for sign in (1.0, -1.0):
            eps_c = sign * spec.v * north
            events.append(BifurcationEvent(eps_c, "transcritical", "north_pole", eps_c / 2.0))
    events.sort(key=lambda ev: (abs(ev.eps_critical), ev.eps_critical))
    return events


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    states: np.ndarray  # (samples, 3) rows of (sx, sy, sz)
    drift_h: float  # max |H(t) - H(0)| over every step taken
    drift_c: float  # max |C(t) - C(0)|


def integrate_trajectory(spec: ModelSpec, initial, t_end: float, dt: float,
                         stride: int = 1) -> TrajectoryRecord:
    """Fixed-step 4th-order Runge-Kutta integration on the Kummer surface.

    The initial point must satisfy C(s) = 0 within 1e-10.  Conservation
    of H and C is tracked at every step; states are stored every
    `stride` steps.
    """
    sx, sy, sz = (float(c) for c in initial)
    if abs(casimir_value(spec, (sx, sy, sz))) > 1e-10:
        raise ValueError("initial point does not lie on the C = 0 surface")
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")

    eps, v = spec.eps, spec.v
    core = structure_polynomials(spec.m, spec.n)
    fc = core.f[::-1]  # descending for Horner
    gc = core.g[::-1]

    def fval(z):
        acc = 0.0
        for c in fc:
            acc = acc * z + c
        return acc

    def gval(z):
        acc = 0.0
        for c in gc:
            acc = acc * z + c
        return acc

    h0 = v * sx + eps * sz
    c0 = sx * sx + sy * sy + gval(sz)
    steps = int(round(t_end / dt))
    times = [0.0]
    states = [(sx, sy, sz)]
    drift_h = 0.0
    drift_c = 0.0
    for k in range(1, steps + 1):
        ax1, ay1, az1 = -eps * sy, eps * sx - v * fval(sz), v * sy
        x2, y2, z2 = sx + 0.5 * dt * ax1, sy + 0.5 * dt * ay1, sz + 0.5 * dt * az1
        ax2, ay2, az2 = -eps * y2, eps * x2 - v * fval(z2), v * y2
        x3, y3, z3 = sx + 0.5 * dt * ax2, sy + 0.5 * dt * ay2, sz + 0.5 * dt * az2
        ax3, ay3, az3 = -eps * y3, eps * x3 - v * fval(z3), v * y3
        x4, y4, z4 = sx + dt * ax3, sy + dt * ay3, sz + dt * az3
        ax4, ay4, az4 = -eps * y4, eps * x4 - v * fval(z4), v * y4
        sx += dt * (ax1 + 2 * ax2 + 2 * ax3 + ax4) / 6.0
        sy += dt * (ay1 + 2 * ay2 + 2 * ay3 + ay4) / 6.0
        sz += dt * (az1 + 2 * az2 + 2 * az3 + az4) / 6.0
        drift_h = max(drift_h, abs(v * sx + eps * sz - h0))
        drift_c = max(drift_c, abs(sx * sx + sy * sy + gval(sz) - c0))
        if k % stride == 0 or k == steps:
            times.append(k * dt)
            states.append((sx, sy, sz))
    return TrajectoryRecord(np.array(times), np.array(states), drift_h, drift_c)


def surface_point(spec: ModelSpec, p: float, angle: float):
    """Point (sx, sy, sz) on the surface at height p and azimuth angle."""
    r = radius(spec, p)
    return (r * cos(angle), r * sin(angle), p)


def kummer_mesh(spec: ModelSpec, n_theta: int, n_p: int) -> np.ndarray:
    """Surface-of-revolution sample grid, shape (n_p, n_theta, 3).

    Rows sweep p from the south to the north pole (both included, so
    tips and cusps are present); columns sweep the azimuth over a full
    turn with the seam repeated.
    """
    if n_theta < 2 or n_p < 2:
        raise ValueError("mesh resolutions must be >= 2")
    p = np.linspace(-0.5, 0.5, n_p)
    theta = np.linspace(0.0, 2.0 * pi, n_theta)
    r = radius(spec, p)
    mesh = np.empty((n_p, n_theta, 3))
    mesh[:, :, 0] = r[:, None] * np.cos(theta)[None, :]
    mesh[:, :, 1] = r[:, None] * np.sin(theta)[None, :]
    mesh[:, :, 2] = p[:, None]
    return mesh
