"""Classical limit: Kummer-shape geometry, fixed points, trajectories.

The mean-field state s = (sx, sy, sz) moves on the surface
sx^2 + sy^2 = r^2(sz) with r(p) = r0 (1/2+p)^(m/2) (1/2-p)^(n/2),
driven by dsx/dt = -eps*sy, dsy/dt = eps*sx - v*f(sz), dsz/dt = v*sy.
The structure functions f and g satisfy dg/dp = 2 f and g = -r^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import copysign, cos, isfinite, nan, pi, sin, sqrt

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import ModelSpec

DEGENERATE_TOL = 1e-10  # |eps^2 + v^2 f'| below this is a bifurcation point


def radius_coefficient(spec: ModelSpec) -> float:
    """r0 = 1/sqrt(m^(n-2) n^(m-2)), the scale of the surface radius."""
    structure_polynomials(spec.m, spec.n)  # rejects an (m, n) without a normal r0^2
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


def classical_commutator(spec: ModelSpec, p):
    """Structure function f with {sx, sy} = f(sz); a polynomial, total in p."""
    p = np.asarray(p, dtype=float)
    m, n = spec.m, spec.n
    x = 0.5 + p
    y = 0.5 - p
    out = 0.5 * structure_polynomials(m, n).r0sq * (
        n * x**m * y ** (n - 1) - m * x ** (m - 1) * y**n
    )
    return float(out) if out.ndim == 0 else out


def classical_casimir(spec: ModelSpec, p):
    """Structure function g with C = sx^2 + sy^2 + g(sz); equals -r^2 on domain."""
    p = np.asarray(p, dtype=float)
    out = -structure_polynomials(spec.m, spec.n).r0sq * (0.5 + p) ** spec.m * (0.5 - p) ** spec.n
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
    out = 0.5 * structure_polynomials(m, n).r0sq * out
    return float(out) if out.ndim == 0 else out


def casimir_value(spec: ModelSpec, state) -> float:
    """C(s) = sx^2 + sy^2 + g(sz); zero on the physical surface."""
    sx, sy, sz = state
    return float(sx * sx + sy * sy + classical_casimir(spec, sz))


def potentials(spec: ModelSpec, p):
    """Momentum potential curves U-(p) <= U+(p) bounding the energy at p.

    H is the same at v and -v up to the rotation q -> q + pi, so the
    curves are eps*p -+ |v|*r(p).
    """
    r = radius(spec, p)
    base = np.asarray(p, dtype=float) * spec.eps
    lo, hi = base - abs(spec.v) * r, base + abs(spec.v) * r
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
    """The cached structure-polynomial core of the (m, n) Kummer shape;
    ValueError where r0^2 = m^(2-n) n^(2-m) is not a normal double."""
    r0sq = float(m) ** (2 - n) * float(n) ** (2 - m)
    if not r0sq >= np.finfo(float).tiny:  # m = n = 83 and up: r0 loses its precision
        raise ValueError(f"r0^2 = m^(2-n) n^(2-m) = {r0sq!r} is not a normal double "
                         f"at m = {m}, n = {n}")
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
    """Fixed points (p, sx) in (-1/2, 1/2): roots of v^2 fixed_a - eps^2 fixed_b.

    Companion-matrix roots (Edelman & Murakami, Math. Comp. 64, 1995) are
    grouped by real part.  A lone real root gets Newton steps.  A cluster
    is driven onto the residual's extremum: a zero there (to rounding) is
    a tangency, else the cluster holds two close real roots or none.  The
    domain test follows polishing, so a root driven onto a pole is dropped.
    A root carries sx = (v/eps) f(p), except in the cluster about the zero
    p0 of f, which is the q = 0, pi pair of small |eps| and never a
    tangency: there f(p)/eps is rounding over eps, and sx = +-r(p) with the
    sign of v f(p)/eps, or both signs at the extremum if rounding merges
    the pair.
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
    p0 = (spec.m - spec.n) / (2.0 * (spec.m + spec.n))
    v_eps = spec.v / spec.eps
    roots = []
    for cluster in clusters:
        if len(cluster) == 1:
            p = _polish(coeffs, cluster[0], 0)
            roots.append((p, v_eps * classical_commutator(spec, p)))
            continue
        p = _polish(coeffs, sum(cluster) / len(cluster), 1)
        val, _, curv = _horner(coeffs, p)
        pair = []
        if val * curv < 0.0:  # two close simple roots, one either side
            half = sqrt(-2.0 * val / curv)
            pair = [_polish(coeffs, p - half, 0), _polish(coeffs, p + half, 0)]
        if cluster[0] - ROOT_CLUSTER_TOL <= p0 <= cluster[-1] + ROOT_CLUSTER_TOL:
            signs = [copysign(1.0, v_eps * classical_commutator(spec, z)) for z in pair]
            resolved = sorted(signs) == [-1.0, 1.0] and all(
                abs(z - p) <= ROOT_CLUSTER_TOL for z in pair)
            if not resolved:  # rounding merges the pair
                pair, signs = [p, p], [1.0, -1.0]
            roots += [(z, sign * radius(spec, z)) for z, sign in zip(pair, signs)]
            continue
        noise = _horner((np.abs(va) + np.abs(eb)).tolist(), abs(p))[0]
        if abs(val) <= TANGENCY_ULPS * np.finfo(float).eps * noise:
            pair = [p]
        roots += [(z, v_eps * classical_commutator(spec, z)) for z in pair]
    return [(p, sx) for p, sx in roots if -0.5 < p < 0.5]


def find_fixed_points(spec: ModelSpec) -> list:
    """All fixed points: interior roots plus the poles demanded by m, n > 1.

    Interior points carry sx = (v/eps) f(p) (or sx = +-r beside the zero
    of f, and for eps = 0); energies are E = v*sx + eps*p.  Stability
    follows the sign of eps^2 + v^2 f'(p).
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
        for p, sx in _interior_roots(spec):
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
    """Interior inflection points of r(p), the simple roots of a quadratic.

    4x^2y^2 r''/r with x = 1/2+p, y = 1/2-p is
    Q(p) = m(m-2)(1/2-p)^2 - 2mn(1/4-p^2) + n(n-2)(1/2+p)^2,
    so r'' changes sign exactly where Q has a simple root in (-1/2, 1/2):
    where disc > 0.  The leading coefficient vanishes only at m = n = 1,
    where b does too and Q = -1.
    """
    m, n = spec.m, spec.n
    a = (m + n) * (m + n - 2)
    b = (n - m) * (m + n - 2)
    c = ((m - n) ** 2 - 2 * (m + n)) / 4.0
    disc = b * b - 4 * a * c
    if not disc > 0:
        return []
    roots = ((-b - sqrt(disc)) / (2 * a), (-b + sqrt(disc)) / (2 * a))
    return [p for p in roots if -0.5 < p < 0.5]


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
    None at v = 0: H = eps*sz has only the poles, of stability eps^2.
    """
    if spec.v == 0.0:
        return []
    events = []
    for p in inflection_points(spec):
        slope = -classical_commutator(spec, p) / radius(spec, p)  # g = -r^2, dg/dp = 2f
        if abs(slope) < 1e-14:
            continue
        for sign in (1.0, -1.0):
            eps_c = sign * spec.v * slope
            energy = (spec.v**2 / eps_c) * classical_commutator(spec, p) + eps_c * p
            events.append(BifurcationEvent(eps_c, "saddle_node", p, energy))
    for mode, slope, pole, p in zip((spec.m, spec.n), pole_slopes(spec),
                                    ("south_pole", "north_pole"), (-0.5, 0.5)):
        if mode == 2:
            for sign in (1.0, -1.0):
                eps_c = sign * spec.v * slope
                events.append(BifurcationEvent(eps_c, "transcritical", pole, eps_c * p))
    events.sort(key=lambda ev: (abs(ev.eps_critical), ev.eps_critical))
    return events


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    states: np.ndarray  # (samples, 3) rows of (sx, sy, sz)
    drift_h: float  # max |H(t) - H(0)| over every step taken; NaN if the flow diverged
    drift_c: float  # max |C(t) - C(0)|


def integrate_trajectory(spec: ModelSpec, initial, t_end: float, dt: float,
                         stride: int = 1) -> TrajectoryRecord:
    """Fixed-step 4th-order Runge-Kutta integration on the Kummer surface.

    The initial point must satisfy C(s) = 0 within 1e-10.  Conservation
    of H and C is tracked at every step; states are stored every
    `stride` steps.  The step loop runs on Python floats only: with numpy
    scalars each operation costs several times more.
    """
    sx, sy, sz = (float(c) for c in initial)
    if not abs(casimir_value(spec, (sx, sy, sz))) <= 1e-10:
        raise ValueError("initial point does not lie on the C = 0 surface")
    t_end, dt = float(t_end), float(dt)
    if not (isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not (isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ValueError(f"dt = {dt!r} is at least twice t_end = {t_end!r}: no step to take")

    eps, v = spec.eps, spec.v
    core = structure_polynomials(spec.m, spec.n)
    fc = core.f[::-1].tolist()  # descending for Horner
    gc = core.g[::-1].tolist()

    gz = 0.0
    for c in gc:
        gz = gz * sz + c
    h0 = v * sx + eps * sz
    c0 = sx * sx + sy * sy + gz
    times = [0.0]
    states = [(sx, sy, sz)]
    drift_h = 0.0
    drift_c = 0.0
    for k in range(1, steps + 1):
        fz = 0.0
        for c in fc:
            fz = fz * sz + c
        ax1, ay1, az1 = -eps * sy, eps * sx - v * fz, v * sy
        x2, y2, z2 = sx + 0.5 * dt * ax1, sy + 0.5 * dt * ay1, sz + 0.5 * dt * az1
        fz = 0.0
        for c in fc:
            fz = fz * z2 + c
        ax2, ay2, az2 = -eps * y2, eps * x2 - v * fz, v * y2
        x3, y3, z3 = sx + 0.5 * dt * ax2, sy + 0.5 * dt * ay2, sz + 0.5 * dt * az2
        fz = 0.0
        for c in fc:
            fz = fz * z3 + c
        ax3, ay3, az3 = -eps * y3, eps * x3 - v * fz, v * y3
        x4, y4, z4 = sx + dt * ax3, sy + dt * ay3, sz + dt * az3
        fz = 0.0
        for c in fc:
            fz = fz * z4 + c
        ax4, ay4, az4 = -eps * y4, eps * x4 - v * fz, v * y4
        sx += dt * (ax1 + 2 * ax2 + 2 * ax3 + ax4) / 6.0
        sy += dt * (ay1 + 2 * ay2 + 2 * ay3 + ay4) / 6.0
        sz += dt * (az1 + 2 * az2 + 2 * az3 + az4) / 6.0
        d = abs(v * sx + eps * sz - h0)
        if not d <= drift_h:  # unlike d > drift_h, true for a NaN d
            drift_h = d
        gz = 0.0
        for c in gc:
            gz = gz * sz + c
        d = abs(sx * sx + sy * sy + gz - c0)
        if not d <= drift_c:
            drift_c = d
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
