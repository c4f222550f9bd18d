"""Cross-module invariant suite backing the `verify` CLI command.

Each check returns (name, passed, detail).  Checks are deterministic:
random samples use a fixed seed.
"""

from __future__ import annotations

import dataclasses
from math import pi

import numpy as np

from . import algebra, meanfield, quantum, semiclassics
from .model import ModelSpec


def check_structure_symmetry(spec: ModelSpec):
    """Mode swap sends F(z) to -F(-z) and G(z) to G(-z)."""
    swapped = spec.mirrored()
    rng = np.random.RandomState(7)
    zs = rng.uniform(-spec.z_max, spec.z_max, 64)
    f1 = algebra.commutator_poly(spec, zs)
    f2 = -algebra.commutator_poly(swapped, -zs)
    g1 = algebra.casimir_poly(spec, zs)
    g2 = algebra.casimir_poly(swapped, -zs)
    scale = np.maximum(np.maximum(np.abs(f1), np.abs(g1)), 1.0)
    worst = float(np.max(np.maximum(np.abs(f1 - f2), np.abs(g1 - g2)) / scale))
    return "structure polynomial mode-swap symmetry", worst < 1e-12, f"max rel {worst:.2e}"


def check_structure_degree(spec: ModelSpec):
    """F has degree m+n-1 and G degree m+n (finite-difference order).

    The samples span the ladder's z range [-z_max, z_max], which keeps
    the top differences comparable to the values at any N.
    """
    z_max = spec.z_max

    def degree_of(poly, max_deg):
        h = 2.0 * z_max / (max_deg + 1)
        vals = poly(spec, -z_max + np.arange(max_deg + 2) * h)
        for deg in range(max_deg + 1):
            diffs = np.diff(vals, deg + 1)
            scale = np.max(np.abs(vals)) + 1e-300
            if np.max(np.abs(diffs)) < 1e-8 * scale:
                return deg
        return max_deg + 1

    want_f = spec.m + spec.n - 1
    want_g = spec.m + spec.n
    got_f = degree_of(algebra.commutator_poly, want_f + 2)
    got_g = degree_of(algebra.casimir_poly, want_g + 2)
    ok = got_f == want_f and got_g == want_g
    return "structure polynomial degrees", ok, f"deg F={got_f} (want {want_f}), deg G={got_g} (want {want_g})"


def check_completion_identity(spec: ModelSpec):
    """Casimir completion reproduces the difference identity for k <= 3."""
    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(8):
        alpha = rng.uniform(-2, 2, 4)
        worst = max(worst, algebra.completion_residual(alpha, np.linspace(-10, 10, 41)))
    return "Casimir completion difference identity", worst < 1e-12, f"max residual {worst:.2e}"


def check_commutators(spec: ModelSpec):
    res = quantum.commutator_residuals(spec)
    worst = max(res["sz_sx"], res["sy_sz"], res["sx_sy"])
    ok = worst < 1e-10 and res["casimir"] < 1e-9
    return (
        "matrix commutators and Casimir scalarity",
        ok,
        f"comm {worst:.2e}, casimir {res['casimir']:.2e} (value {res['casimir_value']:.3e})",
    )


def check_ladder_identity(spec: ModelSpec):
    """Ladder strengths equal the weighted ladder product at shifted argument."""
    c = -2.0 * algebra._prefactor(spec)
    mu = np.arange(spec.dim + 1)
    direct = quantum._ladder_weights(spec, mu)
    via_product = c * algebra.ladder_product(spec, mu - spec.z_max - 1.0)
    worst = float(np.max(np.abs(direct - via_product) / np.maximum(np.abs(direct), 1.0)))
    return "ladder strength vs ladder product", worst < 1e-10, f"max rel {worst:.2e}"


def check_classical_identities(spec: ModelSpec):
    rng = np.random.RandomState(3)
    ps = rng.uniform(-0.5, 0.5, 1000)
    g = meanfield.classical_casimir(spec, ps)
    r = meanfield.radius(spec, ps)
    err_gr = np.max(np.abs(g + r * r)) / max(np.max(np.abs(g)), 1e-300)
    h = 1e-6
    dg = (meanfield.classical_casimir(spec, np.clip(ps + h, -0.5, 0.5))
          - meanfield.classical_casimir(spec, np.clip(ps - h, -0.5, 0.5))) / (2 * h)
    f2 = 2.0 * meanfield.classical_commutator(spec, ps)
    err_df = np.max(np.abs(dg - f2)) / max(np.max(np.abs(f2)), 1e-300)
    ok = err_gr < 1e-10 and err_df < 1e-7  # central difference limits err_df
    return "classical identities g = -r^2 and dg/dp = 2f", ok, f"g+r^2 {err_gr:.2e}, dg-2f {err_df:.2e}"


def check_pole_slopes(spec: ModelSpec):
    south, north = meanfield.pole_slopes(spec)
    h = 1e-10
    ok = True
    detail = []
    for pole, expect in ((-0.5, south), (0.5, north)):
        num = abs(meanfield.radius(spec, pole + (h if pole < 0 else -h))) / h
        if expect == float("inf"):
            ok &= num > 1e3
        elif expect == 0.0:
            ok &= num < 1e-3
        else:
            num = abs(meanfield.radius(spec, pole + (1e-8 if pole < 0 else -1e-8))) / 1e-8
            ok &= abs(num - expect) < 1e-4
        detail.append(f"{num:.3g} vs {expect}")
    return "pole slope rules of the radius", bool(ok), "; ".join(detail)


def check_spectrum_bounds(spec: ModelSpec):
    fps = meanfield.find_fixed_points(spec)
    emin = min(fp.energy for fp in fps)
    emax = max(fp.energy for fp in fps)
    scaled = quantum.eigen_spectrum(spec).scaled_eigenvalues
    eta = spec.eta
    ok = scaled.min() >= emin - 3 * eta and scaled.max() <= emax + 3 * eta
    return (
        "scaled spectrum within classical band (3 eta slack)",
        bool(ok),
        f"[{scaled.min():.4f},{scaled.max():.4f}] vs [{emin:.4f},{emax:.4f}]",
    )


def check_nondegeneracy(spec: ModelSpec):
    raw = quantum.eigen_spectrum(spec).raw_eigenvalues
    gap = np.min(np.diff(raw)) if len(raw) > 1 else 1.0
    return "nondegenerate spectrum", bool(gap > 0), f"min gap {gap:.3e}"


def _capped(spec: ModelSpec) -> ModelSpec:
    """The spec itself, or the same model at dim 161 for the eigenvectors beyond dim 200."""
    if spec.dim > 200:
        return dataclasses.replace(spec, N=min(spec.N, 160 * spec.m * spec.n))
    return spec


def check_level_counts(spec: ModelSpec):
    """WKB levels below each fixed-point energy against the exact Sturm count.

    The counts must agree, or differ by one where the exact level that
    changes sides lies within a quarter of its local spacing (the
    central difference of its neighbours) of that energy.
    """
    energies = sorted({fp.energy for fp in meanfield.find_fixed_points(spec)})
    wkb = semiclassics.semiclassical_spectrum(spec).energies
    exact = quantum.level_counts(spec, energies)
    levels = None
    ok, off, worst = True, 0, 0.0
    for energy, count in zip(energies, exact):
        found = int(np.searchsorted(wkb, energy))
        if found == count:
            continue
        off += 1
        if levels is None:
            levels = quantum.eigen_spectrum(spec).scaled_eigenvalues
        k = min(found, int(count))
        lo, hi = max(k - 1, 0), min(k + 1, spec.dim - 1)
        near = levels[lo:hi + 1]
        gap = abs(near[k - lo] - energy) * (hi - lo) / (near[-1] - near[0])
        worst = max(worst, gap)
        ok &= abs(found - count) == 1 and gap <= 0.25
    detail = f"{off} of {len(energies)} off by one"
    if off:
        detail += f", the level that changes sides {worst:.3f} of a spacing away (tol 0.25)"
    return "WKB level counts at fixed-point energies", bool(ok), detail


def check_fixed_point_count(spec: ModelSpec):
    limit = min(spec.m + spec.n, 6)
    worst = 0
    for eps in np.linspace(-3, 3, 61):
        fps = meanfield.find_fixed_points(spec.with_eps(float(eps)))
        worst = max(worst, len(fps))
    return "fixed point count bound min(m+n, 6)", worst <= limit, f"max {worst} (limit {limit})"


def check_poincare_index(spec: ModelSpec):
    """Index sum is invariant across saddle-node events, steps at transcritical."""

    def index_sum(eps):
        total = 0
        for fp in meanfield.find_fixed_points(spec.with_eps(eps)):
            if fp.stability == "center":
                total += 1
            elif fp.stability == "saddle":
                total -= 1
        return total

    # events sharing one eps_c act together (both poles can bifurcate at once)
    groups = {}
    for ev in meanfield.classify_bifurcations(spec):
        key = round(ev.eps_critical, 9)
        groups.setdefault(key, []).append(ev)
    ok = True
    detail = []
    for eps_c, events in sorted(groups.items()):
        lo = index_sum(eps_c * 0.98)
        hi = index_sum(eps_c * 1.02)
        step = abs(hi - lo)
        want = sum(1 for ev in events if ev.kind == "transcritical")
        ok &= step == want
        detail.append(f"{eps_c:+.4f}: {lo}->{hi} (want step {want})")
    return "Poincare index across bifurcations", bool(ok), "; ".join(detail) or "no events"


def check_action_period(spec: ModelSpec):
    """dS/dE matches the orbit period away from saddle energies."""
    fps = meanfield.find_fixed_points(spec)
    energies = sorted(fp.energy for fp in fps)
    emin, emax = energies[0], energies[-1]
    # one energy a call: batched, some areas round differently in the last bits
    s_tot = lambda x: semiclassics._area_terms(spec, np.array([x])).total[0]
    worst = 0.0
    for frac in (0.31, 0.57, 0.83):
        e = emin + frac * (emax - emin)
        if any(abs(e - fp.energy) < 2e-3 * (emax - emin) for fp in fps):
            continue
        h = 1e-6 * (emax - emin)
        deriv = (s_tot(e + h) - s_tot(e - h)) / (2 * h)
        period = semiclassics.orbit_period(spec, e)
        worst = np.maximum(worst, abs(deriv - period) / period)  # NaN stays NaN
    return "action derivative equals orbit period", bool(worst < 1e-6), f"max rel {worst:.2e}"


def check_action_monotonic(spec: ModelSpec):
    fps = meanfield.find_fixed_points(spec)
    emin = min(fp.energy for fp in fps)
    emax = max(fp.energy for fp in fps)
    grid = emin + (emax - emin) * np.linspace(1e-4, 1.0 - 1e-4, 41)
    vals = semiclassics._area_terms(spec, grid).total  # NaN out of band
    vals = vals[~np.isnan(vals)]
    name = "total phase-space area increases across the band"
    if not len(vals):  # v = 0: no orbit
        return name, False, "no grid energy in the band"
    ok = np.all(np.diff(vals) > -1e-9) and vals[0] < vals[-1]
    return name, bool(ok), f"S spans [{vals.min():.4f}, {vals.max():.4f}] of 2pi={2 * pi:.4f}"


def check_eigen_residual(spec: ModelSpec):
    res = quantum.eigen_residual(_capped(spec))
    return "eigenpair residual spot check", res < 1e-10, f"max rel residual {res:.2e}"


def check_trajectory(spec: ModelSpec):
    start = meanfield.surface_point(spec, 0.1337, 0.71)
    rec = meanfield.integrate_trajectory(spec, start, 10.0, 1e-3)
    ok = rec.drift_h < 1e-10 and rec.drift_c < 1e-10
    return "trajectory conserves H and C (t=10)", bool(ok), f"dH {rec.drift_h:.2e}, dC {rec.drift_c:.2e}"


def check_classical_limit(spec: ModelSpec):
    """eta-scaled commutator diagonal converges to f with O(1/N) error."""
    errs = []
    ns = []
    base = spec.m * spec.n
    start = max(spec.N // base, 20)
    for mult in (start, 2 * start):
        s = dataclasses.replace(spec, N=mult * base)
        z = s.sz_value(np.arange(s.dim))
        errs.append(float(np.max(np.abs(s.eta * algebra.commutator_poly(s, z)
                                        - meanfield.classical_commutator(s, s.eta * z)))))
        ns.append(s.N)
    if max(errs) < 1e-14:  # undeformed algebra: the limit is exact
        return "classical limit error decays like 1/N", True, "exact at machine precision"
    rate = np.log(errs[0] / errs[1]) / np.log(ns[1] / ns[0])
    ok = 0.7 <= rate <= 1.3
    return "classical limit error decays like 1/N", bool(ok), f"rate {rate:.3f}, errs {errs[0]:.2e}->{errs[1]:.2e}"


ALL_CHECKS = (
    check_structure_symmetry,
    check_structure_degree,
    check_completion_identity,
    check_commutators,
    check_ladder_identity,
    check_classical_identities,
    check_pole_slopes,
    check_spectrum_bounds,
    check_nondegeneracy,
    check_level_counts,
    check_fixed_point_count,
    check_poincare_index,
    check_action_period,
    check_action_monotonic,
    check_eigen_residual,
    check_trajectory,
    check_classical_limit,
)


def run_all(spec: ModelSpec):
    """Run every invariant check at unit scale (ModelSpec.unit_scale), where
    the solvers run; returns a list of (name, ok, detail)."""
    spec = spec.unit_scale()[0]
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(spec))
        except Exception as exc:  # a crashed check is a failed check
            results.append((check.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return results
