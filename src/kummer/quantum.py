"""The Hamiltonian chain on the conserved-N subspace and its spectra.

In the Fock basis |mu> = |mu*m, N/m - mu*n>, mu = 0..N/(m*n), the
Hamiltonian H = eps*sz + v*sx is a real symmetric tridiagonal chain:
eps*z on the diagonal, z = mu - z_max, and (v/2)*sqrt(beta_mu) on the
off-diagonal, where beta_mu are the ladder weights of the polynomially
deformed su(2) algebra.  sx and sy share the off-diagonal magnitudes
sqrt(beta_mu)/2 and sy is never materialised as a complex matrix, which
keeps the whole module in real arithmetic.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dsterf

from . import meanfield
from .model import ModelSpec


def _ladder_weights(spec: ModelSpec, mu):
    """Squared hopping weights beta_mu for an int or an integer array mu.

    Product of the m factors mu*m, mu*m-1, ... and the n factors
    N/m - mu*n + n, ..., N/m - mu*n + 1, with the 1/N^(m+n-2) scaling
    interleaved factor by factor so intermediate values stay bounded for
    large N.  It vanishes at both chain ends, mu = 0 and mu = dim.
    """
    m, n = spec.m, spec.n
    scale = float(spec.N) ** ((m + n - 2) / (m + n))
    val = 1.0
    for i in range(m):
        val = val * ((mu * m - i) / scale)
    base = spec.N // m - mu * n
    for i in range(n):
        val = val * ((base + n - i) / scale)
    return val


@lru_cache(maxsize=8)
def _chain_parts(m: int, n: int, N: int):
    """z = mu - z_max and sqrt(beta_mu) of the (m, n, N) chain, read-only.

    Neither depends on eps or v, so each is built once per (m, n, N) and
    shared by every _chain call at that shape.
    """
    spec = ModelSpec(m, n, N)
    z = np.arange(spec.dim) - spec.z_max  # spec.sz_value(mu) for every mu
    sqrt_beta = np.sqrt(_ladder_weights(spec, np.arange(1, spec.dim)))
    z.setflags(write=False)
    sqrt_beta.setflags(write=False)
    return z, sqrt_beta


def _chain(spec: ModelSpec):
    """Diagonal eps*z and off-diagonal (v/2)*sqrt(beta_mu) of H = eps*sz + v*sx.

    z and sqrt(beta_mu) are built once per (m, n, N) by _chain_parts; each
    call only scales them, into two new arrays.
    """
    z, sqrt_beta = _chain_parts(spec.m, spec.n, spec.N)
    return spec.eps * z, (spec.v / 2.0) * sqrt_beta


@dataclass(frozen=True)
class SpectrumResult:
    spec: ModelSpec
    raw_eigenvalues: np.ndarray

    @property
    def scaled_eigenvalues(self) -> np.ndarray:
        return self.spec.eta * self.raw_eigenvalues


def eigen_spectrum(spec: ModelSpec) -> SpectrumResult:
    """All eigenvalues of H, sorted ascending, plus the eta-scaled copy.

    Calls LAPACK dsterf (implicit-shift QL/QR for symmetric tridiagonal
    matrices, eigenvalues only, O(dim^2), no dense workspace) on the chain
    directly, which skips eigvalsh_tridiagonal's argument checks; the chain's
    parts are built once per (m, n, N).  A non-finite chain is a ValueError,
    and a nonzero info from dsterf a LinAlgError.
    """
    d, e = _chain(spec)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("the Hamiltonian chain must not contain infs or NaNs")
    raw, info = dsterf(d, e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise LinAlgError(f"LAPACK dsterf returned info = {info}")
    return SpectrumResult(spec, np.sort(raw))


def eigen_residual(spec: ModelSpec) -> float:
    """Max relative residual ||H x - lambda x|| / ||H|| over all pairs.

    Recomputes eigenvectors with the divide-and-conquer tridiagonal
    solver; intended as a spot check for moderate dimensions.
    """
    d, e = _chain(spec)
    w, vecs = eigh_tridiagonal(d, e)
    hv = d[:, None] * vecs
    hv[:-1] += e[:, None] * vecs[1:]
    hv[1:] += e[:, None] * vecs[:-1]
    res = np.linalg.norm(hv - vecs * w[None, :], axis=0)
    norm_h = max(np.max(np.abs(w)), 1e-300)
    return float(np.max(res) / norm_h)


_COUNT_BLOCK = 1 << 15  # pivots per block of level_counts: 256 kB


def level_counts(spec: ModelSpec, energies) -> np.ndarray:
    """Number of levels strictly below each scaled energy, without an eigensolve.

    Sylvester inertia of H - x: the LDL^T pivots q_0 = d_0 - x and
    q_i = (d_i - x) - e_{i-1}^2 / q_{i-1} have as many negatives as H has
    eigenvalues below x (Barth, Martin & Wilkinson 1967; LAPACK dstebz).
    A pivot strictly inside (-pivmin, pivmin) (dstebz's guard) is set to
    +pivmin, so a level that x hits exactly counts as not below it.

    The rows run in blocks of about _COUNT_BLOCK pivots, all energies
    at once, as LAPACK dlaneg does (Marques, Riedy & Voemel, SIAM J. Sci.
    Comput. 28, 2006): each row costs two numpy calls without the guard,
    and the block is checked afterwards.  At the first row with a pivot
    inside the guard, those pivots are set to +pivmin and the rows after
    it rerun from d - x, so every pivot is the guarded recurrence's to
    the bit.  After a restart the loop checks after 1, 2, 4, ... rows,
    which keeps a chain of zero pivots (v = eps = 0) linear in dim.  It
    runs at unit scale (ModelSpec.unit_scale), at the energies over s.
    """
    unit, s = spec.unit_scale()
    d, e = _chain(unit)
    x = np.asarray(energies, dtype=float) / (s * spec.eta)
    flat = x.ravel()
    e2 = e ** 2
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
    e2_prev = [0.0] + e2.tolist()  # with e_{-1} = 0 the first pivot is d_0 - x
    height = max(1, _COUNT_BLOCK // max(flat.size, 1))
    prev = np.full_like(flat, np.inf)
    tmp = np.empty_like(flat)
    above = np.zeros(flat.shape, dtype=np.intp)
    for start in range(0, spec.dim, height):
        q = np.subtract.outer(d[start:start + height], flat)
        rows = list(q)
        i, span = 0, len(q)
        while i < len(q):
            stop = min(i + span, len(q))
            # call overhead dominates, so out arguments are positional; a
            # pivot inside the guard leaves inf or nan behind it, redone below
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for e2_k, row in zip(e2_prev[start + i:start + stop], rows[i:stop]):
                    np.divide(e2_k, prev, tmp)
                    np.subtract(row, tmp, row)
                    prev = row
            tiny = np.abs(q[i:stop]) < pivmin
            hit = np.flatnonzero(tiny.any(axis=1))
            if hit.size == 0:
                i, span = stop, 2 * span
                continue
            r = i + hit[0]
            rows[r][tiny[hit[0]]] = pivmin
            np.subtract.outer(d[start + r + 1:start + stop], flat, out=q[r + 1:stop])
            prev = rows[r]
            i, span = r + 1, 1
        above += np.count_nonzero(q > -pivmin, axis=0)
        prev = rows[-1].copy()
    return spec.dim - above.reshape(x.shape)


@dataclass(frozen=True)
class DosHistogram:
    bin_edges: np.ndarray
    density: np.ndarray


def dos_histogram(spec: ModelSpec, bins: int) -> DosHistogram:
    """Probability-density histogram of the scaled levels, from level counts.

    Follows np.histogram on the eigenvalues: equal bins from the lowest
    to the highest level (widened by 0.5 either way when they coincide),
    each bin half-open but the last closed, density = counts / width /
    dim.  Only the two band extremes are solved for, by bisection; the
    counts come from level_counts, so a level within rounding of an edge
    may land in either neighbouring bin.  Density normalisation makes the
    histogram directly comparable to T(E)/(2*pi), whose integral over the
    band is also one.  It is built at unit scale (ModelSpec.unit_scale),
    and the edges scaled back.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    spec, s = spec.unit_scale()
    d, e = _chain(spec)
    lo, hi = (spec.eta * eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0]
              for i in (0, spec.dim - 1))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.diff(np.concatenate(([0], level_counts(spec, edges[1:-1]), [spec.dim])))
    return DosHistogram(s * edges, counts / np.diff(edges) / spec.dim / s)


@dataclass(frozen=True)
class SweepTable:
    spec: ModelSpec
    eps_values: np.ndarray
    scaled_levels: list
    fixed_point_energies: list
    fixed_point_kinds: list


def _sweep_point(args):
    spec, eps = args
    point = spec.with_eps(eps)
    result = eigen_spectrum(point)
    fps = meanfield.find_fixed_points(point)
    return (
        result.scaled_eigenvalues,
        np.array([fp.energy for fp in fps]),
        [fp.stability for fp in fps],
    )


def sweep_epsilon(spec: ModelSpec, eps_grid, jobs: int = 1) -> SweepTable:
    """Spectra plus classical fixed-point energies over a grid of eps."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise ValueError("eps grid must be nonempty")
    work = [(spec, e) for e in eps_grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, work))
    else:
        rows = [_sweep_point(w) for w in work]
    return SweepTable(spec, eps_grid, *(list(column) for column in zip(*rows)))


def commutator_residuals(spec: ModelSpec) -> dict:
    """Relative residuals of the algebra identities as matrix equations.

    Checks [sz, sx] = i*sy, [sy, sz] = i*sx, [sx, sy] = i*F(sz) and the
    scalarity of sx^2 + sy^2 + G(sz), all through the real ladder
    decomposition.
    """
    from . import algebra

    dim = spec.dim
    beta = _ladder_weights(spec, np.arange(dim + 1))  # mu = 0..dim, zero at both ends
    z = np.arange(dim) - spec.z_max
    a = 0.5 * np.sqrt(beta[1:dim])  # off-diagonal magnitudes of both sx and sy

    # superdiagonals (sx = a, sy = +i*a there): [sz, sx] = -step*a vs
    # i*sy = -a, [sy, sz] = i*step*a vs i*sx = i*a; subdiagonals mirror them
    res_zx = res_yz = 0.0
    if dim > 1:
        step, scale_off = z[1:] - z[:-1], max(np.max(a), 1e-300)
        res_zx = np.max(np.abs(a - step * a)) / scale_off
        res_yz = np.max(np.abs(step * a - a)) / scale_off

    f_diag = algebra.commutator_poly(spec, z)
    lhs = 0.5 * (beta[:dim] - beta[1 : dim + 1])
    res_xy = np.max(np.abs(lhs - f_diag)) / max(np.max(np.abs(f_diag)), 1e-300)

    g_diag = algebra.casimir_poly(spec, z)
    cas = 0.5 * (beta[:dim] + beta[1 : dim + 1]) + g_diag
    scale_cas = max(np.max(0.5 * (beta[:dim] + beta[1 : dim + 1])), 1e-300)
    res_cas = np.max(np.abs(cas - np.mean(cas))) / scale_cas

    return {
        "sz_sx": float(res_zx),
        "sy_sz": float(res_yz),
        "sx_sy": float(res_xy),
        "casimir": float(res_cas),
        "casimir_value": float(np.mean(cas)),
    }
