"""Structure polynomials of the polynomially deformed su(2) algebra.

The conversion operators sx, sy, sz close into a deformed algebra
[sx, sy] = i*F(sz) with a Casimir C = sx^2 + sy^2 + G(sz).  Both F and
G derive from differences/sums of a single product of m+n linear
factors, evaluated here as running products for numerical stability.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .model import ModelSpec


def ladder_product(spec: ModelSpec, z):
    """Auxiliary product of m+n linear factors in z.

    Its weighted difference across z -> z-1 gives the commutator
    polynomial and its weighted sum the Casimir polynomial.  Defined for
    every real z, and elementwise on an array z, bit for bit as on each
    scalar; evaluated factor by factor, never expanded.
    """
    m, n = spec.m, spec.n
    zc = spec.z_max
    val = 1.0
    for mu in range(1, m + 1):
        val *= zc + z + mu / m
    for nu in range(1, n + 1):
        val *= zc - z - 1.0 + nu / n
    return val


def _prefactor(spec: ModelSpec) -> float:
    """-n^n m^m / (2 N^(m+n-2)); ValueError where it is not a finite normal double."""
    m, n, N = spec.m, spec.n, spec.N
    try:
        out = -(float(n) ** n * float(m) ** m) / (2.0 * float(N) ** (m + n - 2))
    except OverflowError:  # m = n = 83: N^(m+n-2) overflows, and the quotient underflows
        out = 0.0
    if not np.finfo(float).tiny <= abs(out) < np.inf:
        raise ValueError(f"the prefactor n^n m^m / (2 N^(m+n-2)) is not a finite normal "
                         f"double at m = {m}, n = {n}, N = {N}")
    return out


def commutator_poly(spec: ModelSpec, z):
    """Polynomial F with [sx, sy] = i*F(sz); degree m+n-1.

    Reduces to F(z) = z for (m, n) = (1, 1).  Elementwise as ladder_product.
    """
    return _prefactor(spec) * (ladder_product(spec, z) - ladder_product(spec, z - 1.0))


def casimir_poly(spec: ModelSpec, z):
    """Polynomial G with sx^2 + sy^2 + G(sz) scalar; degree m+n; elementwise as ladder_product."""
    return _prefactor(spec) * (ladder_product(spec, z) + ladder_product(spec, z - 1.0))


@lru_cache(maxsize=None)
def bernoulli_numbers(order: int) -> tuple:
    """Bernoulli numbers B_0..B_order as exact fractions (B_1 = -1/2)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    b = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += comb(k + 1, j) * b[j]
        b.append(-acc / (k + 1))
    return tuple(b)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(degree: int) -> tuple:
    """Ascending exact coefficients of the Bernoulli polynomial B_degree(x)."""
    b = bernoulli_numbers(degree)
    return tuple(comb(degree, k) * b[degree - k] for k in range(degree + 1))


MAX_COMPLETION_ORDER = 8


def casimir_completion(alpha) -> np.ndarray:
    """Coefficients of the polynomial phi completing the Casimir operator.

    For a deformed algebra with [J+, J-] = 2*F(J0), F(J0) = sum alpha_j J0^j,
    the Casimir is J-J+ + phi(J0) where phi has degree k+1, phi(0) = 0 and
    F(z) = (phi(z) - phi(z-1))/2.  Built from Bernoulli polynomials with
    exact rational arithmetic, converted to float once.

    Returns ascending coefficients, length k+2.
    """
    alpha = list(alpha)
    if not alpha:
        raise ValueError("alpha must contain at least one coefficient")
    k = len(alpha) - 1
    if k > MAX_COMPLETION_ORDER:
        raise ValueError(f"supported deformation order is k <= {MAX_COMPLETION_ORDER}")
    return np.array([float(c) for c in _completion_exact(alpha)])


def _completion_exact(alpha):
    """Exact rational coefficients of phi."""
    k = len(alpha) - 1
    coeffs = [Fraction(0)] * (k + 2)
    for j, a in enumerate(alpha):
        if a == 0:
            continue
        # 2*(-1)^(j+1)/(j+1) * (B_{j+1}(-z) - B_{j+1})
        w = Fraction(2 * (-1) ** (j + 1), j + 1)
        bp = bernoulli_poly_coeffs(j + 1)
        for power in range(1, j + 2):
            coeffs[power] += Fraction(a) * w * bp[power] * (-1) ** power
    return coeffs


def completion_residual(alpha, samples) -> float:
    """Max residual of F(z) = (phi(z) - phi(z-1))/2 over the samples.

    The half-difference is expanded coefficientwise in exact rational
    arithmetic first; naive evaluation at |z| ~ 10 would cancel to the
    last few ulps and drown the identity being checked.
    """
    alpha = list(alpha)
    if not alpha:
        raise ValueError("alpha must contain at least one coefficient")
    phi = _completion_exact(alpha)
    # delta(z) = (phi(z) - phi(z-1))/2 - F(z), exactly
    delta = [Fraction(0)] * len(phi)
    for j, c in enumerate(phi):
        if c == 0:
            continue
        delta[j] += Fraction(1, 2) * c
        for i in range(j + 1):  # (z-1)^j expanded
            delta[i] -= Fraction(1, 2) * c * comb(j, i) * (-1) ** (j - i)
    for j, a in enumerate(alpha):
        delta[j] -= Fraction(a)
    values = np.polynomial.polynomial.polyval(np.asarray(samples), [float(c) for c in delta])
    return float(np.max(np.abs(values), initial=0.0))


def boson_power_commutator(power: int, occupancy: int) -> int:
    """Value of the commutator [a^power, adag^power] on a number state.

    Equals the difference of two rising products in the occupancy; the
    leading behaviour is power^2 * occupancy^(power-1).
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    if occupancy < 0:
        raise ValueError("occupancy must be >= 0")
    up = 1
    down = 1
    for mu in range(1, power + 1):
        up *= occupancy + mu
        down *= occupancy + 1 - mu
    return up - down
