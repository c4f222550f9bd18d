"""Model parameters for the n:m two-mode conversion system."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import frexp, isfinite, ldexp


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a conversion system: m particles of mode A convert
    into n particles of mode B, with conserved total number N.

    The Hamiltonian is H = eps*sz + v*sx on the N-particle subspace.
    The subspace dimension is N/(m*n) + 1 and the classical limit is
    controlled by the small parameter eta = 1/(N/(m*n) + 1).
    """

    m: int
    n: int
    N: int
    eps: float = 0.0
    v: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be a positive integer")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (isinstance(self.N, int) and self.N >= self.m * self.n):
            raise ValueError("N must be an integer with N >= m*n")
        if self.N % (self.m * self.n) != 0:
            raise ValueError("N must be a multiple of m*n")
        for name in ("eps", "v"):
            value = float(getattr(self, name))
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        """Dimension of the conserved-N subspace, N/(m*n) + 1."""
        return self.N // (self.m * self.n) + 1

    @property
    def eta(self) -> float:
        """Small parameter of the classical limit, 1/(N/(m*n) + 1)."""
        return 1.0 / self.dim

    @property
    def z_max(self) -> float:
        """Largest eigenvalue N/(2*m*n) of the imbalance operator sz."""
        return self.N / (2.0 * self.m * self.n)

    def sz_value(self, mu: int) -> float:
        """Eigenvalue mu - N/(2*m*n) of sz on basis state mu."""
        return mu - self.z_max

    def unit_scale(self) -> "tuple[ModelSpec, float]":
        """This spec at (eps/s, v/s), and s: the power of two with max(|eps|, |v|)
        in [s, 2s), or 1 where both vanish.  H is linear in (eps, v), so energies
        and rates are s times those at the unit spec, and periods 1/s times;
        dividing by s is exact outside the subnormal range."""
        s = ldexp(1.0, frexp(max(abs(self.eps), abs(self.v)) or 1.0)[1] - 1)
        if s == 1.0:
            return self, s
        return ModelSpec(self.m, self.n, self.N, self.eps / s, self.v / s), s

    def with_eps(self, eps: float) -> "ModelSpec":
        return dataclasses.replace(self, eps=float(eps))

    def mirrored(self) -> "ModelSpec":
        """Swap the two modes; energies of the swapped system are the
        negated energies of the original."""
        return dataclasses.replace(self, m=self.n, n=self.m)
