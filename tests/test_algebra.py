import numpy as np
import pytest

from kummer import algebra
from kummer.model import ModelSpec


def dense_conversion_matrices(spec):
    """Brute-force complex matrices of sx, sy, sz from ladder weights."""
    from kummer.quantum import _ladder_weights

    dim = spec.dim
    up = np.zeros((dim, dim))
    for mu in range(dim - 1):
        up[mu + 1, mu] = np.sqrt(_ladder_weights(spec, mu + 1))
    down = up.T
    sx = 0.5 * (up + down)
    sy = (up - down) / 2j
    sz = np.diag([spec.sz_value(mu) for mu in range(dim)])
    return sx, sy, sz


class TestLadderProduct:
    def test_canonical_value_2_1(self):
        # verified against the matrix commutator oracle below
        spec = ModelSpec(2, 1, 4)
        assert algebra.ladder_product(spec, -1.0) == pytest.approx(1.0, abs=1e-14)

    def test_simple_case_1_1(self):
        spec = ModelSpec(1, 1, 2)
        # (1 + 0 + 1) * (1 - 0 - 1 + 1) = 2
        assert algebra.ladder_product(spec, 0.0) == pytest.approx(2.0, abs=0)

    def test_zero_factor_at_north_pole(self):
        spec = ModelSpec(2, 1, 4)
        assert algebra.ladder_product(spec, 1.0) == 0.0


class TestCommutatorPoly:
    def test_reduces_to_identity_for_1_1(self):
        spec = ModelSpec(1, 1, 12)
        for z in (-3.0, 0.25, 5.5):
            assert algebra.commutator_poly(spec, z) == pytest.approx(z, abs=1e-13)

    def test_matrix_commutator_oracle_2_1(self):
        spec = ModelSpec(2, 1, 4)
        sx, sy, sz = dense_conversion_matrices(spec)
        comm = (sx @ sy - sy @ sx) / 1j
        f_diag = np.array([algebra.commutator_poly(spec, z) for z in np.diag(sz)])
        assert np.allclose(comm, np.diag(f_diag), atol=1e-12)
        assert algebra.commutator_poly(spec, -1.0) == pytest.approx(-0.5, abs=1e-13)

    def test_mode_swap_antisymmetry(self):
        a = ModelSpec(2, 1, 8)
        b = ModelSpec(1, 2, 8)
        for z in (0.3, -1.7, 2.0):
            assert algebra.commutator_poly(a, z) == pytest.approx(
                -algebra.commutator_poly(b, -z), rel=1e-12
            )

    def test_odd_even_for_equal_modes(self):
        spec = ModelSpec(3, 3, 18)
        rng = np.random.RandomState(5)
        for z in rng.uniform(-2, 2, 20):
            f = algebra.commutator_poly(spec, z)
            g = algebra.casimir_poly(spec, z)
            scale = max(abs(f), abs(g), 1.0)
            assert abs(f + algebra.commutator_poly(spec, -z)) < 1e-12 * scale
            assert abs(g - algebra.casimir_poly(spec, -z)) < 1e-12 * scale


class TestCasimirPoly:
    def test_closed_form_1_1(self):
        # G(z) = z^2 - (N/2)^2 - N/2 for the undeformed algebra
        spec = ModelSpec(1, 1, 2)
        assert algebra.casimir_poly(spec, 1.0) == pytest.approx(-1.0, abs=1e-14)
        spec = ModelSpec(1, 1, 10)
        for z in (-2.0, 0.5, 4.0):
            want = z * z - 25.0 - 5.0
            assert algebra.casimir_poly(spec, z) == pytest.approx(want, rel=1e-14)

    def test_north_pole_value_via_ladder_product(self):
        spec = ModelSpec(2, 1, 4)
        want = -0.5 * (
            algebra.ladder_product(spec, 1.0) + algebra.ladder_product(spec, 0.0)
        )
        assert algebra.casimir_poly(spec, 1.0) == pytest.approx(want, abs=1e-14)

    def test_casimir_matrix_is_scalar(self):
        spec = ModelSpec(3, 2, 36, eps=0.3, v=0.7)
        sx, sy, sz = dense_conversion_matrices(spec)
        g_diag = np.diag([algebra.casimir_poly(spec, z) for z in np.diag(sz)])
        cas = sx @ sx + sy @ sy + g_diag
        off = cas - np.mean(np.diag(cas)) * np.eye(spec.dim)
        scale = np.max(np.abs(sx @ sx + sy @ sy))
        assert np.max(np.abs(off)) < 1e-12 * scale


def finite_difference_degree(fn, max_deg):
    vals = np.array([fn(0.5 * k) for k in range(max_deg + 3)])
    scale = np.max(np.abs(vals))
    for deg in range(max_deg + 2):
        if np.max(np.abs(np.diff(vals, deg + 1))) < 1e-8 * scale:
            return deg
    return max_deg + 2


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_structure_polynomial_degrees(m, n):
    spec = ModelSpec(m, n, 6 * m * n)
    assert finite_difference_degree(lambda z: algebra.commutator_poly(spec, z), m + n) == m + n - 1
    assert finite_difference_degree(lambda z: algebra.casimir_poly(spec, z), m + n + 1) == m + n


@pytest.mark.parametrize("m,n,N,eps", [
    (3, 3, 1800, 0.08), (3, 3, 7200, 0.08), (2, 2, 1600, 0.6), (4, 4, 3200, 0.1), (1, 4, 4000, 0.3),
    # a difference of order k sums 2^k rounded values: a fixed threshold
    # read deg F = 28 at m = n = 13
    (12, 12, 1440, 0.0), (13, 13, 1690, 0.0), (10, 15, 1500, 0.0),
])
def test_verify_structure_degree_at_large_n(m, n, N, eps, monkeypatch):
    from kummer import verify

    spec = ModelSpec(m, n, N, eps=eps)
    _, ok, detail = verify.check_structure_degree(spec)
    assert ok, detail

    def one_factor_short(spec, z):
        # ladder_product without its first n-factor: F and G one degree lower
        val = 1.0
        for mu in range(1, m + 1):
            val *= spec.z_max + z + mu / m
        for nu in range(2, n + 1):
            val *= spec.z_max - z - 1.0 + nu / n
        return val

    monkeypatch.setattr(algebra, "ladder_product", one_factor_short)
    _, ok, detail = verify.check_structure_degree(spec)
    assert not ok
    assert f"deg F={m + n - 2} " in detail and f"deg G={m + n - 1} " in detail


def test_array_values_are_the_scalar_values():
    # quantum and verify evaluate the structure polynomials on whole arrays
    rng = np.random.RandomState(5)
    for m in range(1, 6):
        for n in range(1, 6):
            for N in (m * n, 40 * m * n, 8000 * m * n):
                spec = ModelSpec(m, n, N)
                z = np.concatenate((spec.sz_value(np.arange(min(spec.dim, 101))),
                                    rng.uniform(-spec.z_max - 1.0, spec.z_max + 1.0, 64)))
                for poly in (algebra.ladder_product, algebra.commutator_poly, algebra.casimir_poly):
                    scalar = np.array([poly(spec, float(zi)) for zi in z])
                    assert np.array_equal(poly(spec, z), scalar), (m, n, N, poly.__name__)


class TestCasimirCompletion:
    def test_su2_case(self):
        # linear deformation: phi(z) = z + z^2
        phi = algebra.casimir_completion([0, 1])
        assert np.allclose(phi, [0.0, 1.0, 1.0], atol=0)

    def test_cubic_closed_form(self):
        a0, a1, a2, a3 = 1.0, 2.0, 3.0, 4.0
        phi = algebra.casimir_completion([a0, a1, a2, a3])
        want = [
            0.0,
            2 * a0 + a1 + a2 / 3,
            a1 + a2 + a3 / 2,
            2 * a2 / 3 + a3,
            a3 / 2,
        ]
        assert np.allclose(phi, want, atol=1e-15)

    def test_zero_polynomial(self):
        assert np.allclose(algebra.casimir_completion([0, 0, 0, 0]), 0.0, atol=0)

    def test_constant_term_always_zero(self):
        rng = np.random.RandomState(2)
        for _ in range(10):
            alpha = rng.uniform(-3, 3, rng.randint(1, 9))
            assert algebra.casimir_completion(alpha)[0] == 0.0

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            algebra.casimir_completion([])
        with pytest.raises(ValueError):
            algebra.casimir_completion(np.ones(10))


class TestCompletionResidual:
    def test_exact_for_su2(self):
        assert algebra.completion_residual([0, 1], [-1.0, 0.0, 2.0]) == 0.0

    def test_polynomial_identity_k3(self):
        grid = np.linspace(-10, 10, 41)
        assert algebra.completion_residual([1, 2, 3, 4], grid) < 1e-12

    def test_polynomial_identity_quadratic(self):
        assert algebra.completion_residual([0, 0, 1], [5.0]) < 1e-12

    def test_higher_orders_up_to_8(self):
        rng = np.random.RandomState(9)
        grid = np.linspace(-10, 10, 21)
        for k in range(4, 9):
            alpha = rng.uniform(-1, 1, k + 1)
            assert algebra.completion_residual(alpha, grid) < 1e-10


class TestBosonPowerCommutator:
    def test_canonical(self):
        for j in (0, 1, 5, 40):
            assert algebra.boson_power_commutator(1, j) == 1

    def test_square_at_vacuum(self):
        assert algebra.boson_power_commutator(2, 0) == 2

    @pytest.mark.parametrize("power,occupancy", [(2, 0), (2, 3), (3, 10), (4, 6)])
    def test_truncated_matrix_oracle(self, power, occupancy):
        size = occupancy + power + 1
        a = np.diag(np.sqrt(np.arange(1, size)), k=1)
        am = np.linalg.matrix_power(a, power)
        comm = am @ am.T - am.T @ am
        assert comm[occupancy, occupancy] == pytest.approx(
            algebra.boson_power_commutator(power, occupancy), rel=1e-12
        )

    def test_leading_asymptotics(self):
        # leading term power^2 * occupancy^(power - 1)
        for power in (2, 3, 4):
            j = 10**6
            lead = power * power * j ** (power - 1)
            assert abs(algebra.boson_power_commutator(power, j) - lead) < 0.01 * lead

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            algebra.boson_power_commutator(0, 3)
        with pytest.raises(ValueError):
            algebra.boson_power_commutator(2, -1)


def test_bernoulli_numbers_start():
    from fractions import Fraction

    b = algebra.bernoulli_numbers(6)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
