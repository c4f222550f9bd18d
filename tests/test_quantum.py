import numpy as np
import pytest

from kummer import quantum
from kummer.model import ModelSpec


class TestLadderStrength:
    def test_angular_momentum_case(self):
        spec = ModelSpec(1, 1, 2)
        assert quantum.ladder_strength(spec, 1) == pytest.approx(2.0, abs=0)
        spec = ModelSpec(1, 1, 12)
        for mu in range(1, 13):
            assert quantum.ladder_strength(spec, mu) == pytest.approx(
                mu * (12 - mu + 1), rel=1e-14
            )

    def test_conversion_case_2_1(self):
        spec = ModelSpec(2, 1, 4)
        assert quantum.ladder_strength(spec, 1) == pytest.approx(1.0, rel=1e-14)
        assert quantum.ladder_strength(spec, 2) == pytest.approx(3.0, rel=1e-14)

    def test_chain_ends_are_zero(self):
        spec = ModelSpec(3, 2, 36)
        top = spec.N // 6
        assert quantum.ladder_strength(spec, 0) == 0.0
        assert quantum.ladder_strength(spec, top + 1) == 0.0
        for mu in range(1, top + 1):
            assert quantum.ladder_strength(spec, mu) > 0.0

    def test_out_of_range_rejected(self):
        spec = ModelSpec(2, 1, 8)
        with pytest.raises(ValueError):
            quantum.ladder_strength(spec, -1)
        with pytest.raises(ValueError):
            quantum.ladder_strength(spec, 6)

    def test_large_N_stays_finite(self):
        spec = ModelSpec(3, 3, 72000)
        vals = [quantum.ladder_strength(spec, mu) for mu in (1, 4000, 8000)]
        assert all(np.isfinite(v) and v > 0 for v in vals)


class TestBuildOperators:
    def test_sz_diagonal_2_1(self):
        ops = quantum.build_operators(ModelSpec(2, 1, 4))
        assert np.allclose(ops.sz.diag, [-1.0, 0.0, 1.0], atol=0)
        assert np.all(ops.sz.offdiag == 0.0)

    def test_three_level_tunneling_spectrum(self):
        spec = ModelSpec(1, 1, 2, eps=0.0, v=1.0)
        ops = quantum.build_operators(spec)
        assert np.allclose(ops.h.offdiag, np.sqrt(2) / 2, atol=1e-15)
        levels = quantum.eigen_spectrum(spec).raw_eigenvalues
        assert np.allclose(levels, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_hamiltonian_combines_sz_and_sx(self):
        spec = ModelSpec(2, 2, 16, eps=0.3, v=1.7)
        ops = quantum.build_operators(spec)
        assert np.allclose(ops.h.diag, 0.3 * ops.sz.diag, atol=0)
        assert np.allclose(ops.h.offdiag, 1.7 * ops.sx.offdiag, atol=0)

    @pytest.mark.parametrize("m,n,N", [(1, 1, 30), (2, 1, 40), (3, 2, 60), (4, 3, 120)])
    def test_commutator_identities(self, m, n, N):
        res = quantum.commutator_residuals(ModelSpec(m, n, N))
        assert res["sz_sx"] < 1e-10
        assert res["sy_sz"] < 1e-10
        assert res["sx_sy"] < 1e-10
        assert res["casimir"] < 1e-9


class TestEigenSpectrum:
    def test_su2_rotation_oracle(self):
        spec = ModelSpec(1, 1, 40, eps=0.7, v=1.3)
        omega = np.hypot(0.7, 1.3)
        want = omega * (np.arange(41) - 20)
        got = quantum.eigen_spectrum(spec).raw_eigenvalues
        assert np.max(np.abs(got - want)) < 1e-10

    def test_scaled_extremes_approach_classical(self):
        # +-sqrt(eps^2+v^2)/2 in the large-N limit
        eps, v = 0.4, 0.9
        bound = 0.5 * np.hypot(eps, v)
        for N in (200, 800):
            scaled = quantum.eigen_spectrum(ModelSpec(1, 1, N, eps, v)).scaled_eigenvalues
            assert abs(scaled[-1]) < bound
            assert bound - scaled[-1] < 2.0 / N * bound * 3
        assert quantum.eigen_spectrum(ModelSpec(1, 1, 800, eps, v)).scaled_eigenvalues[-1] == pytest.approx(bound, abs=3e-3)

    def test_strictly_increasing(self):
        raw = quantum.eigen_spectrum(ModelSpec(3, 2, 120, eps=0.2, v=1.0)).raw_eigenvalues
        assert np.all(np.diff(raw) > 0)

    def test_residual_spot_check(self):
        assert quantum.eigen_residual(ModelSpec(2, 1, 160, eps=0.5, v=1.0)) < 1e-10

    def test_dim_one_edge_case(self):
        res = quantum.eigen_spectrum(ModelSpec(2, 2, 4, eps=0.4, v=1.0))
        assert len(res.raw_eigenvalues) == 2


class TestDosHistogram:
    def test_uniform_synthetic(self):
        spec = ModelSpec(1, 1, 10)
        vals = (np.arange(1000) + 0.5) / 1000.0
        res = quantum.SpectrumResult(spec, vals / spec.eta, vals)
        hist = quantum.dos_histogram(res, 10, value_range=(0.0, 1.0))
        assert np.allclose(hist.density, 1.0, atol=1e-12)

    def test_density_normalisation(self):
        res = quantum.eigen_spectrum(ModelSpec(2, 1, 400, eps=0.5, v=1.0))
        hist = quantum.dos_histogram(res, 37)
        widths = np.diff(hist.bin_edges)
        assert np.sum(hist.density * widths) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        res = quantum.eigen_spectrum(ModelSpec(2, 1, 8))
        with pytest.raises(ValueError):
            quantum.dos_histogram(res, 1)
        empty = quantum.SpectrumResult(ModelSpec(1, 1, 2), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            quantum.dos_histogram(empty, 4)


class TestSweep:
    def test_single_point_grid(self):
        table = quantum.sweep_epsilon(ModelSpec(2, 1, 20), [0.5])
        assert len(table.eps_values) == 1
        assert len(table.scaled_levels) == 1
        assert len(table.scaled_levels[0]) == 11

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            quantum.sweep_epsilon(ModelSpec(2, 1, 20), [])

    def test_parallel_matches_serial(self):
        spec = ModelSpec(2, 2, 40)
        grid = np.linspace(-1, 1, 5)
        serial = quantum.sweep_epsilon(spec, grid, jobs=1)
        parallel = quantum.sweep_epsilon(spec, grid, jobs=2)
        for a, b in zip(serial.scaled_levels, parallel.scaled_levels):
            assert np.array_equal(a, b)

    def test_levels_bounded_by_fixed_point_energies(self):
        spec = ModelSpec(2, 1, 80)
        table = quantum.sweep_epsilon(spec, np.linspace(-2, 2, 9))
        eta = spec.eta
        for levels, fp_energies in zip(table.scaled_levels, table.fixed_point_energies):
            assert levels.min() >= fp_energies.min() - 3 * eta
            assert levels.max() <= fp_energies.max() + 3 * eta


def test_casimir_scalar_value_is_zero():
    # in this bosonic representation the scalar is exactly zero
    for spec in (ModelSpec(2, 1, 60), ModelSpec(3, 3, 90), ModelSpec(4, 1, 80)):
        res = quantum.commutator_residuals(spec)
        beta_scale = max(
            quantum.ladder_strength(spec, mu) for mu in range(1, spec.dim)
        )
        assert abs(res["casimir_value"]) < 1e-9 * beta_scale


def _dense(op):
    """Dense matrix of a TridiagonalOperator in its documented convention."""
    mat = np.diag(op.diag).astype(complex)
    if op.kind == "sy":  # -i*a below the diagonal, +i*a above
        mat += np.diag(-1j * op.offdiag, -1) + np.diag(1j * op.offdiag, 1)
    else:
        mat += np.diag(op.offdiag, -1) + np.diag(op.offdiag, 1)
    return mat


@pytest.mark.parametrize("m,n,dim", [(m, n, d) for m in range(1, 4) for n in range(1, 4)
                                     for d in (2, 11, 30)])
def test_commutator_residuals_match_dense(m, n, dim):
    from kummer import algebra

    spec = ModelSpec(m, n, (dim - 1) * m * n)
    ops = quantum.build_operators(spec)
    sx, sy, sz = _dense(ops.sx), _dense(ops.sy), _dense(ops.sz)
    z = ops.sz.diag
    big_f = np.diag([algebra.commutator_poly(spec, zi) for zi in z])
    big_g = np.diag([algebra.casimir_poly(spec, zi) for zi in z])

    def comm(a, b):
        return a @ b - b @ a

    scale_off = np.max(ops.sx.offdiag)
    squares = (sx @ sx + sy @ sy).real
    cas = squares + big_g
    want = {
        "sz_sx": np.max(np.abs(comm(sz, sx) - 1j * sy)) / scale_off,
        "sy_sz": np.max(np.abs(comm(sy, sz) - 1j * sx)) / scale_off,
        "sx_sy": np.max(np.abs(comm(sx, sy) - 1j * big_f)) / np.max(np.abs(big_f)),
        "casimir": np.max(np.abs(cas - np.mean(np.diag(cas)) * np.eye(dim)))
        / np.max(np.diag(squares)),
    }
    res = quantum.commutator_residuals(spec)
    for key, value in want.items():
        assert value < 1e-12, key
        assert res[key] == pytest.approx(value, abs=1e-12), key
    assert res["casimir_value"] == pytest.approx(np.mean(np.diag(cas)),
                                                 abs=1e-12 * np.max(np.diag(squares)))
    # the opposite sign convention for sy breaks both sy identities
    flipped = sy.conj()
    assert np.max(np.abs(comm(sz, sx) - 1j * flipped)) / scale_off > 1.0
    assert np.max(np.abs(comm(flipped, sz) - 1j * sx)) / scale_off > 1.0


@pytest.mark.parametrize("m,n,N", [(1, 1, 2), (2, 1, 40), (1, 3, 300), (3, 2, 6000),
                                   (4, 3, 120), (4, 4, 16 * 999), (2, 1, 80000)])
def test_ladder_weights_bit_identical_to_scalar_loop(m, n, N):
    spec = ModelSpec(m, n, N)
    loop = np.array([quantum.ladder_strength(spec, mu) for mu in range(1, spec.dim)])
    assert np.array_equal(quantum._ladder_weights(spec), loop)
    ops = quantum.build_operators(spec)
    assert np.array_equal(ops.sx.offdiag, 0.5 * np.sqrt(loop))
    assert np.array_equal(ops.sz.diag, np.array([spec.sz_value(mu) for mu in range(spec.dim)]))
