import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

from kummer import meanfield, quantum, serialize
from kummer.cli import main
from kummer.model import ModelSpec


def reference_chain(spec: ModelSpec):
    """_chain as it was before its parts were cached: both arrays built afresh."""
    z = np.arange(spec.dim) - spec.z_max
    sqrt_beta = np.sqrt(quantum._ladder_weights(spec, np.arange(1, spec.dim)))
    return spec.eps * z, (spec.v / 2.0) * sqrt_beta


def reference_spectrum(spec: ModelSpec) -> np.ndarray:
    """eigen_spectrum's raw levels as scipy's checked wrapper gives them."""
    return np.sort(eigvalsh_tridiagonal(*reference_chain(spec), lapack_driver="sterf"))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_counts(spec: ModelSpec, energies) -> np.ndarray:
    """level_counts as one guarded row at a time over the whole chain.

    The oracle that the blocked recurrence of level_counts must match bit
    for bit.
    """
    diag, off = quantum._chain(spec)
    x = np.asarray(energies, dtype=float) / spec.eta
    e2 = off ** 2
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
    q = np.full_like(x, np.inf)  # with e_{-1} = 0 the first pivot is d_0 - x
    step = np.empty_like(x)
    keep = np.empty(x.shape, dtype=bool)
    above = np.zeros(x.shape, dtype=np.intp)
    # the loop runs dim times over arrays only as long as `energies`, so
    # call overhead dominates: out arguments are positional
    for d, e2_prev in zip(diag.tolist(), [0.0] + e2.tolist()):
        np.subtract(d, x, step)
        np.divide(e2_prev, q, q)
        np.subtract(step, q, q)
        np.greater(q, -pivmin, keep)  # not negative once guarded
        above += keep
        np.maximum(q, pivmin, out=q, where=keep)
    return spec.dim - above


def assert_same_counts(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestLadderStrength:
    def test_angular_momentum_case(self):
        spec = ModelSpec(1, 1, 2)
        assert quantum._ladder_weights(spec, 1) == pytest.approx(2.0, abs=0)
        spec = ModelSpec(1, 1, 12)
        for mu in range(1, 13):
            assert quantum._ladder_weights(spec, mu) == pytest.approx(
                mu * (12 - mu + 1), rel=1e-14
            )

    def test_conversion_case_2_1(self):
        spec = ModelSpec(2, 1, 4)
        assert quantum._ladder_weights(spec, 1) == pytest.approx(1.0, rel=1e-14)
        assert quantum._ladder_weights(spec, 2) == pytest.approx(3.0, rel=1e-14)

    def test_chain_ends_are_zero(self):
        spec = ModelSpec(3, 2, 36)
        top = spec.N // 6
        assert quantum._ladder_weights(spec, 0) == 0.0
        assert quantum._ladder_weights(spec, top + 1) == 0.0
        for mu in range(1, top + 1):
            assert quantum._ladder_weights(spec, mu) > 0.0
        beta = quantum._ladder_weights(spec, np.arange(top + 2))
        assert beta[0] == 0.0 and beta[-1] == 0.0 and np.all(beta[1:-1] > 0.0)

    def test_large_N_stays_finite(self):
        spec = ModelSpec(3, 3, 72000)
        vals = [quantum._ladder_weights(spec, mu) for mu in (1, 4000, 8000)]
        assert all(np.isfinite(v) and v > 0 for v in vals)


class TestChain:
    def test_sz_diagonal_2_1(self):
        diag, off = quantum._chain(ModelSpec(2, 1, 4, eps=1.0, v=0.0))
        assert np.allclose(diag, [-1.0, 0.0, 1.0], atol=0)
        assert np.all(off == 0.0)

    @pytest.mark.parametrize("m,n,N", [(1, 1, 2), (2, 1, 40), (3, 2, 60), (4, 3, 120)])
    def test_chain_shape_and_sz_symmetry(self, m, n, N):
        # dim diagonal entries and dim - 1 hopping weights, all positive;
        # the sz eigenvalues z run symmetrically from -z_max to z_max
        spec = ModelSpec(m, n, N, eps=1.0, v=2.0)
        diag, off = quantum._chain(spec)
        assert diag.shape == (spec.dim,) and off.shape == (spec.dim - 1,)
        assert np.array_equal(diag, -diag[::-1])
        assert diag[-1] == spec.z_max
        assert np.all(off > 0.0)

    def test_three_level_tunneling_spectrum(self):
        spec = ModelSpec(1, 1, 2, eps=0.0, v=1.0)
        _, off = quantum._chain(spec)
        assert np.allclose(off, np.sqrt(2) / 2, atol=1e-15)
        levels = quantum.eigen_spectrum(spec).raw_eigenvalues
        assert np.allclose(levels, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_hamiltonian_combines_sz_and_sx(self):
        diag, off = quantum._chain(ModelSpec(2, 2, 16, eps=0.3, v=1.7))
        sz_diag, _ = quantum._chain(ModelSpec(2, 2, 16, eps=1.0, v=0.0))
        _, sx_off = quantum._chain(ModelSpec(2, 2, 16, eps=0.0, v=1.0))
        assert np.allclose(diag, 0.3 * sz_diag, atol=0)
        assert np.allclose(off, 1.7 * sx_off, atol=0)

    @pytest.mark.parametrize("m,n,N", [(1, 1, 30), (2, 1, 40), (3, 2, 60), (4, 3, 120)])
    def test_commutator_identities(self, m, n, N):
        res = quantum.commutator_residuals(ModelSpec(m, n, N))
        assert res["sz_sx"] < 1e-10
        assert res["sy_sz"] < 1e-10
        assert res["sx_sy"] < 1e-10
        assert res["casimir"] < 1e-9


class TestChainParts:
    def test_built_once_per_shape(self, monkeypatch):
        calls = []

        def spy(spec, mu):
            calls.append((spec.m, spec.n, spec.N))
            return ladder_weights(spec, mu)

        ladder_weights = quantum._ladder_weights
        monkeypatch.setattr(quantum, "_ladder_weights", spy)
        quantum._chain_parts.cache_clear()
        try:
            for eps, v in ((0.3, 1.0), (-1.2, 0.0), (0.0, -1.3)):
                quantum._chain(ModelSpec(3, 2, 60, eps=eps, v=v))
                quantum.eigen_spectrum(ModelSpec(3, 2, 60, eps=eps, v=v))
            quantum.level_counts(ModelSpec(3, 2, 60, eps=0.7), [0.0])
            assert calls == [(3, 2, 60)]
            quantum._chain(ModelSpec(3, 2, 120))
            quantum._chain(ModelSpec(2, 3, 60))
            assert calls == [(3, 2, 60), (3, 2, 120), (2, 3, 60)]
        finally:
            quantum._chain_parts.cache_clear()

    def test_parts_are_read_only(self):
        spec = ModelSpec(2, 1, 40, eps=0.5, v=1.3)
        z, sqrt_beta = quantum._chain_parts(spec.m, spec.n, spec.N)
        for part in (z, sqrt_beta):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
        # each call gets new, writable arrays, which LAPACK may overwrite
        d, e = quantum._chain(spec)
        assert d.flags.writeable and e.flags.writeable
        assert not np.shares_memory(d, z) and not np.shares_memory(e, sqrt_beta)
        # dsterf overwrites the arrays it is given, never the cached parts
        quantum.eigen_spectrum(spec)
        for got, want in zip(quantum._chain(spec), reference_chain(spec)):
            assert_same_bits(got, want)


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

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_bit_identical_to_checked_wrapper(self, m, n):
        for N in (m * n, 40 * m * n, 97 * m * n):
            for eps in (-2.5, -0.0, 0.0, 5e-324, 0.7):
                for v in (1.0, -1.3, 0.0):
                    spec = ModelSpec(m, n, N, eps=eps, v=v)
                    for got, want in zip(quantum._chain(spec), reference_chain(spec)):
                        assert_same_bits(got, want)
                    result = quantum.eigen_spectrum(spec)
                    want = reference_spectrum(spec)
                    assert_same_bits(result.raw_eigenvalues, want)
                    assert_same_bits(result.scaled_eigenvalues, spec.eta * want)

    @pytest.mark.parametrize("eps,v", [(1e308, 1.0), (-1e308, 1.0), (0.5, 1e308)])
    def test_non_finite_chain_is_value_error(self, eps, v):
        # N = 400: eps * z reaches 1e308 * 200, and (v / 2) sqrt(beta) 5e307 * 200
        spec = ModelSpec(1, 1, 400, eps=eps, v=v)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="chain must not contain infs or NaNs"):
                quantum.eigen_spectrum(spec)

    def test_lapack_failure_is_linalg_error(self, monkeypatch):
        monkeypatch.setattr(quantum, "dsterf", lambda d, e, **kw: (d, 3))
        with pytest.raises(LinAlgError, match="dsterf returned info = 3"):
            quantum.eigen_spectrum(ModelSpec(2, 1, 40, eps=0.3))


class TestLevelCounts:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_equals_searchsorted_on_eigenvalues(self, m, n):
        rng = np.random.RandomState(100 * m + n)
        for dim in (2, 41, 301):
            spec = ModelSpec(m, n, (dim - 1) * m * n, eps=rng.uniform(-1.5, 1.5), v=1.0)
            eigs = quantum.eigen_spectrum(spec).scaled_eigenvalues
            span = eigs[-1] - eigs[0]
            x = np.concatenate((rng.uniform(eigs[0] - 0.1 * span, eigs[-1] + 0.1 * span, 200),
                                0.5 * (eigs[1:] + eigs[:-1])))
            assert np.array_equal(quantum.level_counts(spec, x), np.searchsorted(eigs, x))

    @pytest.mark.parametrize("dim", [40, 41])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_zero_pivot(self, dim, rows, monkeypatch):
        # eps = 0: x = 0 equals every diagonal entry, so the first pivot is
        # exactly zero; an odd dimension also has a level at 0, not below it.
        # At `rows` rows a block the chain spans 40-41 or 6 blocks (None:
        # the default budget, one block)
        if rows is not None:
            monkeypatch.setattr(quantum, "_COUNT_BLOCK", 2 * rows)
        spec = ModelSpec(2, 1, 2 * (dim - 1), eps=0.0)
        eigs = quantum.eigen_spectrum(spec).scaled_eigenvalues
        got = quantum.level_counts(spec, [0.0, 0.1])
        assert got[0] == dim // 2
        assert got[1] == np.searchsorted(eigs, 0.1)

    def test_shape_follows_energies(self):
        spec = ModelSpec(2, 1, 40, eps=0.3)
        assert quantum.level_counts(spec, 10.0) == spec.dim
        assert quantum.level_counts(spec, np.zeros((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("m,n,dim,eps,v", [
        (2, 1, 1001, 0.5, 1.0), (3, 3, 2001, 0.08, 1.0), (1, 1, 1500, -0.7, 0.4),
        (4, 1, 1201, 1.3, -0.8), (2, 1, 1001, 0.0, 1.0), (3, 2, 1001, 0.0, 0.7),
        (2, 1, 1001, 0.5, 0.0), (2, 2, 1001, 0.0, 0.0)])
    def test_blocks_match_reference(self, m, n, dim, eps, v):
        # 204 energies: 160 rows per block, so 7-13 blocks at the default
        # budget.  The grid holds 0 exactly: at eps = 0 the pivot of x = 0
        # is zero in row 0, and at eps = v = 0 in every row, so blocks
        # restart on their first, middle and last rows and across their
        # boundaries.  nan and +-inf give the reference's counts
        spec = ModelSpec(m, n, m * n * (dim - 1), eps=eps, v=v)
        x = np.concatenate((np.linspace(-2.0, 2.0, 201), [np.nan, np.inf, -np.inf]))
        assert x[100] == 0.0
        assert_same_counts(quantum.level_counts(spec, x), reference_counts(spec, x))

    @pytest.mark.parametrize("rows", [1, 2, 3, 8])
    def test_zero_pivots_at_block_positions(self, rows, monkeypatch):
        # v = 0 leaves H diagonal: x = d_k zeroes the pivot of row k alone,
        # and without the guard 0 / 0 = nan would fill the rows after it.
        # At 8 rows a block the hits are at a block's first row (0), a
        # middle row (11), its last row (23), across a boundary (31, 32)
        # and in consecutive rows (42, 43, 44); dim 64 makes eta = 2**-6,
        # so every x = E / eta is exact
        spec = ModelSpec(1, 1, 63, eps=0.5, v=0.0)
        d, _ = quantum._chain(spec)
        hits = [0, 11, 23, 31, 32, 42, 43, 44]
        x = np.concatenate((d[hits] * spec.eta, [0.01, -0.3, np.nan, np.inf, -np.inf]))
        assert np.array_equal(x[:len(hits)] / spec.eta, d[hits])
        monkeypatch.setattr(quantum, "_COUNT_BLOCK", rows * len(x))
        assert_same_counts(quantum.level_counts(spec, x), reference_counts(spec, x))
        assert np.array_equal(quantum.level_counts(spec, x[:len(hits)]), hits)

    def test_guard_is_strict(self):
        # v = 0, eps = tiny and x = 0 give the pivots d_k = tiny * (k - 32)
        # exactly: -pivmin (row 31) stays negative, 0 (row 32) is guarded
        # to +pivmin and +pivmin (row 33) stays as it is
        spec = ModelSpec(1, 1, 64, eps=np.finfo(float).tiny, v=0.0)
        assert_same_counts(quantum.level_counts(spec, [0.0]), np.array([32]))
        assert_same_counts(reference_counts(spec, [0.0]), np.array([32]))

    @pytest.mark.parametrize("energies", [
        10.0, 0.0, np.nan, -np.inf, np.float64(0.1), [], np.zeros((0, 3)),
        [[0.0, 0.1, -0.4], [np.nan, np.inf, 0.7]],
        np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)])
    @pytest.mark.parametrize("eps", [0.0, 0.6])
    def test_shapes_match_reference(self, energies, eps, monkeypatch):
        # 2 pivots per block splits even one energy's chain into 21 blocks
        monkeypatch.setattr(quantum, "_COUNT_BLOCK", 2)
        spec = ModelSpec(2, 1, 80, eps=eps)
        assert_same_counts(quantum.level_counts(spec, energies),
                           reference_counts(spec, energies))

    def test_block_memory_stays_near_energies(self):
        # 100,000 energies are more than a block's budget, so each block is
        # one row: the peak stays a small multiple of the energies array
        # however many edges (`--bins`) are counted
        spec = ModelSpec(2, 1, 2 * 2000, eps=0.3)
        x = np.linspace(-0.8, 0.8, 100_000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            quantum.level_counts(spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * x.nbytes

    def test_uniform_levels_midway_edges(self):
        # 1:1 levels are exactly equally spaced; with every edge midway
        # between two levels each of 10 bins holds 100 of the 1000 levels
        spec = ModelSpec(1, 1, 999, eps=0.6, v=0.8)
        eigs = quantum.eigen_spectrum(spec).scaled_eigenvalues
        spacing = spec.eta * np.hypot(0.6, 0.8)
        edges = np.linspace(eigs[0] - 0.5 * spacing, eigs[-1] + 0.5 * spacing, 11)
        assert quantum.level_counts(spec, edges).tolist() == list(range(0, 1001, 100))
        assert np.allclose(np.diff(edges), 100 * spacing, rtol=1e-12, atol=0)


class TestDosHistogram:
    def test_matches_numpy_histogram(self):
        spec = ModelSpec(3, 2, 1200, eps=0.4)
        eigs = quantum.eigen_spectrum(spec).scaled_eigenvalues
        hist = quantum.dos_histogram(spec, 37)
        counts, edges = np.histogram(eigs, bins=37)
        assert np.max(np.abs(hist.bin_edges - edges)) < 1e-12 * (edges[-1] - edges[0])
        assert np.allclose(hist.density * np.diff(hist.bin_edges) * spec.dim, counts,
                           rtol=0, atol=1e-9)

    def test_ties_on_equally_spaced_levels(self):
        # levels of a 1:1 spec sit within rounding of some edges; such a
        # level may land in either bin beside its edge, every other bin agrees
        spec = ModelSpec(1, 1, 3638, eps=0.5151, v=1.0)
        eigs = quantum.eigen_spectrum(spec).scaled_eigenvalues
        hist = quantum.dos_histogram(spec, 255)
        want, edges = np.histogram(eigs, bins=255)
        got = np.rint(hist.density * np.diff(hist.bin_edges) * spec.dim).astype(int)
        span = edges[-1] - edges[0]
        tied = [k for k, e in enumerate(edges)
                if np.min(np.abs(eigs - e)) < 1e-12 * span]
        assert tied  # the case exercises ties
        assert got.sum() == spec.dim
        for k in np.nonzero(got != want)[0]:
            assert k in tied or k + 1 in tied

    def test_density_normalisation(self):
        hist = quantum.dos_histogram(ModelSpec(2, 1, 400, eps=0.5, v=1.0), 37)
        widths = np.diff(hist.bin_edges)
        assert np.sum(hist.density * widths) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_levels_widen_range(self):
        # v = eps = 0 puts every level at 0: np.histogram's +-0.5 range
        spec = ModelSpec(2, 1, 40, eps=0.0, v=0.0)
        hist = quantum.dos_histogram(spec, 4)
        density, edges = np.histogram(np.zeros(spec.dim), bins=4, density=True)
        assert np.array_equal(hist.bin_edges, edges)
        assert np.array_equal(hist.density, density)

    def test_rejects_bad_input(self):
        spec = ModelSpec(2, 1, 8)
        with pytest.raises(ValueError):
            quantum.dos_histogram(spec, 1)


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

    def test_one_solve_per_eps_and_csvs_through_write_csv(self, tmp_path, monkeypatch):
        # one eigen_spectrum and one find_fixed_points per eps: the
        # benchmark's per-layer counts read these calls
        seen = {"eigen": [], "fixed": [], "csv": []}

        def spy(name, fn, key):
            def wrapper(*args, **kwargs):
                seen[name].append(key(args))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(quantum, "eigen_spectrum",
                            spy("eigen", quantum.eigen_spectrum, lambda a: a[0].eps))
        monkeypatch.setattr(meanfield, "find_fixed_points",
                            spy("fixed", meanfield.find_fixed_points, lambda a: a[0].eps))
        monkeypatch.setattr(serialize, "write_csv",
                            spy("csv", serialize.write_csv, lambda a: Path(a[0]).name))
        argv = f"sweep --m 2 --n 1 --N 40 --eps-min -1 --eps-max 1 --eps-steps 7 --out {tmp_path}"
        assert main(argv.split()) == 0
        grid = np.linspace(-1, 1, 7).tolist()
        assert seen["eigen"] == grid and seen["fixed"] == grid
        assert seen["csv"] == ["sweep_levels.csv", "sweep_fixed_points.csv"]

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
        beta_scale = np.max(quantum._ladder_weights(spec, np.arange(1, spec.dim)))
        assert abs(res["casimir_value"]) < 1e-9 * beta_scale


def _dense(spec):
    """Dense sx, sy, sz from the ladder weights in the documented convention.

    sx and sy share the off-diagonal magnitudes a = sqrt(beta)/2; sy is
    -i*a below the diagonal and +i*a above.
    """
    a = 0.5 * np.sqrt(quantum._ladder_weights(spec, np.arange(1, spec.dim)))
    sx = (np.diag(a, -1) + np.diag(a, 1)).astype(complex)
    sy = np.diag(-1j * a, -1) + np.diag(1j * a, 1)
    sz = np.diag([spec.sz_value(mu) for mu in range(spec.dim)]).astype(complex)
    return sx, sy, sz


@pytest.mark.parametrize("m,n,dim", [(m, n, d) for m in range(1, 4) for n in range(1, 4)
                                     for d in (2, 11, 30)])
def test_commutator_residuals_match_dense(m, n, dim):
    from kummer import algebra

    spec = ModelSpec(m, n, (dim - 1) * m * n)
    sx, sy, sz = _dense(spec)
    z = np.diag(sz).real
    big_f = np.diag([algebra.commutator_poly(spec, zi) for zi in z])
    big_g = np.diag([algebra.casimir_poly(spec, zi) for zi in z])

    def comm(a, b):
        return a @ b - b @ a

    scale_off = np.max(np.abs(sx))
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
    # one formula over an int or an array of mu: the chain carries its
    # vector, and an int mu gives the same bits as the array entry
    spec = ModelSpec(m, n, N, eps=0.3, v=1.3)
    beta = quantum._ladder_weights(spec, np.arange(1, spec.dim))
    for mu in {1, spec.dim // 2, spec.dim - 1}:
        assert quantum._ladder_weights(spec, mu) == beta[mu - 1]
    diag, off = quantum._chain(spec)
    assert np.array_equal(off, (spec.v / 2.0) * np.sqrt(beta))
    assert np.array_equal(diag, spec.eps * np.array([spec.sz_value(mu) for mu in range(spec.dim)]))
