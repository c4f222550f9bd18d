import numpy as np
import pytest
from math import pi, sqrt, cosh, exp

from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from kummer import meanfield, quantum, semiclassics
from kummer.model import ModelSpec
from kummer.semiclassics import (
    OutOfBandError,
    PeriodDivergenceError,
    TWO_PI,
    _tunneling_signed,
    action_area,
    orbit_angle,
    orbit_period,
    phase_correction,
    semiclassical_spectrum,
    tunneling_integral,
    turning_points,
)


def area_below_oracle(spec, energy, n=400001):
    """Phase-space area of {H <= E} by direct angular-measure quadrature."""
    p = np.linspace(-0.5, 0.5, n)
    r = meanfield.radius(spec, p)
    w = np.empty_like(p)
    np.divide(energy - spec.eps * p, spec.v * r, out=w, where=r > 0)
    w[r == 0] = np.sign(energy - spec.eps * p[r == 0]) * np.inf
    measure = 2 * pi - 2 * np.arccos(np.clip(w, -1, 1))
    measure[w >= 1] = 2 * pi
    measure[w <= -1] = 0.0
    return simpson(measure, x=p)


def band_range(spec):
    fps = meanfield.find_fixed_points(spec)
    energies = [fp.energy for fp in fps]
    return min(energies), max(energies)


class TestTurningPoints:
    def test_one_point_per_branch(self):
        tps = turning_points(ModelSpec(2, 1, 80, eps=1.5, v=1.0), 0.0)
        assert len(tps.real_points) == 2
        assert {b for _, b in tps.real_points} == {"upper", "lower"}
        assert len(tps.regions) == 1

    def test_tangency_at_band_minimum(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        emin, _ = band_range(spec)
        tps = turning_points(spec, emin + 1e-10)
        pl, pr, _, _ = tps.regions[0]
        assert abs(pl - 0.0) < 1e-4 and abs(pr - 0.0) < 1e-4  # center at p = 0

    def test_four_points_in_double_well(self):
        spec = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        fps = meanfield.find_fixed_points(spec)
        saddle = [fp for fp in fps if fp.stability == "saddle"][0]
        energy = saddle.energy - 0.01
        tps = turning_points(spec, energy)
        assert len(tps.regions) == 2
        points = [p for p, _ in tps.real_points]
        assert len(points) == 4
        assert points == sorted(points)

    def test_complex_pair_above_barrier(self):
        spec = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        saddle = [fp for fp in meanfield.find_fixed_points(spec) if fp.stability == "saddle"][0]
        tps = turning_points(spec, saddle.energy + 0.01)
        assert len(tps.regions) == 1
        pl, pr, _, _ = tps.regions[0]
        inside = [z for z in tps.complex_pairs if pl < z.real < pr]
        assert inside and min(z.imag for z in inside) > 0

    def test_out_of_band_flag(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        _, emax = band_range(spec)
        tps = turning_points(spec, emax + 0.5)
        assert tps.out_of_band and not tps.regions


class TestOrbitAngle:
    def test_turning_point_value(self):
        spec = ModelSpec(2, 1, 8, eps=0.3, v=1.0)
        p = 0.1
        e = spec.eps * p + spec.v * meanfield.radius(spec, p)
        assert orbit_angle(spec, p, e) == pytest.approx(0.0, abs=1e-7)

    def test_mid_phase(self):
        spec = ModelSpec(3, 2, 12, eps=0.4, v=1.0)
        p = -0.2
        assert orbit_angle(spec, p, spec.eps * p) == pytest.approx(pi / 2, abs=1e-14)

    def test_forbidden_magnitude(self):
        spec = ModelSpec(2, 2, 8, eps=0.0, v=1.0)
        p = 0.2
        e = spec.v * meanfield.radius(spec, p) * cosh(1.0)
        assert orbit_angle(spec, p, e) == pytest.approx(1.0, rel=1e-12)

    def test_pole_flag(self):
        spec = ModelSpec(2, 1, 8, eps=0.5, v=1.0)
        with pytest.raises(ValueError):
            orbit_angle(spec, -0.5, 0.1)


class TestActionArea:
    def test_su2_area_law_exact(self):
        spec = ModelSpec(1, 1, 40, eps=0.7, v=1.3)
        omega = np.hypot(0.7, 1.3)
        for e in (-0.6, -0.2, 0.0, 0.31, 0.7):
            assert action_area(spec, e) == pytest.approx(
                TWO_PI * (e / omega + 0.5), abs=1e-11
            )

    def test_symmetric_half_area(self):
        assert action_area(ModelSpec(1, 1, 40, eps=0.0, v=1.0), 0.0) == pytest.approx(
            pi, abs=1e-12
        )

    def test_band_limits(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        emin, emax = band_range(spec)
        span = emax - emin
        assert action_area(spec, emin + 1e-9 * span) < 1e-3
        assert action_area(spec, emax - 1e-9 * span) == pytest.approx(TWO_PI, abs=1e-3)

    @pytest.mark.parametrize(
        "spec,energy",
        [
            (ModelSpec(2, 1, 80, eps=1.5, v=1.0), -0.5),
            (ModelSpec(2, 1, 80, eps=0.5, v=1.0), 0.1),
            (ModelSpec(4, 1, 160, eps=0.5, v=1.0), -0.2),
            (ModelSpec(3, 2, 120, eps=0.4, v=1.0), 0.05),
        ],
    )
    def test_against_area_oracle(self, spec, energy):
        tps = turning_points(spec, energy)
        total = sum(action_area(spec, energy, i) for i in range(len(tps.regions)))
        assert total == pytest.approx(area_below_oracle(spec, energy), abs=2e-7)

    def test_node_doubling_convergence(self):
        spec = ModelSpec(3, 2, 120, eps=0.4, v=1.0)
        coarse = action_area(spec, 0.05, order=96)
        fine = action_area(spec, 0.05, order=192)
        assert abs(coarse - fine) < 1e-9

    def test_errors(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        _, emax = band_range(spec)
        with pytest.raises(OutOfBandError):
            action_area(spec, emax + 1.0)
        dw = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(dw) if f.stability == "saddle"][0]
        with pytest.raises(ValueError):
            action_area(dw, saddle.energy - 0.01)  # two regions, index required


class TestPhaseCorrection:
    def test_zero_limit(self):
        assert phase_correction(0.0) == 0.0

    def test_high_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 40
        for s in (0.3, 1.0, 7.5):
            want = float(
                mp.im(mp.loggamma(mp.mpf("0.5") + 1j * mp.mpf(repr(s))))
                - s * mp.log(abs(s)) + s
            )
            assert phase_correction(s) == pytest.approx(want, abs=1e-12)

    def test_stirling_tail(self):
        # leading asymptotic term is 1/(24 S)
        assert phase_correction(30.0) == pytest.approx(1.0 / 720.0, abs=1e-6)

    def test_odd(self):
        assert phase_correction(-2.3) == pytest.approx(-phase_correction(2.3), abs=1e-14)


class TestTunneling:
    def setup_method(self):
        self.spec = ModelSpec(4, 1, 320, eps=0.5, v=1.0)
        fps = meanfield.find_fixed_points(self.spec)
        self.saddle_energy = [f.energy for f in fps if f.stability == "saddle"][0]

    def _signed(self, energy):
        tps = turning_points(self.spec, energy)
        if len(tps.regions) == 2:
            return _tunneling_signed(
                self.spec, energy, (tps.regions[0][1], tps.regions[1][0])
            )
        pl, pr, _, _ = tps.regions[0]
        z = min(
            (z for z in tps.complex_pairs if pl < z.real < pr), key=lambda w: w.imag
        )
        return _tunneling_signed(self.spec, energy, z)

    def test_vanishes_at_barrier_top(self):
        for de in (1e-6, 1e-8):
            assert abs(self._signed(self.saddle_energy - de)) < 1e-3
            assert abs(self._signed(self.saddle_energy + de)) < 1e-3

    def test_continuous_and_odd_through_top(self):
        for de in (1e-6, 1e-8):
            below = self._signed(self.saddle_energy - de)
            above = self._signed(self.saddle_energy + de)
            assert below > 0 > above
            assert abs(below + above) < 1e-7

    @pytest.mark.parametrize("below", [1e-2, 1e-3, 1e-5])
    def test_gap_integral_against_quad(self, below):
        # below the top the parameter is the integral of arccosh|w|,
        # w = (E - eps*p)/(v r), over the real gap, divided by pi*eta
        spec = self.spec
        energy = self.saddle_energy - below
        tps = turning_points(spec, energy)
        gap = (tps.regions[0][1], tps.regions[1][0])

        def depth(p):
            w = (energy - spec.eps * p) / (spec.v * meanfield.radius(spec, p))
            return np.arccosh(max(abs(w), 1.0))

        want, _ = quad(depth, *gap, epsabs=0.0, epsrel=1e-13, limit=200)
        got = _tunneling_signed(spec, energy, gap)
        assert got == pytest.approx(want / (pi * spec.eta), rel=1e-10)

    def test_magnitude_exposed(self):
        energy = self.saddle_energy + 1e-4
        tps = turning_points(self.spec, energy)
        pl, pr, _, _ = tps.regions[0]
        z = min((z for z in tps.complex_pairs if pl < z.real < pr), key=lambda w: w.imag)
        assert tunneling_integral(self.spec, energy, z) > 0

    def test_deep_barrier_decouples_into_single_wells(self):
        # each well on its own, under the same first-order rule: the area
        # with the term - oint dH dt (shift 0, see _region_area)
        eta = self.spec.eta
        wkb = semiclassical_spectrum(self.spec)
        dw = [lv.energy for lv in wkb.levels if lv.regime == "double_well_below"]
        window_lo = min(dw)
        deep_top = window_lo + (self.saddle_energy - window_lo) / 3.0

        def area(e, idx):
            tps = turning_points(self.spec, e)
            return semiclassics._region_area(self.spec, tps, idx, shift=0.0)

        def region_levels(idx):
            lo = window_lo + 1e-9
            out = []
            s_lo = area(lo, idx)
            s_hi = area(deep_top, idx)
            k0 = int(np.ceil(s_lo / (TWO_PI * eta) - 0.5))
            k1 = int(np.floor(s_hi / (TWO_PI * eta) - 0.5))
            for k in range(k0, k1 + 1):
                target = TWO_PI * eta * (k + 0.5)
                out.append(
                    brentq(
                        lambda e: area(e, idx) - target,
                        lo, deep_top, xtol=1e-14,
                    )
                )
            return out

        independent = region_levels(0) + region_levels(1)
        assert independent
        for e_single in independent:
            nearest = min(abs(e_single - e) for e in dw)
            assert nearest < 1e-4
            kappa = exp(-pi * self._signed(e_single))
            assert kappa < 1e-8


class TestQuantization:
    def test_three_level_system_matches_exact(self):
        spec = ModelSpec(1, 1, 2, eps=0.0, v=1.0)
        wkb = semiclassical_spectrum(spec)
        assert np.allclose(wkb.energies, [-1 / 3, 0.0, 1 / 3], atol=1e-9)

    def test_su2_whole_band_exact(self):
        spec = ModelSpec(1, 1, 40, eps=0.7, v=1.3)
        wkb = semiclassical_spectrum(spec)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        assert np.max(np.abs(wkb.energies - exact)) < 1e-12

    def test_supercritical_teardrop_regression(self):
        # frozen pilot bounds: tip levels carry the largest deviations
        spec = ModelSpec(2, 1, 80, eps=1.5, v=1.0)
        wkb = semiclassical_spectrum(spec)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        dev = np.abs(wkb.energies - exact)
        assert len(wkb.levels) == 41
        assert np.max(dev) < 6e-3
        rel = dev / np.gradient(exact)
        assert np.median(rel) < 0.05

    def test_ground_level_harmonic_offset(self):
        # the exact ground level sits about twice the harmonic 0.5*eta*rate
        # above the tip: the rule needs its first-order term to get there
        spec = ModelSpec(2, 1, 80, eps=1.5, v=1.0)
        wkb = semiclassical_spectrum(spec)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        fps = meanfield.find_fixed_points(spec)
        bottom = min(fps, key=lambda fp: fp.energy)
        offset = wkb.energies[0] - bottom.energy
        assert offset == pytest.approx(exact[0] - bottom.energy, rel=0.35)

    def test_full_count_and_regimes_4_1(self):
        spec = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        wkb = semiclassical_spectrum(spec)
        assert len(wkb.levels) == spec.dim
        regimes = {lv.regime for lv in wkb.levels}
        assert "double_well_below" in regimes
        assert "above_barrier" in regimes
        assert [lv.nu for lv in wkb.levels] == list(range(spec.dim))

    def test_accuracy_invariant_4_3(self):
        # one showcase spec holding the 10%-of-spacing envelope
        spec = ModelSpec(4, 3, 480, eps=0.5, v=1.0)
        wkb = semiclassical_spectrum(spec)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        rel = np.abs(wkb.energies - exact) / np.gradient(exact)
        saddles = [f.energy for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"]
        mask = np.ones(len(exact), bool)
        for s in saddles:
            mask[np.argsort(np.abs(exact - s))[:2]] = False
        assert rel[mask].max() <= 0.10
        if (~mask).any():
            assert rel[~mask].max() <= 0.50

    def test_symmetric_spectrum_3_3(self):
        spec = ModelSpec(3, 3, 360, eps=0.08, v=1.0)
        wkb = semiclassical_spectrum(spec)
        assert len(wkb.levels) == 41
        assert np.max(np.abs(wkb.energies + wkb.energies[::-1])) < 1e-8
        regimes = {lv.regime for lv in wkb.levels}
        assert {"single_well", "double_well_below", "above_barrier"} <= regimes
        assert any(r.endswith("_mirrored") for r in regimes)

    def test_mode_swap_negates_levels(self):
        spec = ModelSpec(3, 2, 120, eps=0.4, v=1.0)
        a = semiclassical_spectrum(spec)
        b = semiclassical_spectrum(spec.mirrored())
        assert np.allclose(a.energies, -b.energies[::-1], atol=1e-9)


class TestFirstOrderTerm:
    @pytest.mark.parametrize("m,n,N", [(1, 1, 40), (2, 1, 80), (4, 1, 160), (3, 3, 360)])
    def test_hopping_radius_matches_ladder_weights(self, m, n, N):
        # r_eta^2 at the hop midpoints p = eta*(mu - 1/2 - z_max) is the
        # ladder weight eta^2 beta_mu itself
        spec = ModelSpec(m, n, N)
        mu = np.arange(1, spec.dim)
        p = spec.eta * (mu - 0.5 - spec.z_max)
        rho = 1.0 + semiclassics._radius_excess(spec, p)
        r_eta_sq = (rho * meanfield.radius(spec, p)) ** 2
        want = spec.eta**2 * quantum._ladder_weights(spec)
        assert np.allclose(r_eta_sq, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec,tol", [
        (ModelSpec(4, 1, 160, eps=0.5), 0.01),
        (ModelSpec(3, 3, 360, eps=0.1), 0.04),
    ])
    def test_band_edge_and_mid_levels(self, spec, tol):
        # without the term ground and top sit a fixed share of a spacing
        # off at every N (0.149 / 0.125 at (4,1), 0.213 at (3,3)); the
        # one-level (3,3) edge wells keep 0.036, a second-order effect
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        wkb = semiclassical_spectrum(spec).energies
        rel = np.abs(wkb - exact) / np.gradient(exact)
        assert rel[0] <= tol and rel[-1] <= tol
        assert rel[len(rel) // 2] <= 0.01

    def test_rule_without_term_near_pinched_pole(self):
        # a saddle 0.85 eta from an m = 3 pole: the term is not small there
        # and the matching condition gains roots, so the count check falls
        # back on the rule without it, and the result says so
        spec = ModelSpec(3, 1, 120, eps=0.3671)
        wkb = semiclassical_spectrum(spec)
        assert wkb.attempt > 0 and not wkb.search["first_order_term"]
        levels = wkb.energies
        assert len(levels) == spec.dim and np.all(np.diff(levels) > 0)

    def test_pinched_pole_band_bottom(self):
        # the m = 4 pole is the band bottom at E = -eps/2; the well born
        # there never resolves in floating point close to its birth
        spec = ModelSpec(4, 1, 160, eps=0.9)
        levels = semiclassical_spectrum(spec).energies
        assert len(levels) == 41
        assert np.all(np.isfinite(levels)) and np.all(np.diff(levels) > 0)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        assert np.max(np.abs(levels - exact) / np.gradient(exact)) <= 0.10

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_well_born_beside_conical_pole_saddle(self, m, n):
        # near eps = 1/sqrt(2) a well splits off the m = 2 (n = 2) pole:
        # the band bottom is an interior center 1.1e-11 from the pole's
        # saddle, closer than the probes of the interval beside it reach
        spec = ModelSpec(m, n, 360, eps=0.7071)
        levels = semiclassical_spectrum(spec).energies
        assert len(levels) == 61 and np.all(np.diff(levels) > 0)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        assert np.max(np.abs(levels - exact) / np.gradient(exact)) <= 0.10


class TestPeriod:
    def test_band_edge_frequency(self):
        # interior centers of the symmetric pair case
        spec = ModelSpec(2, 2, 160, eps=0.2, v=1.0)
        emin, emax = band_range(spec)
        want = 1.0 / sqrt((1.0 - 0.04) / 2.0)  # 1/omega = 1.4434
        got = orbit_period(spec, emin + 1e-9) / TWO_PI
        assert got == pytest.approx(want, rel=1e-4)
        assert want == pytest.approx(1.4434, abs=1e-4)
        got_hi = orbit_period(spec, emax - 1e-9) / TWO_PI
        assert got_hi == pytest.approx(want, rel=1e-4)

    def test_su2_period_constant(self):
        spec = ModelSpec(1, 1, 20, eps=0.7, v=1.3)
        omega = np.hypot(0.7, 1.3)
        for e in (-0.5, 0.0, 0.4):
            assert orbit_period(spec, e) == pytest.approx(TWO_PI / omega, rel=1e-10)

    def test_total_phase_space_volume(self):
        # integral of T(E)/2pi over the band is the total area over 2pi = 1
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        emin, emax = band_range(spec)
        saddles = [f.energy for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"]
        val, err = quad(
            lambda e: orbit_period(spec, e) / TWO_PI,
            emin + 1e-12, emax - 1e-12,
            points=saddles, limit=300, epsabs=1e-9, epsrel=1e-9,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_divergence_flag_at_saddle(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"][0]
        with pytest.raises((PeriodDivergenceError, OutOfBandError)):
            orbit_period(spec, saddle.energy)

    def test_logarithmic_growth_near_saddle(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"][0]
        deltas = np.array([1e-3, 1e-4, 1e-5, 1e-6])
        periods = np.array([orbit_period(spec, saddle.energy + d) for d in deltas])
        increments = np.diff(periods)
        assert np.all(periods[1:] > periods[:-1])
        # log divergence: equal increments per decade
        assert np.all(np.abs(increments / increments[0] - 1.0) < 0.05)

    def test_derivative_of_action_is_period(self):
        spec = ModelSpec(3, 2, 120, eps=0.4, v=1.0)
        emin, emax = band_range(spec)
        for frac in (0.25, 0.55, 0.85):
            e = emin + frac * (emax - emin)
            h = 1e-6 * (emax - emin)

            def total(x):
                t = turning_points(spec, x)
                return sum(action_area(spec, x, i) for i in range(len(t.regions)))

            deriv = (total(e + h) - total(e - h)) / (2 * h)
            assert deriv == pytest.approx(orbit_period(spec, e), rel=1e-6)


class TestDosCurve:
    def test_nan_inside_saddle_margin(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"][0]
        grid = np.array([saddle.energy + 1e-8, saddle.energy + 1e-3, 0.1])
        vals = semiclassics.dos_semiclassical(spec, grid)
        assert np.isnan(vals[0])
        assert np.isfinite(vals[1]) and np.isfinite(vals[2])

    def test_out_of_band_is_nan(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        _, emax = band_range(spec)
        vals = semiclassics.dos_semiclassical(spec, np.array([emax + 1.0]))
        assert np.isnan(vals[0])


class TestBarrierActions:
    def test_sum_identity_above_barrier(self):
        # both partial actions continued through one complex point: the
        # sum equals the single-region area exactly
        spec = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"][0]
        for de in (1e-3, 1e-2, 5e-2):
            energy = saddle.energy + de
            acts = semiclassics.barrier_actions(spec, energy)
            assert acts.total == pytest.approx(action_area(spec, energy), abs=1e-8)
            assert acts.s_eps < 0
            assert acts.kappa == pytest.approx(exp(-pi * acts.s_eps), rel=1e-12)

    def test_below_barrier_fields(self):
        spec = ModelSpec(4, 1, 160, eps=0.5, v=1.0)
        saddle = [f for f in meanfield.find_fixed_points(spec) if f.stability == "saddle"][0]
        acts = semiclassics.barrier_actions(spec, saddle.energy - 5e-3)
        assert acts.s_eps > 0
        assert 0 < acts.kappa < 1
        assert acts.left > 0 and acts.right > 0
        assert acts.total == pytest.approx(acts.left + acts.right, abs=0)

    def test_no_barrier_raises(self):
        spec = ModelSpec(1, 1, 20, eps=0.3, v=1.0)
        with pytest.raises(ValueError):
            semiclassics.barrier_actions(spec, 0.0)


class TestNearCriticalQuantization:
    def test_small_eps_count_and_splittings(self):
        # just past the lower saddle-node threshold a remote complex pair
        # from the vanished structure must not hijack the barrier
        # continuation; level count stays exact and the narrow avoided
        # gaps near the surviving barrier are reproduced
        spec = ModelSpec(4, 3, 480, eps=0.05, v=1.0)
        exact = quantum.eigen_spectrum(spec).scaled_eigenvalues
        wkb = semiclassical_spectrum(spec).energies
        assert len(wkb) == spec.dim
        for nu in (4, 5, 6, 36, 37, 38):
            got = wkb[nu + 1] - wkb[nu]
            want = exact[nu + 1] - exact[nu]
            assert 0.7 < got / want < 1.3

    @pytest.mark.parametrize("eps", [0.025, -0.035, 0.05, -0.05])
    def test_counts_near_zero_eps(self, eps):
        spec = ModelSpec(4, 3, 480, eps=eps, v=1.0)
        assert len(semiclassical_spectrum(spec).levels) == spec.dim


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 4), (3, 3), (4, 1), (4, 3)])
def test_band_coefficients_bit_identical_to_direct_build(m, n):
    from numpy.polynomial import polynomial as npoly

    xp, yp = np.array([0.5, 1.0]), np.array([0.5, -1.0])
    product = npoly.polymul(npoly.polypow(xp, m), npoly.polypow(yp, n))
    pref = float(m) ** (2 - n) * float(n) ** (2 - m)
    rng = np.random.default_rng(m * 10 + n)
    for v, eps, energy in rng.uniform([0.1, -3.0, -2.0], [3.0, 3.0, 2.0], size=(50, 3)):
        spec = ModelSpec(m, n, m * n, eps=eps, v=v)
        quad = npoly.polymul([energy, -spec.eps], [energy, -spec.eps])
        want = (spec.v**2 * pref) * product
        want[:3] -= quad
        got = semiclassics._band_poly_coeffs(spec, energy)
        assert got.tobytes() == want.tobytes()
