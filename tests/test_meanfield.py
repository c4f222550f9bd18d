import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from math import pi, sqrt

from kummer import meanfield
from kummer.model import ModelSpec


class TestRadius:
    def test_teardrop_midpoint(self):
        assert meanfield.radius(ModelSpec(2, 1, 8), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pair_tunneling_closed_form(self):
        spec = ModelSpec(2, 2, 16)
        for p in (-0.4, 0.0, 0.31):
            assert meanfield.radius(spec, p) == pytest.approx(0.25 - p * p, rel=1e-14)

    def test_triple_conversion_closed_form(self):
        spec = ModelSpec(3, 3, 36)
        assert meanfield.radius(spec, 0.0) == pytest.approx(1.0 / 24, rel=1e-14)
        for p in (-0.2, 0.45):
            want = (0.25 - p * p) ** 1.5 / 3.0
            assert meanfield.radius(spec, p) == pytest.approx(want, rel=1e-13)

    def test_bloch_sphere(self):
        spec = ModelSpec(1, 1, 6)
        for p in (-0.5, -0.1, 0.5):
            assert meanfield.radius(spec, p) == pytest.approx(sqrt(max(0.25 - p * p, 0)), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            meanfield.radius(ModelSpec(2, 1, 8), 0.6)
        with pytest.raises(ValueError):
            meanfield.potentials(ModelSpec(2, 1, 8), -0.50001)


class TestStructureFunctions:
    def test_closed_forms_2_1(self):
        spec = ModelSpec(2, 1, 8)
        ps = np.linspace(-0.5, 0.5, 7)
        assert np.allclose(
            meanfield.classical_commutator(spec, ps), -0.25 + ps + 3 * ps**2, atol=1e-14
        )
        # linear coefficient -1/2 pinned by g = -r^2 with
        # r^2 = 2(1/2+p)^2(1/2-p) = 1/4 + p/2 - p^2 - 2p^3 and by dg/dp = 2f
        assert np.allclose(
            meanfield.classical_casimir(spec, ps),
            -0.25 - 0.5 * ps + ps**2 + 2 * ps**3,
            atol=1e-14,
        )

    def test_closed_form_2_2(self):
        spec = ModelSpec(2, 2, 8)
        for p in (-0.3, 0.1, 0.5):
            assert meanfield.classical_commutator(spec, p) == pytest.approx(
                2 * p * (0.25 - p * p), abs=1e-14
            )

    def test_bloch_case(self):
        spec = ModelSpec(1, 1, 6)
        for p in (-0.4, 0.0, 0.2):
            assert meanfield.classical_commutator(spec, p) == pytest.approx(p, abs=1e-15)
            assert meanfield.classical_casimir(spec, p) == pytest.approx(p * p - 0.25, abs=1e-15)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 1), (4, 3)])
    def test_derivative_and_radius_identities(self, m, n):
        # dg/dp = 2 f and g = -r^2 at 1000 seeded random points
        spec = ModelSpec(m, n, 8 * m * n)
        rng = np.random.RandomState(17)
        ps = rng.uniform(-0.5, 0.5, 1000)
        g = meanfield.classical_casimir(spec, ps)
        r = meanfield.radius(spec, ps)
        assert np.max(np.abs(g + r * r)) < 1e-10 * max(np.max(np.abs(g)), 1e-30)
        h = 1e-7
        inner = rng.uniform(-0.49, 0.49, 1000)
        dg = (
            meanfield.classical_casimir(spec, inner + h)
            - meanfield.classical_casimir(spec, inner - h)
        ) / (2 * h)
        f2 = 2 * meanfield.classical_commutator(spec, inner)
        assert np.max(np.abs(dg - f2)) < 1e-6

    def test_analytic_commutator_derivative(self):
        for spec in (ModelSpec(2, 1, 8), ModelSpec(4, 3, 24), ModelSpec(1, 1, 4)):
            h = 1e-6
            for p in (-0.3, 0.05, 0.4):
                num = (
                    meanfield.classical_commutator(spec, p + h)
                    - meanfield.classical_commutator(spec, p - h)
                ) / (2 * h)
                assert meanfield.classical_commutator_deriv(spec, p) == pytest.approx(
                    num, rel=1e-8, abs=1e-8
                )


class TestPotentials:
    def test_join_at_poles(self):
        spec = ModelSpec(3, 2, 30, eps=0.7, v=1.3)
        for p, want in ((0.5, 0.35), (-0.5, -0.35)):
            lo, hi = meanfield.potentials(spec, p)
            assert lo == pytest.approx(want, abs=1e-15)
            assert hi == pytest.approx(want, abs=1e-15)

    def test_teardrop_values(self):
        lo, hi = meanfield.potentials(ModelSpec(2, 1, 8, eps=0.5, v=1.0), 0.0)
        assert (lo, hi) == (pytest.approx(-0.5), pytest.approx(0.5))

    def test_double_well_structure_4_1(self):
        # two separated minima in the lower curve for moderate eps
        spec = ModelSpec(4, 1, 16, eps=0.5, v=1.0)
        ps = np.linspace(-0.5, 0.5, 2001)
        lo, _ = meanfield.potentials(spec, ps)
        interior_max = ps[np.argmax(lo[(ps > -0.49) & (ps < 0.3)])]
        du = np.diff(lo)
        sign_changes = np.sum(np.abs(np.diff(np.sign(du))) > 1)
        assert sign_changes >= 2  # rise, barrier max, well min, rise


class TestFixedPoints:
    def test_pair_tunneling_criterion_values(self):
        fps = meanfield.find_fixed_points(ModelSpec(2, 2, 160, eps=0.6, v=1.0))
        interior = [fp for fp in fps if fp.location == "interior"]
        assert len(interior) == 2
        for fp in interior:
            assert abs(fp.p) == pytest.approx(0.3, abs=1e-12)
            assert abs(fp.sx) == pytest.approx(0.16, abs=1e-12)
            assert abs(fp.energy) == pytest.approx(0.34, abs=1e-12)
            assert fp.stability == "center"
        poles = [fp for fp in fps if fp.location.endswith("pole")]
        assert all(fp.stability == "saddle" for fp in poles)

    def test_teardrop_criterion_values(self):
        fps = meanfield.find_fixed_points(ModelSpec(2, 1, 80, eps=0.5, v=1.0))
        ps = sorted(fp.p for fp in fps)
        assert ps[0] == pytest.approx(-0.5, abs=0)
        assert ps[1] == pytest.approx(0.0, abs=1e-10)
        assert ps[2] == pytest.approx(5.0 / 18.0, abs=1e-10)
        by_p = {round(fp.p, 6): fp for fp in fps}
        assert by_p[-0.5].energy == pytest.approx(-0.25, abs=1e-14)
        assert by_p[0.0].energy == pytest.approx(-0.5, abs=1e-12)
        assert by_p[round(5 / 18, 6)].energy == pytest.approx(
            (1.0 / 0.5) * meanfield.classical_commutator(ModelSpec(2, 1, 80), 5 / 18)
            + 0.5 * 5 / 18,
            rel=1e-12,
        )

    def test_triple_case_roots(self):
        fps = meanfield.find_fixed_points(ModelSpec(3, 3, 360, eps=0.1, v=1.0))
        interior = sorted(fp.p for fp in fps if fp.location == "interior")
        disc = sqrt(1 - 0.64)
        want = sorted(
            [s * sqrt((1 + t * disc) / 8) for s in (1, -1) for t in (1, -1)]
        )
        assert np.allclose(interior, want, atol=1e-10)

    def test_bloch_sphere_fixed_points(self):
        eps, v = 0.6, 0.8
        fps = meanfield.find_fixed_points(ModelSpec(1, 1, 20, eps=eps, v=v))
        assert len(fps) == 2
        omega = sqrt(eps * eps + v * v)
        for fp in fps:
            assert fp.stability == "center"
            assert fp.rate == pytest.approx(omega, rel=1e-12)
            assert abs(fp.energy) == pytest.approx(omega / 2, rel=1e-12)
            assert abs(fp.p) == pytest.approx(eps / (2 * omega), rel=1e-10)

    def test_zero_eps_special_case(self):
        fps = meanfield.find_fixed_points(ModelSpec(2, 1, 80, eps=0.0, v=1.0))
        interior = [fp for fp in fps if fp.location == "interior"]
        assert len(interior) == 2
        p_star = (2 - 1) / (2 * (2 + 1))
        r_star = meanfield.radius(ModelSpec(2, 1, 80), p_star)
        energies = sorted(fp.energy for fp in interior)
        assert energies[0] == pytest.approx(-r_star, rel=1e-12)
        assert energies[1] == pytest.approx(r_star, rel=1e-12)

    def test_degenerate_at_critical_eps(self):
        fps = meanfield.find_fixed_points(ModelSpec(3, 3, 360, eps=0.125, v=1.0))
        degenerate = [fp for fp in fps if fp.stability == "degenerate"]
        assert len(degenerate) == 2
        for fp in degenerate:
            assert abs(fp.p) == pytest.approx(1 / (2 * sqrt(2)), abs=1e-6)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_count_bound_over_eps_grid(self, m, n):
        spec = ModelSpec(m, n, 4 * m * n)
        limit = min(m + n, 6)
        for eps in np.linspace(-3, 3, 121):
            fps = meanfield.find_fixed_points(spec.with_eps(float(eps)))
            assert len(fps) <= limit
            for fp in fps:
                if fp.location == "interior" and spec.with_eps(eps).eps != 0:
                    # tangency consistency: |sx| <= r with equality at extrema
                    r = meanfield.radius(spec, fp.p)
                    assert abs(fp.sx) <= r + 1e-8


class TestBifurcations:
    def test_teardrop_transcritical(self):
        events = meanfield.classify_bifurcations(ModelSpec(2, 1, 8, v=1.0))
        assert len(events) == 2
        for ev in events:
            assert ev.kind == "transcritical"
            assert ev.location == "south_pole"
            assert abs(ev.eps_critical) == pytest.approx(sqrt(2), abs=1e-10)

    def test_pair_tunneling_both_poles(self):
        events = meanfield.classify_bifurcations(ModelSpec(2, 2, 8, v=1.0))
        assert len(events) == 4
        assert {ev.location for ev in events} == {"south_pole", "north_pole"}
        assert all(abs(ev.eps_critical) == pytest.approx(1.0, abs=1e-12) for ev in events)

    def test_triple_saddle_node_and_cusp_energy(self):
        events = meanfield.classify_bifurcations(ModelSpec(3, 3, 18, v=1.0))
        assert len(events) == 4
        for ev in events:
            assert ev.kind == "saddle_node"
            assert abs(ev.eps_critical) == pytest.approx(0.125, abs=1e-10)
            assert abs(ev.location) == pytest.approx(1 / (2 * sqrt(2)), abs=1e-10)
            assert abs(ev.energy) == pytest.approx(1 / (12 * sqrt(2)), abs=1e-10)

    def test_no_events_on_bloch_sphere(self):
        assert meanfield.classify_bifurcations(ModelSpec(1, 1, 4, v=1.0)) == []

    def test_events_sorted_by_magnitude(self):
        events = meanfield.classify_bifurcations(ModelSpec(3, 2, 12, v=1.0))
        mags = [abs(ev.eps_critical) for ev in events]
        assert mags == sorted(mags)
        kinds = {ev.kind for ev in events}
        assert kinds == {"saddle_node", "transcritical"}

    @staticmethod
    def _check_inflections(spec, p):
        """inflection_points against its oracle: where, on the grid p, the
        second differences of r change sign."""
        r = meanfield.radius(spec, p)
        sign = np.sign(r[:-2] - 2 * r[1:-1] + r[2:])
        assert np.all(sign != 0)
        change = np.nonzero(sign[:-1] != sign[1:])[0]
        got = meanfield.inflection_points(spec)
        assert len(got) == len(change), (spec.m, spec.n)
        for root, i in zip(got, change):  # between p[i+1] and p[i+2], up to rounding
            assert p[i] < root < p[i + 3], (spec.m, spec.n)

    def test_inflection_points_match_second_difference_signs(self):
        p = np.linspace(-0.5, 0.5, 10001)[1:-1]
        for m in range(1, 13):
            for n in range(1, 13):
                self._check_inflections(ModelSpec(m, n, m * n), p)

    @pytest.mark.parametrize("m,n", [(40, 118), (118, 40), (46, 106)])
    def test_inflection_points_where_r_is_tiny(self, m, n):
        # r'' ~ 1e-163 here: a product of two second differences underflows to 0.
        # r underflows near the poles, so the grid stops short of them.
        self._check_inflections(ModelSpec(m, n, m * n), np.linspace(-0.45, 0.45, 9001))


class TestPoleSlopes:
    @pytest.mark.parametrize(
        "m,n,south,north",
        [
            (2, 1, sqrt(2), float("inf")),
            (2, 2, 1.0, 1.0),
            (2, 4, 0.5, None),
            (1, 1, float("inf"), float("inf")),
            (3, 3, 0.0, 0.0),
        ],
    )
    def test_slope_rules(self, m, n, south, north):
        spec = ModelSpec(m, n, 8 * m * n)
        got_south, got_north = meanfield.pole_slopes(spec)
        assert got_south == south
        if north is not None:
            assert got_north == north
        h = 1e-9
        num = meanfield.radius(spec, -0.5 + h) / h
        if south == float("inf"):
            assert num > 1e3
        else:
            assert num == pytest.approx(south, abs=1e-3)


class TestTrajectory:
    def test_stationary_at_center(self):
        spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
        fp = [f for f in meanfield.find_fixed_points(spec) if f.p == pytest.approx(0.0, abs=1e-9)][0]
        rec = meanfield.integrate_trajectory(spec, (fp.sx, 0.0, fp.p), 5.0, 1e-3)
        assert np.max(np.abs(rec.states - rec.states[0])) < 1e-9
        assert rec.drift_h < 1e-13 and rec.drift_c < 1e-13

    def test_bloch_precession_period(self):
        # eps = 0 rotation about the x-axis with period 2*pi/v
        v = 1.0
        spec = ModelSpec(1, 1, 20, eps=0.0, v=v)
        rec = meanfield.integrate_trajectory(spec, (0.0, 0.0, 0.5), 2 * pi / v, 1e-4, stride=1)
        # closed-form rotation about the x axis, compared at the landed times
        want = np.stack([
            np.zeros_like(rec.times),
            -0.5 * np.sin(v * rec.times),
            0.5 * np.cos(v * rec.times),
        ], axis=1)
        assert np.max(np.abs(rec.states - want)) < 1e-9

    def test_off_surface_rejected(self):
        spec = ModelSpec(2, 1, 80)
        for start in ((0.4, 0.0, 0.0), (float("nan"), 0.0, 0.0)):
            with pytest.raises(ValueError, match="surface"):
                meanfield.integrate_trajectory(spec, start, 1.0, 1e-3)

    def test_diverging_flow_reports_nan_drift(self):
        # dt = 5 is far beyond RK4's stability limit: the state overflows to NaN
        rec = meanfield.integrate_trajectory(
            ModelSpec(2, 1, 80, eps=0.5, v=1.0), (0.0, 0.0, 0.5), 20000.0, 5.0)
        assert np.isnan(rec.states[-1]).all()
        assert np.isnan(rec.drift_h) and np.isnan(rec.drift_c)

    def test_conservation_medium_run(self):
        spec = ModelSpec(3, 3, 90, eps=0.1, v=1.0)
        start = meanfield.surface_point(spec, 0.2, 1.1)
        rec = meanfield.integrate_trajectory(spec, start, 20.0, 1e-3)
        assert rec.drift_h < 1e-11
        assert rec.drift_c < 1e-11

    def test_states_stay_on_surface(self):
        spec = ModelSpec(2, 2, 32, eps=0.3, v=1.0)
        rec = meanfield.integrate_trajectory(
            spec, meanfield.surface_point(spec, -0.17, 2.0), 10.0, 1e-3, stride=50
        )
        worst = max(abs(meanfield.casimir_value(spec, s)) for s in rec.states)
        assert worst < 1e-11

    @pytest.mark.parametrize("m,n,N,eps,p,angle", [
        (2, 1, 80, 0.5, 0.2, 1.0),
        (1, 1, 20, 0.7, 0.3, 0.5),
        (3, 3, 90, 0.3, 0.1, 1.0),
        (4, 1, 160, 0.5, 0.1, 2.0),
        (2, 2, 160, 0.9, -0.4, 0.5),  # conical south pole, orbit beside the tip
    ])
    def test_return_time_is_orbit_period(self, m, n, N, eps, p, angle):
        # cross-layer oracle: successive upward zero crossings of sy on
        # the RK4 path are one period T(E) of the semiclassical quadrature
        from scipy.interpolate import CubicHermiteSpline
        from kummer import semiclassics

        spec = ModelSpec(m, n, N, eps=eps, v=1.0)
        start = meanfield.surface_point(spec, p, angle)
        energy = spec.v * start[0] + spec.eps * start[2]
        assert len(semiclassics.turning_points(spec, energy).regions) == 1
        period = semiclassics.orbit_period(spec, energy)
        rec = meanfield.integrate_trajectory(spec, start, 3.2 * period, 1e-3, stride=1)
        sx, sy, sz = rec.states.T
        dsy = spec.eps * sx - spec.v * meanfield.classical_commutator(spec, sz)
        path = CubicHermiteSpline(rec.times, sy, dsy)
        roots = path.roots(extrapolate=False)
        returns = np.diff(roots[path(roots, 1) > 0])
        assert len(returns) >= 2
        assert np.max(np.abs(returns - period)) < 1e-8 * period


class TestMesh:
    def test_sphere_mesh(self):
        mesh = meanfield.kummer_mesh(ModelSpec(1, 1, 4), 9, 17)
        assert mesh.shape == (17, 9, 3)
        radii = np.hypot(mesh[:, :, 0], mesh[:, :, 1])
        want = np.sqrt(np.maximum(0.25 - mesh[:, :, 2] ** 2, 0))
        assert np.allclose(radii, want, atol=1e-14)

    def test_teardrop_tip_and_smooth_top(self):
        mesh = meanfield.kummer_mesh(ModelSpec(2, 1, 8), 5, 41)
        radii = np.hypot(mesh[:, :, 0], mesh[:, :, 1])
        assert np.allclose(radii[0], 0.0, atol=1e-15)  # south tip
        assert np.allclose(radii[-1], 0.0, atol=1e-15)  # north pole
        # tip is linear, smooth pole is sqrt-like: compare shell growth
        u = mesh[1, 0, 2] + 0.5
        south_growth = radii[1, 0] / u
        assert south_growth == pytest.approx(sqrt(2) * sqrt(1 - u), rel=1e-12)

    def test_both_poles_cusped(self):
        mesh = meanfield.kummer_mesh(ModelSpec(3, 3, 18), 5, 81)
        radii = np.hypot(mesh[:, :, 0], mesh[:, :, 1])
        dp = mesh[1, 0, 2] - mesh[0, 0, 2]
        assert radii[1, 0] / dp < 0.1  # zero slope at cusp
        assert radii[-2, 0] / dp < 0.1

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            meanfield.kummer_mesh(ModelSpec(1, 1, 4), 1, 16)
        with pytest.raises(ValueError):
            meanfield.kummer_mesh(ModelSpec(1, 1, 4), 16, 1)


def _reference_product(m, n):
    """(1/2+p)^m (1/2-p)^n, built directly with polypow/polymul."""
    xp, yp = np.array([0.5, 1.0]), np.array([0.5, -1.0])
    return npoly.polymul(npoly.polypow(xp, m), npoly.polypow(yp, n))


class TestStructurePolynomials:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(1, 7)])
    def test_bit_identical_to_direct_builds(self, m, n):
        core = meanfield.structure_polynomials(m, n)
        pref = float(m) ** (2 - n) * float(n) ** (2 - m)
        term = n * _reference_product(m, n - 1)
        term2 = m * _reference_product(m - 1, n)
        f = np.zeros(max(len(term), len(term2)))
        f[: len(term)] += term
        f[: len(term2)] -= term2
        assert np.array_equal(core.f, 0.5 * pref * f)
        assert np.array_equal(core.g, -pref * _reference_product(m, n))
        # r^2 part of the band polynomial v^2 r^2 - (E - eps*p)^2 at v = 1
        assert np.array_equal(core.r0sq * core.pole, pref * _reference_product(m, n))
        assert meanfield.structure_polynomials(m, n) is core
        assert not core.f.flags.writeable

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 3), (3, 3), (4, 2)])
    def test_coefficients_match_closed_forms(self, m, n):
        spec = ModelSpec(m, n, m * n)
        core = meanfield.structure_polynomials(m, n)
        ps = np.linspace(-0.5, 0.5, 101)
        f = meanfield.classical_commutator(spec, ps)
        g = meanfield.classical_casimir(spec, ps)
        assert np.allclose(npoly.polyval(ps, core.f), f, rtol=0, atol=1e-14)
        assert np.allclose(npoly.polyval(ps, core.g), g, rtol=0, atol=1e-14)
        # v^2 f^2 - eps^2 r^2 = (v^2 fixed_a - eps^2 fixed_b) x^am y^an
        x, y = 0.5 + ps, 0.5 - ps
        divided = x ** (m if m >= 2 else 0) * y ** (n if n >= 2 else 0)
        assert np.allclose(npoly.polyval(ps, core.fixed_a) * divided, f**2, rtol=0, atol=1e-14)
        assert np.allclose(npoly.polyval(ps, core.fixed_b) * divided, -g, rtol=0, atol=1e-14)


def _exact_mul(a, b):
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _exact_power(base, k):
    out = [1]
    for _ in range(k):
        out = _exact_mul(out, base)
    return out


class TestFixedPointRoots:
    @pytest.mark.parametrize("eps", [1e-7, -1e-7, 2e-4, -2e-4, -2.2e-4, 1e-3, -1e-3])
    def test_bloch_sphere_small_eps(self, eps):
        # both interior points are found, even when they lie only 1e-7 apart
        fps = meanfield.find_fixed_points(ModelSpec(1, 1, 20, eps=eps, v=1.0))
        interior = sorted(fp.p for fp in fps if fp.location == "interior")
        p0 = abs(eps) / (2.0 * sqrt(eps * eps + 1.0))
        assert len(interior) == 2
        assert interior[0] == pytest.approx(-p0, abs=1e-12)
        assert interior[1] == pytest.approx(p0, abs=1e-12)

    @pytest.mark.parametrize("eps", [s * e for e in (1e-6, 1e-7, 1e-9, 1e-12, 1e-15)
                                     for s in (1, -1)] + [5.55e-17])
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_pair_about_zero_of_f_at_small_eps(self, m, n, eps):
        # the q = 0 and q = pi points about p0, where f = 0, lie within rounding
        # of each other at small |eps|; both are kept, at E = +-v r(p0) + O(eps)
        spec = ModelSpec(m, n, m * n, eps=eps, v=1.0)
        p0 = (m - n) / (2.0 * (m + n))
        interior = [fp for fp in meanfield.find_fixed_points(spec) if fp.location == "interior"]
        pair = sorted(interior, key=lambda fp: abs(fp.p - p0))[:2]
        assert sorted(fp.q for fp in pair) == [0.0, pi]
        r = meanfield.radius(spec, p0)
        for fp in pair:
            assert abs(fp.energy - (r if fp.q == 0.0 else -r)) <= abs(eps) + 1e-12

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
    def test_root_on_pole_at_transcritical_eps_is_dropped(self, m, n):
        spec = ModelSpec(m, n, m * n, v=1.0)
        for ev in meanfield.classify_bifurcations(spec):
            if ev.kind == "transcritical":
                fps = meanfield.find_fixed_points(spec.with_eps(ev.eps_critical))
                assert all(-0.5 < fp.p < 0.5 for fp in fps if fp.location == "interior")

    def test_mpmath_oracle(self):
        """Interior roots against 50-digit roots of the exact residual.

        eps runs over a shifted grid in [-3, 3] that by construction keeps
        at least 1e-6 from every critical eps (there the count is not
        locally constant) and from eps = 0 (a separate closed form).
        """
        from fractions import Fraction

        mpmath = pytest.importorskip("mpmath")
        eps_grid = np.linspace(-2.98, 2.98, 61) + 0.0123

        x, y = [Fraction(1, 2), Fraction(1)], [Fraction(1, 2), Fraction(-1)]
        with mpmath.workdps(50):
            for m in range(1, 5):
                for n in range(1, 5):
                    spec = ModelSpec(m, n, m * n, v=1.0)
                    critical = [ev.eps_critical for ev in meanfield.classify_bifurcations(spec)]
                    assert all(abs(e - c) > 1e-6 for e in eps_grid for c in critical + [0.0])
                    am, an = (m if m >= 2 else 0), (n if n >= 2 else 0)
                    r0sq = Fraction(m) ** (2 - n) * Fraction(n) ** (2 - m)
                    lin = [Fraction(n - m, 2), Fraction(m + n)]
                    a = _exact_mul(_exact_power(x, 2 * m - 2 - am), _exact_power(y, 2 * n - 2 - an))
                    a = _exact_mul(a, _exact_mul(lin, lin))
                    b = _exact_mul(_exact_power(x, m - am), _exact_power(y, n - an))
                    for eps in eps_grid:
                        e2 = Fraction(float(eps)) ** 2
                        coeffs = [(r0sq / 2) ** 2 * ak - e2 * r0sq * (b[k] if k < len(b) else 0)
                                  for k, ak in enumerate(a)]
                        roots = mpmath.polyroots(
                            [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)],
                            maxsteps=200, extraprec=200,
                        )
                        want = sorted(float(mpmath.re(z)) for z in roots
                                      if abs(mpmath.im(z)) < 1e-30 and -0.5 < mpmath.re(z) < 0.5)
                        got = [fp.p for fp in meanfield.find_fixed_points(spec.with_eps(float(eps)))
                               if fp.location == "interior"]
                        assert len(got) == len(want), (m, n, eps)
                        assert np.allclose(got, want, rtol=0, atol=1e-12), (m, n, eps)
