import numpy as np
import pytest

from kummer import meanfield, quantum, semiclassics
from kummer.model import ModelSpec


def test_valid_spec_derived_quantities():
    spec = ModelSpec(2, 1, 80, eps=0.5, v=1.0)
    assert spec.dim == 41
    assert spec.eta == pytest.approx(1.0 / 41, abs=0)
    assert spec.z_max == 20.0
    assert spec.sz_value(0) == -20.0
    assert spec.sz_value(40) == 20.0


@pytest.mark.parametrize(
    "m,n,N",
    [(0, 1, 4), (1, 0, 4), (2, 1, 7), (2, 2, 2), (1, 1, 0), (3, 2, 100)],
)
def test_invalid_specs_rejected(m, n, N):
    with pytest.raises(ValueError):
        ModelSpec(m, n, N)


@pytest.mark.parametrize("field", ["eps", "v"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameter_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelSpec(2, 1, 8, **{field: value})


def test_eta_exact_form():
    spec = ModelSpec(3, 3, 360)
    assert spec.eta == 1.0 / (360 / 9 + 1)


def test_with_eps_and_mirror():
    spec = ModelSpec(3, 2, 60, eps=0.1, v=2.0)
    assert spec.with_eps(0.7).eps == 0.7
    assert spec.with_eps(0.7).N == 60
    mirror = spec.mirrored()
    assert (mirror.m, mirror.n) == (2, 3)
    assert mirror.eps == spec.eps


@pytest.mark.parametrize("eps,v,s", [
    (0.5, 1.0, 1.0), (-1.3, 1.0, 1.0), (0.0, -1.99, 1.0), (0.0, 0.0, 1.0),
    (3.0, 1.0, 2.0), (-2.0, 1.0, 2.0), (0.1, -0.2, 0.125), (1e200, 1.0, 2.0**664),
    (0.5e-300, 1e-300, 2.0**-997), (8e307, 1.0, 2.0**1022),
])
def test_unit_scale(eps, v, s):
    spec = ModelSpec(2, 1, 8, eps=eps, v=v)
    unit, got = spec.unit_scale()
    assert got == s
    assert (unit.m, unit.n, unit.N, unit.eps, unit.v) == (2, 1, 8, eps / s, v / s)
    assert unit is spec if s == 1.0 else 1.0 <= max(abs(unit.eps), abs(unit.v)) < 2.0


class TestCovariance:
    # H is linear in (eps, v): at 2^k (eps, v) every energy, rate and bin
    # edge is 2^k times that at (eps, v), and every period and density
    # 2^-k times, bit for bit wherever the scaled value is a normal double
    KS = (-1000, -300, -3, 1, 20, 150, 1000)
    TINY = np.finfo(float).tiny

    def assert_scaled(self, got, want, factor):
        got, want = np.asarray(got, dtype=float), factor * np.asarray(want, dtype=float)
        normal = ~((np.abs(want) < self.TINY) & (want != 0.0))
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        assert same[normal].all(), (got[normal & ~same], want[normal & ~same])

    def layers(self, spec, grid):
        """Each layer's results at spec, the energy grid scaled like spec's v."""
        fps = meanfield.find_fixed_points(spec)
        hist = quantum.dos_histogram(spec, 20)
        centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
        energies = spec.v * grid
        periods = []
        for e in energies:
            try:
                periods.append(semiclassics.orbit_period(spec, e))
            except ValueError:
                periods.append(np.nan)
        events = meanfield.classify_bifurcations(spec)
        curve = semiclassics.dos_semiclassical(spec, centers)
        return {
            "fixed-point energies": ([fp.energy for fp in fps], 1),
            "fixed-point rates": ([fp.rate for fp in fps], 1),
            "fixed-point kinds": ([(fp.p, fp.sx, fp.stability) for fp in fps], 0),
            "WKB levels": (semiclassics.semiclassical_spectrum(spec).energies, 1),
            "exact levels": (quantum.eigen_spectrum(spec).raw_eigenvalues, 1),
            "Sturm counts": (quantum.level_counts(spec, energies), 0),
            "bin edges": (hist.bin_edges, 1),
            "histogram density": (hist.density, -1),
            "semiclassical DOS": (curve.density, -1),
            "DOS saddle energies and margin": ([*curve.saddle_energies, curve.margin], 1),
            "orbit periods": (periods, -1),
            "critical eps": ([ev.eps_critical for ev in events], 1),
            "bifurcation energies": ([ev.energy for ev in events], 1),
        }

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_every_layer_scales_exactly(self, m, n):
        grid = np.linspace(-1.5, 1.5, 13)
        for eps in (-1.3, 0.0, 0.5, 0.9):
            unit = self.layers(ModelSpec(m, n, 40 * m * n, eps=eps), grid)
            for k in self.KS:
                s = 2.0**k
                scaled = self.layers(ModelSpec(m, n, 40 * m * n, eps=s * eps, v=s), grid)
                for name, (values, power) in unit.items():
                    got = scaled[name][0]
                    if power == 0:
                        assert list(got) == list(values), (eps, k, name)
                    else:
                        assert len(got) == len(values), (eps, k, name)
                        self.assert_scaled(got, values, s**power)
