import pytest

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
