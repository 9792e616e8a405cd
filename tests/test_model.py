import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_solve import (
    DEFAULTS,
    InvalidParams,
    ModelParams,
    default_params,
    validate,
)

from .helpers import invert_increasing


def test_defaults_accepted():
    p = validate(DEFAULTS)
    assert isinstance(p, ModelParams)
    assert p.lam == 0.2
    assert p.delta == 0.08
    assert p.sigma == 1.85
    assert p.x_reserve == 0.1


def test_reservation_rate_below_discount_rejected():
    bad = dict(DEFAULTS, **{"lambda": 0.05})
    with pytest.raises(InvalidParams) as exc:
        validate(bad)
    names = {v.name for v in exc.value.violations}
    assert names == {"lambda"}
    (viol,) = exc.value.violations
    assert "delta" in viol.constraint


def test_zero_noise_rejected():
    with pytest.raises(InvalidParams) as exc:
        validate(dict(DEFAULTS, sigma=0.0))
    assert {v.name for v in exc.value.violations} == {"sigma"}


def test_all_violations_collected():
    bad = dict(DEFAULTS, **{"lambda": 0.05, "sigma": 0.0, "p": 1.5, "bogus": 1.0})
    del bad["c"]
    with pytest.raises(InvalidParams) as exc:
        validate(bad)
    names = {v.name for v in exc.value.violations}
    assert names == {"lambda", "sigma", "p", "bogus", "c"}


def test_non_numeric_rejected():
    with pytest.raises(InvalidParams) as exc:
        validate(dict(DEFAULTS, sigma="loud", delta=float("nan")))
    names = {v.name for v in exc.value.violations}
    assert "sigma" in names and "delta" in names


def test_default_curves_spot_values(params):
    # phi(a) = 3(1 - e^{-a/10}), h(a) = e^{a/10} - 1, U(x) = x^{1/4}
    assert params.phi(0.0) == 0.0
    assert params.h(0.0) == 0.0
    assert math.isclose(params.phi(1.0), 3.0 * (1.0 - math.exp(-0.1)), rel_tol=1e-14)
    assert math.isclose(params.h(1.0), math.exp(0.1) - 1.0, rel_tol=1e-14)
    assert math.isclose(params.u(16.0), 2.0, rel_tol=1e-14)
    assert math.isclose(params.u_inv(2.0), 16.0, rel_tol=1e-14)


def test_phi_bounded_and_monotone(params):
    a = np.linspace(0.0, 400.0, 2001)
    ph = params.phi(a)
    assert np.all(ph <= 3.0 + 1e-12)
    assert np.all(np.diff(ph) >= 0.0)  # saturates to 3 in float at large a
    assert np.all(np.diff(params.h(a)) > 0.0)
    a = np.linspace(0.0, 60.0, 2001)
    assert np.all(np.diff(params.phi(a)) > 0.0)
    x = np.linspace(1e-6, 50.0, 2001)
    assert np.all(np.diff(params.u(x)) > 0.0)
    assert np.all(np.diff(params.du(x)) < 0.0)  # concave utility


# effort_response inverts the increasing ratio h'/phi' scaled by sigma:
# effort_response(sigma y) = (h'/phi')^{-1}(y) for y above h'(0)/phi'(0)
def test_ratio_inverse_zero_anchor(params):
    # h'/phi' at a = 0 equals beta/(phi_max*alpha) = 1/3, so the inverse is 0
    assert params.effort_response(1.85 / 3.0) == pytest.approx(0.0, abs=1e-14)


def test_ratio_inverse_examples(params):
    assert params.effort_response(1.85) == pytest.approx(5.0 * math.log(3.0), rel=1e-12)
    assert params.effort_response(3.0) == pytest.approx(5.0 * math.log(9.0 / 1.85), rel=1e-12)


def test_ratio_inverse_against_bisection(params):
    # invert the increasing map a -> h'(a)/phi'(a) without the closed form
    def ratio(a):
        return params.dh(a) / params.dphi(a)

    for y in (0.5, 1.0, 3.0 / 1.85, 7.0, 40.0):
        a_oracle = invert_increasing(ratio, y, lo=0.0, hi=1.0)
        assert params.effort_response(params.sigma * y) == pytest.approx(a_oracle, rel=1e-9)


def test_ratio_round_trip_bulk(params):
    rng = np.random.default_rng(91)
    a = 10.0 ** rng.uniform(-3.0, 1.7, size=10_000)
    back = params.effort_response(params.sigma * (params.dh(a) / params.dphi(a)))
    assert np.max(np.abs(back - a) / np.maximum(1.0, np.abs(a))) <= 1e-10


def test_utility_inverse_round_trip_bulk(params):
    rng = np.random.default_rng(92)
    x = 10.0 ** rng.uniform(-6.0, 3.0, size=10_000)
    assert np.max(np.abs(params.u_inv(params.u(x)) - x) / x) <= 1e-12
    assert np.max(np.abs(params.du_inv(params.du(x)) - x) / x) <= 1e-12


@given(a=st.floats(min_value=1e-3, max_value=60.0))
@settings(max_examples=200, deadline=None)
def test_ratio_round_trip_property(a):
    p = default_params()
    y = p.dh(a) / p.dphi(a)
    assert p.effort_response(p.sigma * y) == pytest.approx(a, rel=1e-10, abs=1e-10)


@given(x=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_utility_round_trip_property(x):
    p = default_params()
    assert p.u_inv(p.u(x)) == pytest.approx(x, rel=1e-12)
    assert p.du_inv(p.du(x)) == pytest.approx(x, rel=1e-12)


def test_cost_impact_ratio_matches_derivatives(params):
    a = np.linspace(1e-4, 30.0, 57)
    assert np.allclose(params.cost_impact_ratio(a),
                       params.dh(a) / params.dphi(a), rtol=1e-13)
