import math

import mpmath as mp
import numpy as np
import pytest

from contract_solve import (
    BracketFailure,
    TauStar,
    closed_form_G,
    continuation_boundary,
    principal_value_fb,
    schedules,
    solve_lagrange,
    validate,
    DEFAULTS,
)
from contract_solve.first_best import _offer_integral, reservation_integral

from .helpers import invert_increasing, newton_invert

LAG_GRID = (0.5, 1.0, 3.0, 10.0)


def _mp_discounted(params, lambda_lag, rate, flow):
    """int_0^inf e^{-rate s} flow(R_s, A_s) ds by mpmath quadrature, split at
    the effort kink.

    The rent/effort schedules themselves are exercised elsewhere against
    their own optimality conditions; this oracle only makes the integration
    route independent of the package's closed forms and quadrature.
    """

    def rent(s):
        return float(schedules(params, lambda_lag, float(s))[0])

    def effort(s):
        return float(schedules(params, lambda_lag, float(s))[1])

    def f(s):
        s = float(s)
        return math.exp(-rate * s) * flow(rent(s), effort(s))

    points = [0.0]
    if effort(0.0) == 0.0 and effort(300.0) > 0.0:
        # effort is clamped at zero up to a kink time; locate it by bisection
        points.append(invert_increasing(effort, 1e-300, lo=0.0, hi=1.0))
    # every integrand here decays at least like e^{-0.08 s}: the tail past 600 is negligible
    points += [50.0, 300.0, 600.0]
    with mp.workdps(25):
        val = mp.quad(f, sorted(points))
    return float(val)


def _G_quad_oracle(params, lambda_lag):
    """G(m) = int_0^inf e^{-lam s} [U(R_s) - h(A_s)] ds."""
    return _mp_discounted(params, lambda_lag, params.lam,
                          lambda r, a: params.u(r) - params.h(a))


def _I_quad_oracle(params, lambda_lag):
    """I(m) = int_0^inf e^{-delta s} (phi(A_s) - R_s) ds."""
    return _mp_discounted(params, lambda_lag, params.delta,
                          lambda r, a: params.phi(a) - r)


def test_lagrange_anchor(params):
    assert reservation_integral(params, 3.0) == pytest.approx(1.64, abs=0.01)


def test_quadrature_matches_closed_form(params):
    for m in LAG_GRID:
        quad = reservation_integral(params, m)
        closed = closed_form_G(params, m)
        assert abs(quad - closed) < 1e-6, (m, quad, closed)


def test_closed_form_against_mpmath(params):
    for m in LAG_GRID:
        oracle = _G_quad_oracle(params, m)
        assert closed_form_G(params, m) == pytest.approx(oracle, abs=1e-7)


def test_reservation_equals_discount_branch():
    # lam == delta is allowed and takes the clamped-forever branch
    p = validate(dict(DEFAULTS, **{"lambda": 0.08}))
    for m in (1.0, 3.0):
        assert abs(reservation_integral(p, m) - closed_form_G(p, m)) < 1e-6
        assert closed_form_G(p, m) == pytest.approx(_G_quad_oracle(p, m), abs=1e-7)


def test_G_increasing(params):
    m = np.geomspace(0.2, 20.0, 25)
    g = np.array([closed_form_G(params, mi) for mi in m])
    assert np.all(np.diff(g) > 0.0)


def test_solve_lagrange_fixed_point(params):
    for x in (0.1, 0.5, 2.0, 5.0):
        m = solve_lagrange(params, x)
        assert abs(closed_form_G(params, m) - x) <= 1e-9


def test_solve_lagrange_example(params):
    assert solve_lagrange(params, 1.64) == pytest.approx(3.0, abs=0.05)


def test_solve_lagrange_monotone(params):
    xs = np.linspace(0.05, 5.0, 21)
    ms = np.array([solve_lagrange(params, x) for x in xs])
    assert np.all(np.diff(ms) > 0.0)


def test_solve_lagrange_rejects(params):
    with pytest.raises(ValueError):
        solve_lagrange(params, -0.5)
    with pytest.raises(BracketFailure):
        solve_lagrange(params, 1e9)


def test_schedule_anchor_at_zero(params):
    rent, effort, h_prof = schedules(params, 3.0, 0.0)
    assert float(effort) == 0.0
    # (U')^{-1}(1/3), checked against a Newton inversion of U'
    oracle = newton_invert(params.du, lambda x: -3.0 / 16.0 * x ** (-1.75),
                           1.0 / 3.0, x0=1.0)
    assert float(rent) == pytest.approx(0.75 ** (4.0 / 3.0), rel=1e-12)
    assert float(rent) == pytest.approx(oracle, rel=1e-10)
    assert float(h_prof) == pytest.approx(-float(rent), rel=1e-12)


def test_schedules_monotone_in_time(params):
    t = np.linspace(0.0, 50.0, 26)
    for m in LAG_GRID:
        rent, effort, h_prof = schedules(params, m, t)
        assert np.all(np.diff(rent) < 0.0)
        assert np.all(np.diff(effort) >= -1e-12)
        assert np.all(np.diff(h_prof) >= -1e-12)


def test_schedules_monotone_in_reservation(params):
    xs = np.linspace(0.1, 5.4, 21)
    ms = [solve_lagrange(params, x) for x in xs]
    for t in (0.0, 1.0, 5.0):
        rows = [schedules(params, m, t) for m in ms]
        rent = np.array([float(r) for r, _, _ in rows])
        effort = np.array([float(a) for _, a, _ in rows])
        h_prof = np.array([float(h) for _, _, h in rows])
        assert np.all(np.diff(rent) > 0.0)
        assert np.all(np.diff(effort) <= 1e-12)
        assert np.all(np.diff(h_prof) < 0.0)


def test_offer_decision_and_boundary(params):
    xb = continuation_boundary(params)
    above = principal_value_fb(params, xb + 0.05)
    assert above.tau_star is TauStar.ZERO
    assert above.value == 0.0
    below = principal_value_fb(params, xb - 0.05)
    assert below.tau_star is TauStar.INFINITY
    assert below.value > 0.0
    # value is continuous through the boundary
    assert abs(principal_value_fb(params, xb - 1e-3).value) < 1e-2


@pytest.mark.parametrize("lam", [DEFAULTS["lambda"], DEFAULTS["delta"]])
def test_offer_integral_against_mpmath(lam):
    # lam == delta keeps effort clamped forever beyond the kink
    p = validate(dict(DEFAULTS, **{"lambda": lam}))
    for x in (0.5, 2.0, 4.0):
        sol = principal_value_fb(p, x)
        assert sol.tau_star is TauStar.INFINITY
        assert sol.value == pytest.approx(_I_quad_oracle(p, sol.lambda_lag), abs=1e-8)
    # both sides of the kink, including surplus that is negative
    for m in LAG_GRID:
        assert _offer_integral(p, m) == pytest.approx(_I_quad_oracle(p, m), abs=1e-8)


def test_boundary_within_tolerance_of_oracle_sign_change(params):
    xb = continuation_boundary(params)
    assert _I_quad_oracle(params, solve_lagrange(params, xb - 1e-4)) > 0.0
    assert _I_quad_oracle(params, solve_lagrange(params, xb + 1e-4)) < 0.0


def test_value_non_increasing(params):
    xs = (0.5, 1.5, 3.0, 4.0, 4.5)
    vals = [principal_value_fb(params, x).value for x in xs]
    assert np.all(np.diff(vals) <= 0.0)


def test_solution_profile_callables(params):
    sol = principal_value_fb(params, 1.0)
    t = np.linspace(0.0, 10.0, 11)
    rent, effort, h_prof = schedules(params, sol.lambda_lag, t)
    assert np.allclose(h_prof, params.phi(effort) - rent, rtol=1e-13)
    assert float(schedules(params, sol.lambda_lag, 0.0)[0]) > 0.0
    assert abs(closed_form_G(params, sol.lambda_lag) - 1.0) <= 1e-9
