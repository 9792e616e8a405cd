import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_solve import default_params

from .helpers import agent_payoff, agent_value, feynman_kac, fk_roundoff, grid_argmax


def test_psi_zero_effort(params):
    assert agent_payoff(params, 0.0, 0.7) == 0.0
    assert agent_payoff(params, 0.0, 0.0) == 0.0


def test_psi_spot_value(params):
    # -h(1) + 1.85 * phi(1) / 1.85, written out with independent arithmetic
    expected = -(math.exp(0.1) - 1.0) + 3.0 * (1.0 - math.exp(-0.1))
    assert agent_payoff(params, 1.0, 1.85) == pytest.approx(expected, rel=1e-12)


def test_threshold_value(params):
    # the smallest exposure that induces effort: sigma h'(0)/phi'(0) = 1.85 * 0.1 / 0.3
    assert params.exposure(0.0) == pytest.approx(1.85 / 3.0, rel=1e-12)


def test_effort_from_z_examples(params):
    assert params.effort_response(0.0) == 0.0
    assert params.effort_response(0.5) == 0.0  # below the threshold
    assert params.effort_response(params.exposure(0.0)) == 0.0
    assert params.effort_response(1.85) == pytest.approx(5.0 * math.log(3.0), rel=1e-12)


def test_z_from_effort_examples(params):
    a = 5.0 * math.log(3.0)
    assert params.exposure(a) == pytest.approx(1.85, rel=1e-12)


def test_negative_arguments_rejected(params):
    with pytest.raises(ValueError, match="exposure must be >= 0"):
        params.effort_response(-0.01)
    with pytest.raises(ValueError, match="exposure must be >= 0"):
        params.effort_response(np.array([1.0, -0.01]))


def test_round_trip_spot(params):
    for a in (0.1, 1.0, 5.0, 20.0):
        back = params.effort_response(params.exposure(a))
        assert back == pytest.approx(a, rel=1e-10)


def test_round_trip_bulk(params):
    rng = np.random.default_rng(17)
    a = 10.0 ** rng.uniform(-3.0, 1.6, size=10_000)
    back = params.effort_response(params.exposure(a))
    assert np.max(np.abs(back - a) / np.maximum(1.0, a)) <= 1e-10
    # and in the other direction, on the part of the z axis that maps to a > 0
    z = params.exposure(0.0) + 10.0 ** rng.uniform(-6.0, 1.5, size=10_000)
    z_back = params.exposure(params.effort_response(z))
    assert np.max(np.abs(z_back - z) / z) <= 1e-10


def test_round_trip_on_the_default_solve(params, sb):
    # the solver's efforts, zero effort included, are the agent's best
    # responses to the exposures the contract loads at them
    back = params.effort_response(params.exposure(sb.a_star))
    assert np.count_nonzero(sb.a_star == 0.0) > 0
    assert np.max(np.abs(back - sb.a_star)) <= 1e-12


@given(z=st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=300, deadline=None)
def test_best_response_never_beaten_property(z):
    p = default_params()
    a_star = p.effort_response(z)
    best = agent_payoff(p, a_star, z)
    rng = np.random.default_rng(int(z * 1e6) % (2**32))
    a = rng.uniform(0.0, 50.0, size=32)
    assert np.all(best >= agent_payoff(p, a, z) - 1e-12)


def test_best_response_randomized(params):
    rng = np.random.default_rng(23)
    z = rng.uniform(0.0, 10.0, size=1000)
    a = rng.uniform(0.0, 50.0, size=1000)
    best = agent_payoff(params, params.effort_response(z), z)
    assert np.all(best >= agent_payoff(params, a, z) - 1e-12)


def test_best_response_against_grid_search(params):
    # brute force over a in [0, 50] at step 1e-3 must not beat the formula
    for z in (0.0, 0.3, 0.61, 0.63, 1.0, 1.85, 3.7, 9.0):
        a_star = params.effort_response(z)
        best = agent_payoff(params, a_star, z)
        _, grid_best = grid_argmax(lambda a: agent_payoff(params, a, z),
                                   0.0, 50.0, 50_001)
        assert grid_best <= best + 1e-8, (z, grid_best, best)


class TestFeynmanKacTwins:
    """Deterministic twins of criterion 10: the agent's value under each
    effort, solved on the contract's grid instead of simulated."""

    @staticmethod
    def _continuation(sb):
        cont = ~sb.stop
        cont[0] = False
        return cont

    def test_principal_coefficients_reproduce_the_solution(self, params, sb):
        x, r, a = sb.grid.x, sb.r_star, sb.a_star
        w = feynman_kac(sb.grid, params.delta, 0.5 * params.exposure(a) ** 2,
                        params.lam * x - params.u(r) + params.h(a), params.phi(a) - r,
                        sb.stop, -params.u_inv(x))
        assert np.max(np.abs(w - sb.w)) <= fk_roundoff(sb.grid, sb.w)

    def test_obedience_keeps_the_promise(self, params, sb):
        # V(x) = x solves the discrete agent problem under a' = a*
        v = agent_value(params, sb, sb.a_star)
        cont = self._continuation(sb)
        assert np.max(np.abs(v - sb.grid.x)[cont]) <= 1e-9

    @pytest.mark.parametrize("scale", [0.0, 0.5, 2.0])
    def test_no_profitable_deviation_at_any_node(self, params, sb, scale):
        x = sb.grid.x
        margin = x - agent_value(params, sb, scale * sb.a_star)
        print(f"effort x{scale}: margin at x0 = 0.1 {np.interp(0.1, x, margin):+.3e}, "
              f"min over continuation nodes {margin[self._continuation(sb)].min():+.3e}")
        assert np.all(margin[self._continuation(sb)] >= -1e-9)
