import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_solve import (
    Grid,
    NoConvergence,
    NonMonotoneScheme,
    howard_solve,
    residual_check,
)
from contract_solve import hjbvi
from contract_solve.hjbvi import _best_effort, _evaluate

from .helpers import discretize, golden_max, grid_argmax, hamiltonian_max, unbatched_improve


def _effort_value(params, a, dw, d2w):
    """f(a) = D(a) w'' + h(a) w' + phi(a), D(a) = 1/2 (sigma h'(a)/phi'(a))^2."""
    return 0.5 * (params.sigma * params.dh(a) / params.dphi(a)) ** 2 * d2w \
        + params.h(a) * dw + params.phi(a)


def _effort_slope(params, a, dw, d2w):
    """f'(a); for this family (h'/phi')' = (alpha + beta) h'/phi'."""
    k = params.alpha + params.beta
    ratio = params.dh(a) / params.dphi(a)
    return k * (params.sigma * ratio) ** 2 * d2w + params.dh(a) * dw + params.dphi(a)


def _joint_hamiltonian(params, x, dw, d2w):
    """Brute-force sup of the Hamiltonian, exploiting (r, a) separability."""
    _, best_a = grid_argmax(lambda a: _effort_value(params, a, dw, d2w), 0.0, 50.0, 200_001)
    _, best_r = grid_argmax(lambda r: -params.u(r) * dw - r, 0.0, 5.0, 200_001)
    return best_a + best_r + params.lam * x * dw


class TestHamiltonianMax:
    def test_nonnegative_slope_kills_rent(self, params):
        _, r, _ = hamiltonian_max(params, 0.5, 0.3, -1.0)
        assert r == 0.0
        _, r, _ = hamiltonian_max(params, 0.5, 0.0, -1.0)
        assert r == 0.0

    def test_rent_closed_form_at_unit_slope(self, params):
        _, r, _ = hamiltonian_max(params, 0.5, -1.0, -1.0)
        assert r == pytest.approx(4.0 ** (-4.0 / 3.0), rel=1e-12)
        r_oracle, _ = golden_max(lambda rr: params.u(rr) - rr, 0.0, 2.0)
        assert r == pytest.approx(r_oracle, abs=1e-8)

    def test_huge_curvature_kills_effort(self, params):
        _, _, a = hamiltonian_max(params, 0.5, -1.0, -1e6)
        assert a == 0.0

    def test_negative_state_rejected(self, params):
        with pytest.raises(ValueError):
            hamiltonian_max(params, -0.1, -1.0, -1.0)

    def test_value_against_grid_search(self, params):
        rng = np.random.default_rng(5)
        for _ in range(12):
            x = rng.uniform(0.0, 1.0)
            dw = rng.uniform(-3.0, 1.0)
            d2w = rng.uniform(-40.0, -0.1)
            val, _, _ = hamiltonian_max(params, x, dw, d2w)
            brute = _joint_hamiltonian(params, x, dw, d2w)
            assert val >= brute - 1e-9
            assert val == pytest.approx(brute, abs=1e-6)
        # w'' >= 0: from interior maxima (tiny w'') to the effort cap, where
        # the values reach ~1e9 and rounding scales with them
        for _ in range(12):
            x = rng.uniform(0.0, 1.0)
            dw = rng.uniform(-3.0, 1.0)
            d2w = 10.0 ** rng.uniform(-9.0, 1.0)
            val, _, _ = hamiltonian_max(params, x, dw, d2w)
            brute = _joint_hamiltonian(params, x, dw, d2w)
            assert val >= brute - 1e-9 * max(1.0, abs(brute))
            assert val == pytest.approx(brute, rel=1e-12, abs=1e-6)
        assert hamiltonian_max(params, 0.5, -1.0, 0.0)[0] == pytest.approx(
            _joint_hamiltonian(params, 0.5, -1.0, 0.0), abs=1e-6)


_SLOPE = st.floats(min_value=-5.0, max_value=2.0)
_CURVATURE = st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                       st.floats(min_value=-1e-6, max_value=1e-6))


class TestBestEffort:
    """The effort maximizer against brute force and its first-order condition."""

    @given(dw=_SLOPE, d2w=_CURVATURE)
    @settings(max_examples=150, deadline=None)
    def test_never_beaten_by_grid_and_stationary_inside(self, params, dw, d2w):
        a, g, _ = _best_effort(params, np.array([dw]), np.array([d2w]))
        a, g = float(a[0]), float(g[0])
        assert 0.0 <= a <= 50.0
        f_a = _effort_value(params, a, dw, d2w)
        assert g == pytest.approx(f_a, rel=1e-13, abs=1e-13)
        _, brute = grid_argmax(lambda t: _effort_value(params, t, dw, d2w), 0.0, 50.0, 200_001)
        assert f_a >= brute - 1e-12 * max(1.0, abs(f_a))
        if 0.0 < a < 50.0:
            slope = _effort_slope(params, a, dw, d2w)
            assert abs(slope) < 1e-9 * max(1.0, abs(float(params.dphi(a))))

    @given(dw=_SLOPE, d2w=st.floats(min_value=1.0, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_large_positive_curvature_sits_at_cap(self, params, dw, d2w):
        a, _, n_convex = _best_effort(params, np.array([dw]), np.array([d2w]))
        assert a[0] == 50.0
        assert n_convex == 1

    def test_convex_count(self, params):
        d2w = np.array([-2.0, -1e-300, 0.0, 1e-300, 3.0])
        _, _, n_convex = _best_effort(params, np.full(5, -1.0), d2w)
        assert n_convex == 3


class TestDiscretize:
    def test_zero_everything_is_zero(self, params, grid):
        w = np.zeros(grid.n)
        for i in (1, 700, grid.n - 2):
            assert discretize(params, grid, w, i, 0.0, 0.0) == 0.0

    def test_linear_w_has_no_curvature_term(self, params):
        # dyadic grid so the linear second difference cancels exactly
        g = Grid.make(x_max=1.0, n=2049)
        w = 2.0 - 3.0 * g.x
        r, a = 0.1, 1.5
        for i in (1, 1000, g.n - 2):
            b = params.lam * g.x[i] - float(params.u(r)) + float(params.h(a))
            if b >= 0.0:
                first = (w[i + 1] - w[i]) / g.dx
            else:
                first = (w[i] - w[i - 1]) / g.dx
            expected = b * first + float(params.phi(a)) - r - params.delta * w[i]
            assert discretize(params, g, w, i, r, a) == expected

    def test_boundary_nodes_rejected(self, params, grid):
        w = np.zeros(grid.n)
        for i in (0, grid.n - 1):
            with pytest.raises(ValueError):
                discretize(params, grid, w, i, 0.0, 0.0)

    def test_monotone_in_neighbors(self, params, grid):
        # raising a neighbour value never lowers the operator; raising the
        # node's own value never raises it. This is the M-matrix property
        # that makes the scheme monotone.
        rng = np.random.default_rng(11)
        w = rng.normal(size=grid.n)
        for _ in range(40):
            i = int(rng.integers(1, grid.n - 1))
            r = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.0, 10.0))
            base = discretize(params, grid, w, i, r, a)
            for j, sign in ((i + 1, 1.0), (i - 1, 1.0), (i, -1.0)):
                bumped = w.copy()
                bumped[j] += 1e-6
                assert sign * (discretize(params, grid, bumped, i, r, a) - base) >= 0.0


class TestGrid:
    def test_rejects_bad_values(self):
        for x_max, n in ((1.0, 2), (0.0, 11), (-1.0, 11), (math.nan, 11), (math.inf, 11)):
            with pytest.raises(ValueError):
                Grid.make(x_max, n)


class TestHowardSolve:
    def test_boundary_pin(self, sb):
        assert sb.w[0] == 0.0

    def test_stop_region_on_obstacle(self, params, sb):
        x_stop = sb.grid.x[sb.stop]
        w_stop = sb.w[sb.stop]
        assert np.max(np.abs(w_stop + x_stop**4)) <= 1e-9

    def test_value_above_obstacle(self, params, sb):
        assert np.all(sb.w >= -sb.grid.x**4 - 1e-9)

    def test_stop_region_is_upper_interval(self, sb):
        i0 = int(np.argmax(sb.stop[1:])) + 1
        assert sb.grid.x[i0] == sb.b_hat
        assert sb.stop[i0:].all()
        assert not sb.stop[1:i0].any()
        assert 0.0 < sb.b_hat < sb.grid.x_max

    def test_iteration_and_growth_bounds(self, sb):
        assert sb.iterations <= 200
        assert sb.k_growth <= 10.0
        bound = sb.k_growth + sb.grid.x**4
        assert np.all(np.abs(sb.w) <= bound + 1e-12)

    def test_effort_positive_in_continuation(self, sb):
        interior = ~sb.stop
        interior[0] = False
        assert np.all(sb.a_star[interior] > 0.0)

    def test_convex_branch_counted(self, sb):
        # interior nodes get two effort maximizations per sweep, the two ends one
        assert isinstance(sb.effort_convex_nodes, int)
        assert 0 < sb.effort_convex_nodes <= 2 * sb.grid.n * sb.iterations

    def test_converged_residual(self, params, grid, sb):
        assert sb.residual <= 1e-8
        assert residual_check(sb, params, grid) <= 1e-8

    def test_rent_matches_closed_form_on_drift_consistent_nodes(self, params, sb):
        # recompute the rent from the converged slopes: r = (U')^{-1}(-1/w')
        # on the upwind side selected by the stored drift sign. Nodes where
        # that recomputation flips the drift sign are genuine pinch points
        # (the maximizer sits at the drift sign change); the stored policy
        # may keep the other branch there, so they are exempt but counted.
        g, w = sb.grid, sb.w
        x = g.x[1:-1]
        r, a = sb.r_star[1:-1], sb.a_star[1:-1]
        cont = ~sb.stop[1:-1]
        b = params.lam * x - params.u(r) + params.h(a)
        dw = np.where(b >= 0.0, (w[2:] - w[1:-1]) / g.dx, (w[1:-1] - w[:-2]) / g.dx)
        neg = dw < 0.0
        r_hat = np.where(neg, params.du_inv(np.where(neg, -1.0 / np.where(neg, dw, -1.0), 1.0)), 0.0)
        b_hat_drift = params.lam * x - params.u(r_hat) + params.h(a)
        sign_consistent = (b >= 0.0) == (b_hat_drift >= 0.0)
        dev = np.abs(r - r_hat) / np.maximum(1.0, np.abs(r_hat))
        assert np.max(dev[cont & sign_consistent]) <= 1e-10
        pinched = cont & (dev > 1e-10)
        assert int(pinched.sum()) <= 2
        assert not np.any(sign_consistent[pinched])

    def test_concave_on_continuation(self, sb):
        g, w = sb.grid, sb.w
        cont = ~sb.stop
        mask = cont[1:-1] & cont[2:] & cont[:-2]
        d2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / g.dx**2
        assert np.max(d2[mask]) <= 1e-7 / g.dx**2

    def test_residual_is_discretize_node_by_node(self, params, grid, sb):
        # the vectorized defect must be the scalar scheme, bit for bit
        psi = -params.u_inv(grid.x)
        defects = [abs(min(-discretize(params, grid, sb.w, i, sb.r_star[i], sb.a_star[i]),
                           sb.w[i] - psi[i]))
                   for i in range(1, grid.n - 1)]
        assert residual_check(sb, params, grid) == max(defects)

    def test_residual_rejects_a_foreign_grid(self, params, sb):
        # an equal grid reads the same; another x_max or n would misread w
        assert residual_check(sb, params, Grid.make(1.0, 2001)) == \
            residual_check(sb, params, sb.grid)
        for foreign in (Grid.make(0.8, 2001), Grid.make(1.0, 401)):
            with pytest.raises(ValueError, match="not the solution's"):
                residual_check(sb, params, foreign)

    def test_perturbed_value_flags_defect(self, params, grid, sb):
        w = sb.w.copy()
        w[400] += 1e-3  # interior continuation node
        assert residual_check(dataclasses.replace(sb, w=w), params, grid) >= 1e-4
        w = sb.w.copy()
        i = int(np.argmax(sb.stop[1:])) + 5
        w[i] += 1e-3  # stop node pushed off the obstacle
        assert residual_check(dataclasses.replace(sb, w=w), params, grid) >= 1e-4

    def test_no_convergence_raises(self, params):
        g = Grid.make(x_max=1.0, n=201)
        with pytest.raises(NoConvergence) as exc:
            howard_solve(params, g, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual > 0.0

    @pytest.mark.parametrize("budget", [43, 52, 57])
    def test_budget_spent_at_a_level_boundary(self, params, grid, budget):
        # the default levels take 43/9/5/4 sweeps: each budget is used up
        # exactly when a level ends, and the next level starts with none
        with pytest.raises(NoConvergence) as exc:
            howard_solve(params, grid, max_iter=budget)
        assert exc.value.iterations == budget
        assert exc.value.residual > 0.0

    def test_budget_below_one_rejected(self, params, grid):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                howard_solve(params, grid, max_iter=budget)

    def test_non_monotone_scheme_raises(self, params):
        g = Grid.make(x_max=1.0, n=21)
        r = np.full(g.n, 0.1)
        r[5] = np.inf  # U(r) = inf makes that row's diagonal infinite
        a = np.full(g.n, 1.0)
        stop = np.zeros(g.n, dtype=bool)
        with pytest.raises(NonMonotoneScheme):
            _evaluate(params, g, r, a, stop, -g.x**4)


class TestBatchedImprove:
    """_improve's one stacked _best_response call against the three-call oracle."""

    @staticmethod
    def _assert_same(got, want):
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)
        assert got[3] == want[3]

    def test_every_sweep_of_a_default_solve(self, params, grid, sb, monkeypatch):
        real = hjbvi._improve
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hjbvi, "_improve", recording)
        sol = howard_solve(params, grid)
        assert len(calls) == sol.iterations == sb.iterations
        assert sorted({args[1].n for args in calls}) == [251, 501, 1001, 2001]
        for args in calls:
            self._assert_same(real(*args), unbatched_improve(*args))

    def test_perturbed_value(self, params, grid, sb):
        # random kinks give both curvature signs and wild slopes
        w = sb.w + 1e-4 * np.random.default_rng(3).standard_normal(grid.n)
        args = (params, grid, w, -params.u_inv(grid.x), sb.r_star, sb.a_star)
        got = hjbvi._improve(*args)
        self._assert_same(got, unbatched_improve(*args))
        assert 0 < got[3] < 2 * grid.n

    @pytest.mark.parametrize("sigma", [1.5, 1.85, 2.2])
    def test_whole_solution(self, params, grid, sb_for_sigma, monkeypatch, sigma):
        want = sb_for_sigma(sigma)
        monkeypatch.setattr(hjbvi, "_improve", unbatched_improve)
        got = howard_solve(dataclasses.replace(params, sigma=sigma), grid)
        for name in ("w", "r_star", "a_star", "stop"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("b_hat", "k_growth", "iterations", "residual", "effort_convex_nodes"):
            assert getattr(got, name) == getattr(want, name), name

    def test_one_effort_maximization_per_sweep(self, params, grid, monkeypatch):
        real = hjbvi._best_effort
        count = 0

        def counting(*args):
            nonlocal count
            count += 1
            return real(*args)

        monkeypatch.setattr(hjbvi, "_best_effort", counting)
        sol = howard_solve(params, grid)
        assert count == sol.iterations


class TestRobustness:
    def test_noise_ordering(self, sb_for_sigma):
        lo, mid, hi = (sb_for_sigma(s) for s in (1.5, 1.85, 2.2))
        assert np.all(lo.w >= mid.w - 1e-6)
        assert np.all(mid.w >= hi.w - 1e-6)
        assert lo.b_hat > mid.b_hat > hi.b_hat

    def test_boundary_stable_under_refinement(self, params, sb):
        fine = howard_solve(params, Grid.make(x_max=1.0, n=4001))
        assert abs(fine.b_hat - sb.b_hat) <= 2.0 * sb.grid.dx

    def test_boundary_stable_under_domain_change(self, params, sb):
        # same spacing, smaller domain; the free boundary must not move
        clipped = howard_solve(params, Grid.make(x_max=0.8, n=1601))
        assert abs(clipped.b_hat - sb.b_hat) <= 2.0 * sb.grid.dx
