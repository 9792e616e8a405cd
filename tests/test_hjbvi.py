import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_solve import (
    Grid,
    NoConvergence,
    NonMonotoneScheme,
    default_params,
    howard_solve,
    howard_solve_many,
    residual_check,
)
from contract_solve import hjbvi
from contract_solve.hjbvi import _best_effort, _evaluate

from .helpers import (discretize, golden_max, grid_argmax, hamiltonian_max, unbatched_improve,
                      whole_system_evaluate)

_LEVEL_BOUNDARIES = [15, 24, 32]  # running sums of the default solve's level sweeps


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

    def test_sigma_column_gives_each_scalar_sigmas_bits(self, params, grid, sb):
        # numpy's array square rounds D0 differently from the scalar power
        # at sigma 1.8809, and D(50) at 1.5094; a batch must keep the scalar
        sigmas = [1.8809, 1.5094, 1.85]
        dw = np.diff(sb.w)[:-1] / grid.dx
        d2w = np.diff(sb.w, 2) / grid.dx**2
        batch = dataclasses.replace(params, sigma=np.array(sigmas)[:, None])
        got = _best_effort(batch, np.tile(dw, (3, 1)), np.tile(d2w, (3, 1)))
        for p, sigma in enumerate(sigmas):
            want = _best_effort(dataclasses.replace(params, sigma=sigma), dw, d2w)
            for g, w in zip(got, want):
                assert np.array_equal(g[p], w), sigma


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
            c = (params.lam * g.x[i] - float(params.u(r)) + float(params.h(a))) / (2.0 * g.dx)
            expected = c * (w[i + 1] - w[i - 1]) + (float(params.phi(a)) - r) - params.delta * w[i]
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
        for x_max, n in ((1.0, 2), (0.0, 11), (-1.0, 11), (math.nan, 11), (math.inf, 11),
                         (1.0, 100.5)):  # would space 100 nodes 1/99 apart with dx = 1/99.5
            with pytest.raises(ValueError):
                Grid.make(x_max, n)
        assert Grid.make(1.0, np.int64(11)).n == 11


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
        # every node gets one effort maximization per sweep
        assert isinstance(sb.effort_convex_nodes, int)
        assert 0 < sb.effort_convex_nodes <= sb.grid.n * sb.iterations

    def test_converged_residual(self, params, grid, sb):
        assert sb.residual <= 1e-8
        assert residual_check(sb, params, grid) <= 1e-8

    def test_rent_matches_closed_form_at_the_central_slope(self, params, sb):
        # recompute the rent from the converged central slopes on every
        # continuation node: r = (U')^{-1}(-1/w') where w' < 0, else 0
        g, w = sb.grid, sb.w
        cont = ~sb.stop[1:-1]
        dw = (w[2:] - w[:-2]) / (2.0 * g.dx)
        neg = dw < 0.0
        r_hat = np.where(neg, params.du_inv(np.where(neg, -1.0 / np.where(neg, dw, -1.0), 1.0)), 0.0)
        dev = np.abs(sb.r_star[1:-1] - r_hat) / np.maximum(1.0, np.abs(r_hat))
        assert np.max(dev[cont]) <= 1e-10

    def test_policy_is_greedy_at_the_returned_value(self, params, grid, sb):
        # no (r, a) near or far from the stored policy raises a continuation
        # row's discrete Hamiltonian (discretize plus delta w_i) by more than
        # 4 ulps of the sum of the magnitudes of its terms
        rng = np.random.default_rng(17)
        w, eps = sb.w, np.finfo(float).eps
        for i in np.flatnonzero(~sb.stop[1:-1]) + 1:
            r0, a0 = float(sb.r_star[i]), float(sb.a_star[i])
            base = discretize(params, grid, w, i, r0, a0) + params.delta * w[i]
            d = float(0.5 * params.exposure(a0) ** 2) / grid.dx**2
            c = (params.lam * grid.x[i] - float(params.u(r0)) + float(params.h(a0))) / (2 * grid.dx)
            scale = (abs(d * (w[i + 1] - 2.0 * w[i] + w[i - 1])) + abs(c * (w[i + 1] - w[i - 1]))
                     + float(params.phi(a0)) + r0)
            trials = [(r0 * (1.0 + s), a0) for s in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3)]
            trials += [(r0, a0 * (1.0 + s)) for s in (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3)]
            trials += [(0.0, a0), (r0, 0.0), (r0, 50.0)]
            trials += list(zip(rng.uniform(0.0, 2.0, 4), rng.uniform(0.0, 5.0, 4)))
            for r, a in trials:
                gain = discretize(params, grid, w, i, r, a) + params.delta * w[i] - base
                assert gain <= 4.0 * eps * scale, (i, r, a, gain)

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
        assert exc.value.nodes == 51  # the cold-start level of the 51/201-node cascade

    def test_level_sweeps_split_the_iterations(self, sb):
        # the default levels 32/126/501/2001 take 15/9/8/4 sweeps: the budgets
        # of test_budget_spent_at_a_level_boundary are their running sums
        assert sb.level_sweeps == ((32, 15), (126, 9), (501, 8), (2001, 4))
        assert [n for n, _ in sb.level_sweeps] == hjbvi._level_sizes(sb.grid.n)
        assert sum(k for _, k in sb.level_sweeps) == sb.iterations == 36
        assert list(np.cumsum([k for _, k in sb.level_sweeps[:-1]])) == _LEVEL_BOUNDARIES

    @pytest.mark.parametrize("budget", _LEVEL_BOUNDARIES)
    def test_budget_spent_at_a_level_boundary(self, params, grid, budget):
        # each budget is used up exactly when a level of the default solve
        # ends, and the next level starts with none, so the reported defect
        # is that of the next level's starting policy. Nodes 1998 and 1999 of
        # the 2001-node level round to the 501-node level's end, whose forced
        # stop the warm start does not copy, so they start continuing
        nodes, residual = {15: (126, "1.192e+00"), 24: (501, "9.370e-01"),
                           32: (2001, "7.173e-09")}[budget]
        with pytest.raises(NoConvergence) as exc:
            howard_solve(params, grid, max_iter=budget)
        assert exc.value.iterations == budget
        assert exc.value.nodes == nodes
        assert str(exc.value) == (f"no convergence after {budget} iterations "
                                  f"(residual {residual} on the {nodes}-node level)")

    def test_budget_below_one_rejected(self, params, grid, sb):
        # so is a fractional one: the budget is spent at the sweep that equals
        # it, which 2.5 or 200.5 never reaches (200.5 would sweep on forever
        # where 200 runs out, for sigma 3.0 on [0, 5]); a numpy integer passes
        for budget in (0, -1, 2.5, 200.5):
            with pytest.raises(ValueError, match="max_iter"):
                howard_solve(params, grid, max_iter=budget)
        _assert_same_solution(howard_solve(params, grid, max_iter=np.int64(200)), sb)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_a_tol_that_cannot_be_met_rejected(self, params, grid, tol):
        # convergence needs a value step below tol and a defect of at most
        # 10 tol, which no tol at or below 0, or NaN, allows; inf accepts any
        # defect (its solve returned a residual of 0.87)
        with pytest.raises(ValueError, match=r"^tol must be (> 0|finite)$"):
            howard_solve(params, grid, tol=tol)

    @pytest.mark.parametrize("sigma", [-1.85, 0.0, math.nan])
    def test_a_sigma_not_above_zero_rejected(self, params, grid, sigma):
        # -1.85 would square to 1.85's diffusion and give its solution
        with pytest.raises(ValueError, match=r"^sigma must be > 0$"):
            howard_solve(dataclasses.replace(params, sigma=sigma), grid)

    def test_an_underflowing_diffusion_fails_without_a_warning(self, params, grid):
        # D underflows to 0 at sigma 1e-200, so the Peclet number is inf; the
        # repo's pytest filter would raise a divide warning from the text
        with pytest.raises(NonMonotoneScheme) as exc:
            howard_solve(dataclasses.replace(params, sigma=1e-200), grid)
        assert str(exc.value) == "cell Peclet number inf > 1 at node 1 (x = 0.0005)"

    def test_non_monotone_scheme_raises(self, params):
        g = Grid.make(x_max=1.0, n=21)
        r = np.full(g.n, 0.1)
        r[5] = np.inf  # U(r) = inf makes that row's drift, so its Peclet number, infinite
        a = np.full(g.n, 1.0)
        stop = np.zeros(g.n, dtype=bool)
        # the failure is returned for its row, which is left unsolved
        w, (failure,) = _evaluate(params, g, r, a, stop, -g.x**4, False)
        assert isinstance(failure, NonMonotoneScheme)
        assert str(failure) == "cell Peclet number inf > 1 at node 5 (x = 0.25)"
        assert np.array_equal(w, -g.x**4)
        # a coarse level's rows are monotone whatever their drift, so only an
        # infinite diagonal fails them, as an overflowing sigma's does
        r[5] = 0.1
        w, (failure,) = _evaluate(dataclasses.replace(params, sigma=1e300), g, r, a, stop,
                                  -g.x**4, True)
        assert str(failure) == "non-finite or non-positive diagonal"
        assert np.array_equal(w, -g.x**4)


def _halving(limit):
    """A level schedule that halves the intervals down to at most limit nodes."""
    def sizes(n):
        out = [n]
        while out[-1] > limit:
            out.append((out[-1] - 1) // 2 + 1)
        return out[::-1]
    return sizes


_FIELDS = ("w", "r_star", "a_star", "stop", "b_hat", "k_growth", "iterations", "residual",
           "effort_convex_nodes", "level_sweeps")


def _assert_same_solution(got, want):
    for name in _FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _row_params(params, p):
    """A batch's params for its problem p alone, with a scalar sigma."""
    return dataclasses.replace(params, sigma=float(params.sigma[p, 0]))


def _rowwise_improve(params, grid, w, psi):
    """The batched _improve built from the unbatched oracle, one problem at a time."""
    rows = [unbatched_improve(_row_params(params, p), grid, w[p], psi)
            for p in range(w.shape[0])]
    return tuple(np.array(col) for col in zip(*rows))


def _recording(monkeypatch, name):
    """Patch hjbvi.<name> to record its arguments; returns the list and the original."""
    real = getattr(hjbvi, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hjbvi, name, recording)
    return calls, real


class TestBatchedImprove:
    """_improve's one stacked _best_response call against the two-call
    oracle, problem by problem."""

    @staticmethod
    def _assert_same_row(got, want, p):
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g[p], w)
        assert got[3][p] == want[3]

    def test_every_sweep_of_a_default_solve(self, params, grid, sb, monkeypatch):
        calls, real = _recording(monkeypatch, "_improve")
        sol = howard_solve(params, grid)
        assert len(calls) == sol.iterations == sb.iterations
        sols = howard_solve_many(params, [1.5, 1.85, 2.2], grid)
        assert len(calls) - sol.iterations < sum(s.iterations for s in sols)
        assert sorted({args[1].n for args in calls}) == [32, 126, 501, 2001]
        for args in calls:
            batch, grid_, w, psi = args
            got = real(*args)
            for p in range(w.shape[0]):
                want = unbatched_improve(_row_params(batch, p), grid_, w[p], psi)
                self._assert_same_row(got, want, p)

    def test_perturbed_value(self, params, grid, sb):
        # random kinks give both curvature signs and wild slopes
        w = sb.w + 1e-4 * np.random.default_rng(3).standard_normal(grid.n)
        args = (params, grid, w, -params.u_inv(grid.x))
        got = hjbvi._improve(*args)
        self._assert_same_row([v[None] for v in got], unbatched_improve(*args), 0)
        assert 0 < got[3] <= grid.n

    @pytest.mark.parametrize("sigma", [1.5, 1.85, 2.2])
    def test_whole_solution(self, params, grid, sb_for_sigma, monkeypatch, sigma):
        want = sb_for_sigma(sigma)
        monkeypatch.setattr(hjbvi, "_improve", _rowwise_improve)
        got = howard_solve(dataclasses.replace(params, sigma=sigma), grid)
        _assert_same_solution(got, want)

    def test_one_effort_maximization_per_sweep(self, params, grid, monkeypatch):
        efforts, _ = _recording(monkeypatch, "_best_effort")
        sweeps, _ = _recording(monkeypatch, "_improve")
        sol = howard_solve(params, grid)
        assert len(efforts) == len(sweeps) == sol.iterations
        del efforts[:], sweeps[:]
        # one batched sweep per sweep of the slowest problem of each level:
        # 16 + 9 + 8 + 10 for sigma 1.5, 1.85 and 2.2
        howard_solve_many(params, [1.5, 1.85, 2.2], grid)
        assert len(efforts) == len(sweeps) == 43


class TestRunEvaluate:
    """_evaluate's elimination run by run against one elimination of the
    whole system with identity rows."""

    def test_every_sweep_of_a_batch(self, params, grid, monkeypatch):
        # with x_max = 10 the coarse levels raise the diffusion of steep rows
        calls, real = _recording(monkeypatch, "_evaluate")
        howard_solve_many(params, [1.5, 1.85, 2.2], grid)
        assert len(calls) == 43
        wide = Grid.make(10.0, 2001)
        howard_solve_many(params, [1.5, 1.85, 2.2], wide)
        assert len(calls) == 43 + 81
        assert [args[-1] for args in calls] == [args[1].n < 2001 for args in calls]
        for batch, grid_, r, a, stop, psi, coarse in calls:
            got, failures = real(batch, grid_, r, a, stop, psi, coarse)
            for p in range(r.shape[0]):
                if failures[p] is None:
                    want = whole_system_evaluate(_row_params(batch, p), grid_, r[p], a[p],
                                                 stop[p], psi, coarse)
                    assert np.array_equal(got[p], want)
                else:  # only 1.5, at its finest level's Peclet failure next to x = 10
                    assert not coarse and batch.sigma[p, 0] == 1.5

    def test_scattered_stop_set(self, params, grid, sb):
        # runs that start at the left end, end at the right end, and single
        # continuation rows between stopped ones
        psi = -params.u_inv(grid.x)
        stop = np.random.default_rng(5).random(grid.n) < 0.5
        stop[[0, 1, 2, 5, -2]] = [False, False, True, True, False]
        stop[-1] = True
        for coarse in (False, True):
            got, failures = _evaluate(params, grid, sb.r_star, sb.a_star, stop, psi, coarse)
            want = whole_system_evaluate(params, grid, sb.r_star, sb.a_star, stop, psi, coarse)
            assert failures == [None]
            assert np.array_equal(got, want)
            assert np.array_equal(got[stop], psi[stop])


class TestHowardSolveMany:
    """A batch gives each sigma the bits of its solve alone."""

    @pytest.mark.parametrize("sigmas, n", [
        ((1.5, 1.85, 2.2), 2001),
        ((1.5, 1.7, 1.85, 2.0, 2.2), 2001),
        ((1.85,), 4001),
        ((1.2, 3.0), 401),
    ])
    def test_each_solution_is_its_single_solve(self, params, sb_for_sigma, sigmas, n):
        g = Grid.make(x_max=1.0, n=n)
        sols = howard_solve_many(params, sigmas, g)
        for sigma, got in zip(sigmas, sols):
            if n == 2001:
                want = sb_for_sigma(sigma)
            else:
                want = howard_solve(dataclasses.replace(params, sigma=sigma), g)
            assert got.grid is g
            _assert_same_solution(got, want)

    def test_budget_is_per_problem(self, params, grid, sb_for_sigma):
        # 1.85 takes 15/9/8/4 sweeps, so a budget of 32 runs out exactly
        # when its 501-node level ends; 3.0 converges in 12/4/4/6
        failed, solved = howard_solve_many(params, [1.85, 3.0], grid, max_iter=32)
        with pytest.raises(NoConvergence) as alone:
            howard_solve(params, grid, max_iter=32)
        assert isinstance(failed, NoConvergence)
        assert failed.iterations == 32
        assert failed.residual == alone.value.residual
        assert failed.nodes == alone.value.nodes == 2001
        assert solved.level_sweeps == ((32, 12), (126, 4), (501, 4), (2001, 6))
        _assert_same_solution(solved, sb_for_sigma(3.0))

    def test_budget_spent_inside_a_level(self, params, grid, monkeypatch):
        # 1.5 takes 16/4/5/9 sweeps, so 24 run out on the 4th sweep of its
        # 501-node level; 1.2 takes 9/4/4/3 and sweeps on without it
        calls, real = _recording(monkeypatch, "_improve")
        failed, solved = howard_solve_many(params, [1.5, 1.2], grid, max_iter=24)
        assert isinstance(failed, NoConvergence) and failed.iterations == 24
        assert failed.nodes == 501
        assert solved.level_sweeps == ((32, 9), (126, 4), (501, 4), (2001, 3))
        with_15 = [args for args in calls if 1.5 in args[0].sigma]
        assert len(with_15) == 24 and with_15[-1][1].n == 501
        assert calls[-1][1].n == 2001
        # the reported defect is that of the last value and the policy improved from it
        batch, grid_, w, psi = with_15[-1]
        assert batch.sigma.ravel().tolist() == [1.5, 1.2]
        r, a, _, _ = real(*with_15[-1])
        assert failed.residual == hjbvi._max_defect(batch, grid_, w, r, a, psi, True)[0][0]

    def test_a_sigma_not_above_zero_keeps_its_place_unswept(self, params, grid, sb_for_sigma,
                                                          monkeypatch):
        want = sb_for_sigma(1.85), sb_for_sigma(2.2)
        calls, _ = _recording(monkeypatch, "_evaluate")
        sols = howard_solve_many(params, [1.85, -1.85, 0.0, math.nan, 2.2], grid)
        for bad in sols[1:4]:
            assert type(bad) is ValueError and str(bad) == "sigma must be > 0"
        _assert_same_solution(sols[0], want[0])
        _assert_same_solution(sols[4], want[1])
        assert {s for args in calls for s in args[0].sigma.ravel().tolist()} == {1.85, 2.2}

    @pytest.mark.parametrize("x_max", [1.0, 2.0, 5.0])
    def test_residual_is_the_certifying_defect(self, params, x_max):
        # the reported residual is the defect that passed the finest level's
        # convergence test; residual_check recomputes it bit for bit
        g = Grid.make(x_max, 2001)
        sigmas = [1.2, 1.5, 1.85, 2.2, 3.0]
        solved = [(s, sol) for s, sol in zip(sigmas, howard_solve_many(params, sigmas, g))
                  if not isinstance(sol, Exception)]
        assert len(solved) >= 4
        for sigma, sol in solved:
            assert sol.residual == residual_check(sol, dataclasses.replace(params, sigma=sigma), g)

    def test_empty_batch_and_bad_budget(self, params, grid):
        assert howard_solve_many(params, [], grid) == []
        with pytest.raises(ValueError, match="max_iter"):
            howard_solve_many(params, [1.85], grid, max_iter=0)


class TestRobustness:
    def test_noise_ordering(self, sb_for_sigma):
        lo, mid, hi = (sb_for_sigma(s) for s in (1.5, 1.85, 2.2))
        assert np.all(lo.w >= mid.w - 1e-6)
        assert np.all(mid.w >= hi.w - 1e-6)
        assert lo.b_hat > mid.b_hat > hi.b_hat

    def test_fixed_point_independent_of_the_cascade_route(self, params, grid, sb, monkeypatch):
        # the level sizes change the sweep count only: the improvement step
        # reads nothing but w, so every route converges to one fixed point;
        # halving down to 251 or to 63 nodes gives two other routes
        for sizes in (_halving(401), _halving(101)):
            monkeypatch.setattr(hjbvi, "_level_sizes", sizes)
            other = howard_solve(params, grid)
            assert [n for n, _ in other.level_sweeps] == sizes(grid.n)
            assert other.iterations != sb.iterations
            assert np.array_equal(other.stop, sb.stop)
            assert np.max(np.abs(other.w - sb.w)) <= 1e-12
            assert np.max(np.abs(other.a_star - sb.a_star)) <= 1e-8

    def test_boundary_stable_under_refinement(self, params, sb):
        fine = howard_solve(params, Grid.make(x_max=1.0, n=4001))
        assert abs(fine.b_hat - sb.b_hat) <= 2.0 * sb.grid.dx

    def test_boundary_stable_under_domain_change(self, params, sb):
        # same spacing, smaller domain; the free boundary must not move
        clipped = howard_solve(params, Grid.make(x_max=0.8, n=1601))
        assert abs(clipped.b_hat - sb.b_hat) <= 2.0 * sb.grid.dx


_WIDE_GRIDS = [(1.0, 2001), (2.0, 2001), (5.0, 2001), (1.2, 2401), (5.0, 201), (10.0, 2001),
               (20.0, 4001), (3.0, 6001)]
_WIDE_SIGMAS = [1.2, 1.5, 1.85, 2.2, 3.0]
# the finest-level Peclet failures next to the obstacle end, the only failures
# of the table with max_iter = 400
_WIDE_FAILURES = {(5.0, 201, 1.2), (5.0, 201, 1.5), (10.0, 2001, 1.2), (10.0, 2001, 1.5),
                  (20.0, 4001, 1.2), (20.0, 4001, 1.5), (20.0, 4001, 1.85), (20.0, 4001, 2.2)}


@functools.lru_cache(maxsize=None)
def _wide_batch(x_max, n):
    """The batch of _WIDE_SIGMAS on Grid.make(x_max, n) with max_iter = 400."""
    return howard_solve_many(default_params(), _WIDE_SIGMAS, Grid.make(x_max, n), max_iter=400)


class TestCoarseLevels:
    """Every level but the finest is only a warm start, so its rows take the
    least diffusion that makes them monotone: every problem starts on the
    first level, and only the finest level's central rows can fail it."""

    @pytest.mark.parametrize("x_max, n", _WIDE_GRIDS)
    @pytest.mark.parametrize("sigma", _WIDE_SIGMAS)
    def test_every_solve_runs_the_whole_cascade(self, x_max, n, sigma):
        got = _wide_batch(x_max, n)[_WIDE_SIGMAS.index(sigma)]
        if (x_max, n, sigma) in _WIDE_FAILURES:
            assert isinstance(got, NonMonotoneScheme)
            assert str(got).startswith("cell Peclet number")
        else:
            assert isinstance(got, hjbvi.SecondBestSolution), got
            assert [m for m, _ in got.level_sweeps] == hjbvi._level_sizes(n)

    def test_a_coarse_levels_rows_are_monotone(self, params, monkeypatch):
        # on [0, 10] the zero policy's drift lam x breaks the central rows
        # of the 32-node level; raised to max(d, |c|) they are monotone
        calls, real = _recording(monkeypatch, "_evaluate")
        sol = howard_solve(params, Grid.make(10.0, 2001))
        assert sol.level_sweeps[0][0] == 32
        steep = 0
        for batch, level, r, a, stop, psi, coarse in calls:
            assert coarse == (level.n < 2001)
            d, c, _ = hjbvi._stencil(batch, level, r, a, coarse)
            cont = ~stop[..., 1:-1]
            assert ((c - d)[cont] <= 0.0).all() and ((-(d + c))[cont] <= 0.0).all()
            central, _, _ = hjbvi._stencil(batch, level, r, a, False)
            steep += int((cont & (np.abs(c) > central)).sum())
        assert steep > 0

    def test_a_wide_domain_solves_from_the_first_level(self, params):
        # next to x_max = 5 sigma 3.0's defects exceed 10 tol within its rows'
        # round-off; on [0, 10] 1.85 breaks the central scheme on every
        # coarse level
        for sigma, x_max, b_hat in ((3.0, 5.0, 0.285), (1.85, 10.0, 10.0)):
            g = Grid.make(x_max, 2001)
            sol = howard_solve(dataclasses.replace(params, sigma=sigma), g)
            assert [m for m, _ in sol.level_sweeps] == [32, 126, 501, 2001]
            assert sol.b_hat == pytest.approx(b_hat, abs=1e-12)
            assert sol.residual == residual_check(sol, dataclasses.replace(params, sigma=sigma), g)

    def test_a_coarse_level_too_coarse_for_the_scheme(self, params, monkeypatch):
        # with x_max = 5, 51 nodes break the central scheme at sigma 1.85 and
        # 2.2, yet as the first level of the 51/201-node cascade they solve,
        # and the cascade lands on the one-level solve's fixed point
        g = Grid.make(5.0, 201)
        solos = {}
        for sigma in (1.85, 2.2):
            p = dataclasses.replace(params, sigma=sigma)
            with pytest.raises(NonMonotoneScheme, match="Peclet"):
                howard_solve(p, Grid.make(5.0, 51))
            solos[sigma] = howard_solve(p, g)
            assert solos[sigma].level_sweeps[0][0] == 51
        monkeypatch.setattr(hjbvi, "_level_sizes", lambda n: [n])
        for sigma, got in solos.items():
            want = howard_solve(dataclasses.replace(params, sigma=sigma), g)
            assert want.level_sweeps[0][0] == 201
            assert np.array_equal(got.stop, want.stop)
            assert np.max(np.abs(got.w - want.w)) <= 1e-12

    def test_a_batch_gives_each_sigma_its_route(self, params, monkeypatch):
        # on 201 nodes 1.85 and 3.0 solve from 51 nodes and 1.2 breaks the
        # scheme on 201 nodes, which fails it alone; on 2001 nodes all three
        # solve from 32
        routes = {201: (51, 51, "NonMonotoneScheme: cell Peclet number 1.07 > 1 at node 194 "
                                "(x = 4.85)"),
                  2001: (32, 32, 32)}
        calls, solve_many = [], hjbvi.howard_solve_many

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_many(*args, **kwargs)

        monkeypatch.setattr(hjbvi, "howard_solve_many", counted)
        for n, route in routes.items():
            g = Grid.make(5.0, n)
            del calls[:]
            sols = hjbvi.howard_solve_many(params, [1.85, 3.0, 1.2], g)
            assert len(calls) == 1  # no sigma is solved again on its own
            for sigma, got, want in zip((1.85, 3.0, 1.2), sols, route):
                if isinstance(want, str):
                    assert f"{type(got).__name__}: {got}" == want
                    with pytest.raises(type(got)) as alone:
                        howard_solve(dataclasses.replace(params, sigma=sigma), g)
                    assert str(alone.value) == str(got)
                else:
                    assert got.level_sweeps[0][0] == want
                    _assert_same_solution(
                        got, howard_solve(dataclasses.replace(params, sigma=sigma), g))

    @pytest.mark.parametrize("x_max", [2.0, 5.0])
    def test_wide_grids_keep_the_halving_routes_solution(self, params, monkeypatch, x_max):
        g = Grid.make(x_max, 2001)
        got = howard_solve(params, g)
        assert got.level_sweeps[0][0] == 32
        monkeypatch.setattr(hjbvi, "_level_sizes", _halving(401))
        want = howard_solve(params, g)
        assert np.array_equal(got.stop, want.stop)
        assert np.max(np.abs(got.w - want.w)) <= 1e-11
