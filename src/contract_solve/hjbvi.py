"""Second-best value function: an obstacle problem solved by policy iteration.

With unobservable effort the principal controls rent r and recommended
effort a (implemented through the exposure z = sigma h'(a)/phi'(a)), and may
stop and settle the agent's promised utility x at cost U^{-1}(x). The value
w solves the variational inequality

    min{ delta w - sup_{r,a} [L^{a,r} w + phi(a) - r],  w + U^{-1}(x) } = 0

on [0, x_max], w(0) = 0, w(x_max) = -U^{-1}(x_max), where

    L^{a,r} w = 1/2 (sigma h'(a)/phi'(a))^2 w'' + (lam x - U(r) + h(a)) w'.

The diffusion coefficient is evaluated at every effort level including
a = 0, where it takes its positive zero-effort limit. Sending it to zero at
a = 0 instead would hand the controller a free option: keep a zero-effort
drift while switching the noise off entirely. That option inflates the
continuation value so much that the obstacle never binds and the reported
stopping region empties out (the contact boundary escapes to the truncation
boundary and tracks it when x_max moves, the signature of a truncation
artifact). The uniformly parabolic operator is the one with an interior
free boundary and a concave value hump, so its coefficient is used
throughout: in the effort maximizer's first-order condition, in the
assembled rows, and in its a = 0 comparison. Its stop set still moves
with x_max: on 2001 nodes, sigma 1.5, 1.85 and 2.2 stop on [0.6005, 0.716],
[0.4655, 0.9995] and [0.389, 0.9995] with x_max = 1, on none, [0.465, 0.59]
and [0.389, 0.82] with x_max = 2, and nowhere inside [0, 5) with x_max = 5.

Discretization is central: second and first differences both centred at
the node, so a continuation row reads

    delta w_i - D (w_{i+1} - 2 w_i + w_{i-1})/dx^2 - b (w_{i+1} - w_{i-1})/(2 dx) = phi(a) - r

with D = 1/2 exposure(a)^2 and drift b = lam x - U(r) + h(a). The
off-diagonals -D/dx^2 +- b/(2 dx) are non-positive, which makes the scheme
monotone, exactly when the cell Peclet number |b| dx/(2 D) is at most 1; a
continuation row that breaks this fails its problem with NonMonotoneScheme
(Wang & Forsyth 2008, maximal use of central differencing for HJB equations). Each
policy-iteration round evaluates the current policy exactly (one
tridiagonal solve, with stopped nodes replaced by identity rows) and then
improves it node by node. A row's discrete Hamiltonian is the continuous
one at the central slope and second difference, so one maximization per
node gives its exact maximizer, a function of w alone. The rent maximizer
is closed form, r* = (U')^{-1}(-1/w') when w' < 0; the effort maximizer has
no closed form and is the root of its first-order condition, found by
safeguarded Newton steps (see _best_effort). Stopping beats continuing at a
node when psi_i - w_i exceeds the continuation row's defect H_i - delta w_i,
the usual policy-iteration treatment of the obstacle.

Convergence behaviour worth knowing about: the contact set can only recede
one node per sweep. Releasing a stopped node is triggered by the kink its
neighbour's excess value creates in the second difference, so each sweep
frees exactly the junction node and exposes the next one. A cold start
therefore pays one sweep for every node between the first contact guess
and the converged boundary. To keep iteration counts small on fine grids,
howard_solve solves a cascade of coarsened versions of the same problem,
each level with a quarter of the next one's intervals, down to at most
101 nodes (32/126/501/2001 at the defaults). Every level starts from the
end state of the level before, interpolated to its nodes, bar the forced
stop at x_max, which no other node copies; before the first level that
end state is the all-continue policy (r, a) = (0, 0). The coarse levels
are only warm starts, so their rows take the diffusion weight
max(D/dx^2, |b|/(2 dx)), the least that makes them monotone; only the
finest level's rows are central. The reported iteration count is the
total number of sweeps across all levels, level_sweeps its split. The
improvement step reads nothing but w, so the level sizes change the
sweep count, not the fixed point the finest level converges to.

The tridiagonal solves use elimination without pivoting: every assembled
row is diagonally dominant by exactly delta, and identity rows pass through
elimination untouched, so stopped nodes carry w_i = -U^{-1}(x_i) bitwise
and each run of continuation rows between them is eliminated on its own.

Several sigmas are solved as one batch (howard_solve_many). sigma is the
only parameter that differs between them, so the batch's params.sigma is
the (P, 1) column of the sigmas and the iteration's arrays carry one row per
problem. Every step works node by node, so each problem's sweeps are
bitwise those of its solve alone; what the batch saves is numpy's per-call
overhead, which dominates a sweep on the coarse levels. Each problem's
outcome is decided by itself, in the batch's one sweep loop, at the
evaluation or improvement that settles it: a failed scheme
(NonMonotoneScheme in its place), a spent budget (NoConvergence in its
place) or convergence (a warm start for the next level, or its solution).
A sigma that is not > 0 has ValueError in its place and is never swept.
howard_solve is the batch of one and raises whatever exception takes its
sigma's place.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

_R_CAP = 1e12  # transient guard: keeps U(r) finite while iterates are wild
_A_HI = 50.0  # effort domain is [0, _A_HI]
_NEWTON_STEPS = 100  # safeguarded Newton: bisection alone needs ~60 steps
_EPS = np.finfo(float).eps
_COARSE_LIMIT = 101  # grids at most this size are solved from a cold start

# the solver's defaults, and so those of the howard.* and grid.* config keys
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
DEFAULT_X_MAX = 1.0
DEFAULT_N = 2001


class NoConvergence(RuntimeError):
    """Policy iteration ran out of iterations. residual is the defect on the
    cascade level where the budget ran out, and nodes that level's size."""

    def __init__(self, iterations: int, residual: float, nodes: int):
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(residual {residual:.3e} on the {nodes}-node level)")
        self.iterations = iterations
        self.residual = residual
        self.nodes = nodes


class NonMonotoneScheme(RuntimeError):
    """The discretized operator of a policy evaluation is not a monotone scheme."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform nodes x_i = i dx on [0, x_max]."""

    x_max: float
    n: int
    dx: float
    x: np.ndarray = field(repr=False)

    @staticmethod
    def make(x_max: float = DEFAULT_X_MAX, n: int = DEFAULT_N) -> "Grid":
        if not 0.0 < x_max < math.inf:
            raise ValueError("x_max must be finite" if x_max > 0.0 else "x_max must be > 0")
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"n must be an integer, not {n!r}")
        if n < 3:
            raise ValueError("n must be >= 3")
        return Grid(x_max=float(x_max), n=int(n), dx=float(x_max) / (n - 1),
                    x=np.linspace(0.0, float(x_max), int(n)))


@dataclass(frozen=True, eq=False)
class SecondBestSolution:
    grid: Grid
    w: np.ndarray
    r_star: np.ndarray
    a_star: np.ndarray
    stop: np.ndarray  # bool per node
    b_hat: float  # first stopped node
    k_growth: float  # smallest K with |w| <= K + U^{-1}(x) on the grid
    iterations: int
    residual: float
    effort_convex_nodes: int  # effort maximizations on the w'' >= 0 branch, all sweeps
    level_sweeps: tuple  # (nodes, sweeps) of each cascade level from the cold start on


def _diffusion(params: ModelParams, a):
    """1/2 exposure(a)^2, continuous down to a = 0."""
    return 0.5 * params.exposure(a) ** 2


def _per_problem(sigma, f):
    """f(s) for each problem's sigma s, as a (P, 1) column; f(sigma) for a
    scalar sigma. Constants that a solve of one sigma computes as scalars
    stay scalar in a batch: numpy's array power can round x ** 2 differently
    from its scalar power."""
    if np.ndim(sigma) == 0:
        return f(sigma)
    return np.array([[f(s)] for s in sigma.ravel().tolist()])


def _rows(params: ModelParams, rows) -> ModelParams:
    """A batch's params restricted to the problems selected by rows."""
    return dataclasses.replace(params, sigma=params.sigma[rows])


def _rent_candidate(params: ModelParams, dw):
    """Closed-form maximizer of -U(r) dw - r: (U')^{-1}(-1/dw) when dw < 0."""
    dw = np.asarray(dw, dtype=float)
    neg = dw < 0.0
    y = np.where(neg, -1.0 / np.where(neg, dw, -1.0), 1.0)
    return np.where(neg, np.minimum(params.du_inv(y), _R_CAP), 0.0)


def _best_effort(params: ModelParams, dw, d2w):
    """argmax over a in [0, _A_HI] of the a-part of the Hamiltonian, per node.

    The objective is f(a) = D(a) w'' + h(a) w' + phi(a), with
    D(a) = D0 e^{2ka}, k = alpha + beta and D0 = 1/2 (sigma beta/(phi_max alpha))^2.
    Its first-order condition is the sign of a three-term exponential sum:

        e^{-beta a} f'(a) = q(a) = A e^{(2 alpha + beta) a} + B + C e^{-k a},
        A = 2 k D0 w'',  B = beta w',  C = phi_max alpha > 0.

    When w'' < 0, q is strictly decreasing, so f is unimodal on the real
    line and its maximizer on [0, _A_HI] is the root of q clamped to the
    interval. When w'' >= 0, q is convex with its minimum at
    a_m = ln(C k / (A (2 alpha + beta))) / (3 alpha + 2 beta) (a_m = +inf
    when w'' = 0), so q has at most two roots; the interior local maximum of
    f is the first down-crossing, left of a_m, and it is compared with the
    cap a = _A_HI. In both cases the root is taken on a bracket inside
    [0, _A_HI] where q strictly decreases, by Newton steps that fall back to
    bisection whenever they leave the bracket, so it is exact to round-off.
    The Newton arrays drop the nodes that finished, on the steps where any did.

    The winner is then compared with the a = 0 payoff D(0) w''
    (phi(0) = h(0) = 0, but the diffusion floor stays on). Using the same
    operator in the comparison as in the assembled rows matters: evaluating
    a = 0 as a payoff of exactly zero while the rows keep the floor makes
    improvement and evaluation disagree at nodes where both are close, and
    the iteration can cycle there instead of converging.

    dw and d2w have one row per problem of a batch (params.sigma a (P, 1)
    column), or are 1-D for a scalar sigma. Returns (a, f(a), n_convex),
    n_convex counting per row the nodes that took the w'' >= 0 branch.
    """
    alpha, beta, phi_max = params.alpha, params.beta, params.phi_max
    k = alpha + beta
    m = 2.0 * alpha + beta
    d0 = _per_problem(params.sigma, lambda s: 0.5 * (s * beta / (phi_max * alpha)) ** 2)
    A = 2.0 * k * d0 * d2w
    B = beta * dw
    C = phi_max * alpha

    convex = d2w >= 0.0
    hi = np.full(A.shape, _A_HI)
    pos = A > 0.0
    hi[pos] = ((np.log(C * k / m) - np.log(A[pos])) / (m + k)).clip(0.0, _A_HI)
    q_lo = A + B + C
    q_hi = A * np.exp(m * hi) + B + C * np.exp(-k * hi)
    # q <= 0 at 0: f falls from a = 0 (convex case: until its local minimum,
    # so the cap is compared below). q >= 0 at hi: f never falls on [0, _A_HI].
    a = np.where(q_lo <= 0.0, 0.0, _A_HI)

    # safeguarded Newton on the nodes whose bracket [0, hi] straddles the
    # root, started from the left end, where q > 0; idx indexes the
    # flattened arrays
    idx = np.flatnonzero((q_lo > 0.0) & (q_hi < 0.0))
    lo, hi, Ai, Bi = np.zeros(idx.size), hi.take(idx), A.take(idx), B.take(idx)
    t = lo
    for _ in range(_NEWTON_STEPS):
        if idx.size == 0:
            break
        em, ek = np.exp(m * t), C * np.exp(-k * t)
        qt = Ai * em + Bi + ek
        above = qt > 0.0
        lo = np.where(above, t, lo)
        hi = np.where(above, hi, t)
        newton = t - qt / (m * Ai * em - k * ek)  # q' < 0 on the bracket
        tol = 2.0 * _EPS * np.maximum(t, 1.0)
        done = (np.abs(newton - t) <= tol) | (hi - lo <= tol)
        t = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        if done.any():
            np.put(a, idx[done], np.clip(newton[done], lo[done], hi[done]))
            keep = ~done
            idx, lo, hi, Ai, Bi, t = idx[keep], lo[keep], hi[keep], Ai[keep], Bi[keep], t[keep]
    np.put(a, idx, t)

    g = _diffusion(params, a) * d2w + params.h(a) * dw + params.phi(a)
    ratio_cap = params.cost_impact_ratio(_A_HI)
    d_cap = _per_problem(params.sigma, lambda s: 0.5 * (s * ratio_cap) ** 2)  # D(_A_HI)
    g_cap = d_cap * d2w + params.h(_A_HI) * dw + params.phi(_A_HI)
    cap = convex & (g_cap > g)
    a = np.where(cap, _A_HI, a)
    g = np.where(cap, g_cap, g)
    g0 = _diffusion(params, np.zeros(a.shape[:-1] + (1,))) * d2w  # D(0), one per problem
    better = g > g0
    return np.where(better, a, 0.0), np.where(better, g, g0), convex.sum(axis=-1)


def _best_response(params: ModelParams, x, dw, d2w):
    """Joint maximizer over (r, a) at the slope and curvature of each entry.

    Returns H, r, a and the number of entries per row that took the convex
    branch of the effort maximizer.
    """
    r = _rent_candidate(params, dw)
    a, g_a, n_convex = _best_effort(params, dw, d2w)
    h_val = g_a + (params.lam * x - params.u(r)) * dw - r
    return h_val, r, a, n_convex


def _improve(params: ModelParams, grid: Grid, w: np.ndarray, psi: np.ndarray):
    """One policy-improvement sweep: per-node best action against w.

    An interior row's discrete Hamiltonian is the continuous one at the
    central slope (w_{i+1} - w_{i-1})/(2 dx) and the second difference, so
    the rent and effort maximizers there (see _best_effort) maximize it
    exactly. The two ends take their one-sided slope and their neighbour's
    second difference, for reporting only. One vectorized _best_response
    call serves every node of every problem.

    w holds one row per problem (1-D for a scalar sigma). Returns (r, a,
    stop, n_convex) over the whole grid, n_convex counting per row the
    effort maximizations that took the w'' >= 0 branch. stop[0] is pinned
    False (the state is absorbed at 0 with zero settlement) and stop[n-1]
    True (truncation convention).
    """
    dx = grid.dx
    wi = w[..., 1:-1]
    dw = (w[..., 2:] - w[..., :-2]) / (2.0 * dx)
    d2w = (w[..., 2:] - 2.0 * wi + w[..., :-2]) / dx**2
    h_val, r, a, n_convex = _best_response(
        params,
        grid.x,
        np.concatenate(((w[..., 1:2] - w[..., :1]) / dx, dw,
                        (w[..., -1:] - w[..., -2:-1]) / dx), axis=-1),
        np.concatenate((d2w[..., :1], d2w, d2w[..., -1:]), axis=-1),
    )
    stop = np.ones(w.shape, dtype=bool)
    stop[..., 0] = False
    stop[..., 1:-1] = (psi[1:-1] - wi) > (h_val[..., 1:-1] - params.delta * wi)
    return r, a, stop, n_convex


def _eliminate(lo, di, up, rh, left, right):
    """Thomas elimination, without pivoting, of one run of continuation rows.

    left and right are the values of the stopped nodes on either side of the
    run, None where the run reaches a Dirichlet end (folded into rh already).
    """
    n = len(di)
    cp = [0.0] * n
    dp = [0.0] * n
    c = up[0] / di[0]
    v = rh[0] / di[0] if left is None else (rh[0] - lo[0] * left) / di[0]
    cp[0], dp[0] = c, v
    for k in range(1, n):
        low = lo[k]
        denom = di[k] - low * c
        c = up[k] / denom
        v = (rh[k] - low * v) / denom
        cp[k], dp[k] = c, v
    x = v if right is None else v - c * right
    sol = [0.0] * n
    sol[n - 1] = x
    for k in range(n - 2, -1, -1):
        x = dp[k] - cp[k] * x
        sol[k] = x
    return sol


def _stencil(params: ModelParams, grid: Grid, r, a, coarse: bool):
    """Coefficients of every interior row at the policy (r, a), per row.

    Returns (d, c, f): the diffusion weight D(a)/dx^2, the drift weight
    b/(2 dx) and the running payoff phi(a) - r, so that a continuation row
    reads delta w_i - d (w_{i+1} - 2 w_i + w_{i-1}) - c (w_{i+1} - w_{i-1}) = f
    and its cell Peclet number is |c|/d. On a coarse level d is raised to
    max(d, |c|), the least diffusion that makes the row monotone.
    """
    ri, ai = r[..., 1:-1], a[..., 1:-1]
    # an overflowing sigma makes d infinite: _evaluate's non-finite-diagonal
    # check rejects that row, so the overflow itself is not worth a warning
    with np.errstate(over="ignore"):
        d = _diffusion(params, ai) / grid.dx**2
    c = (params.lam * grid.x[1:-1] - params.u(ri) + params.h(ai)) / (2.0 * grid.dx)
    if coarse:
        d = np.maximum(d, np.abs(c))
    return d, c, params.phi(ai) - ri


def _evaluate(params: ModelParams, grid: Grid, r, a, stop, psi, coarse: bool):
    """Solve the linear system for a fixed policy, one system per row.

    Continuation rows: delta w - L^{a,r} w = phi(a) - r. Stopped rows:
    w_i = psi_i. Ends are Dirichlet: w_0 = 0, w_{n-1} = psi_{n-1}. A stopped
    row decouples the system, so stopped nodes take psi as is and each
    maximal run of continuation rows is eliminated on its own, with its
    stopped neighbours' psi moved to the right-hand side. That gives the bits
    of one elimination over the whole system with identity rows at stopped
    nodes: an identity row comes through elimination as psi and restarts it.
    No pivoting: rows are diagonally dominant by exactly delta. Returns
    (w, failures): per row, the NonMonotoneScheme of a policy that breaks
    the monotone scheme, whose row of w is then left unsolved, or None.
    """
    stop_i = stop[..., 1:-1]
    d, c, rhs = _stencil(params, grid, r, a, coarse)
    lower = c - d
    diag = params.delta + 2.0 * d
    upper = -(d + c)

    # monotone scheme: non-positive off-diagonals on continuation rows (the
    # Peclet condition |c| <= d). Dominance needs no check: by construction
    # every row sums to diag + lower + upper = (delta + 2d) + (c - d) - (d + c) = delta
    m = grid.n - 2
    d, c, stop_i, lower, diag, upper, rhs = (
        v.reshape(-1, m) for v in (d, c, stop_i, lower, diag, upper, rhs))
    bad_diag = ~(np.isfinite(diag) & (diag > 0.0)).all(axis=1)
    steep = ~stop_i & ~(np.abs(c) <= d)
    failed = bad_diag | steep.any(axis=1)
    failures = [None] * len(failed)
    for p in np.flatnonzero(failed).tolist():
        j = int(np.argmax(steep[p]))
        with np.errstate(divide="ignore"):  # D underflows to 0 for sigma below ~1e-160
            failures[p] = NonMonotoneScheme(
                "non-finite or non-positive diagonal" if bad_diag[p] else
                f"cell Peclet number {abs(c[p, j]) / d[p, j]:.3g} > 1 at node {j + 1} "
                f"(x = {grid.x[j + 1]:.6g})")

    # fold the Dirichlet ends into the right-hand side (w_0 = 0 adds nothing)
    rhs[:, -1] -= upper[:, -1] * psi[-1]

    w = np.empty(stop.shape)
    w[..., 0] = 0.0
    w[..., 1:-1] = psi[1:-1]
    w[..., -1] = psi[-1]
    interior = w.reshape(-1, grid.n)[:, 1:-1]
    # each run of continuation rows [s, e): +1 where it starts, -1 past its end
    edge = np.zeros((interior.shape[0], 1), dtype=bool)
    cont = np.concatenate((edge, ~stop_i & ~failed[:, None], edge), axis=1).view(np.int8)
    p_at, at = np.nonzero(np.diff(cont, axis=1))
    for p, s, e in zip(p_at[::2].tolist(), at[::2].tolist(), at[1::2].tolist()):
        interior[p, s:e] = _eliminate(lower[p, s:e].tolist(), diag[p, s:e].tolist(),
                                      upper[p, s:e].tolist(), rhs[p, s:e].tolist(),
                                      None if s == 0 else float(psi[s]),
                                      None if e == m else float(psi[e + 1]))
    return w, failures


def _max_defect(params: ModelParams, grid: Grid, w, r, a, psi, coarse: bool):
    """Per row, max over interior nodes of |min(delta w - H, w + U^{-1}(x))|,
    with H from _evaluate's rows at the stored policy, and the largest of
    these defects that exceeds its row's round-off, 8 ulps of the sum of the
    magnitudes of the row's terms (0 when none does)."""
    wi, up, down = w[..., 1:-1], w[..., 2:], w[..., :-2]
    d, c, f = _stencil(params, grid, r, a, coarse)
    lw = d * (up - 2.0 * wi + down) + c * (up - down) + f - params.delta * wi
    defect = np.abs(np.minimum(-lw, wi - psi[1:-1]))
    au, aw, ad = np.abs(up), np.abs(wi), np.abs(down)
    terms = d * (au + 2.0 * aw + ad) + np.abs(c) * (au + ad) + np.abs(f) + params.delta * aw
    above = np.where(defect > 8.0 * _EPS * terms, defect, 0.0)
    return np.max(defect, axis=-1), np.max(above, axis=-1)


def residual_check(solution: SecondBestSolution, params: ModelParams, grid: Grid) -> float:
    """Max pointwise defect of the variational inequality at the stored policy.

    grid must be the solution's own (same x_max and n); any other grid
    raises ValueError, as the stored arrays are node values on that grid.
    """
    if (grid.x_max, grid.n) != (solution.grid.x_max, solution.grid.n):
        raise ValueError(f"grid (x_max={grid.x_max:.6g}, n={grid.n}) is not the solution's "
                         f"(x_max={solution.grid.x_max:.6g}, n={solution.grid.n})")
    psi = -params.u_inv(grid.x)
    return float(_max_defect(params, grid, solution.w, solution.r_star, solution.a_star, psi,
                             False)[0])


def _level_sizes(n: int) -> list[int]:
    """Coarse-to-fine node counts ending at n: each level has a quarter of
    the intervals of the next, (n - 1) // 4 + 1 nodes, down to a cold-start
    level of at most _COARSE_LIMIT nodes."""
    sizes = [n]
    while sizes[-1] > _COARSE_LIMIT:
        sizes.append((sizes[-1] - 1) // 4 + 1)
    return sizes[::-1]


def check_limits(tol: float, max_iter: int) -> None:
    """The rules of howard_solve's tol and max_iter (and of the howard.*
    config keys): ValueError unless tol is finite and > 0, which a
    convergence needs, and max_iter an integer >= 1."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite" if tol > 0.0 else "tol must be > 0")
    if not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, not {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def howard_solve_many(params: ModelParams, sigmas, grid: Grid, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> list:
    """howard_solve for every sigma of sigmas, as one batch.

    Returns, per sigma in order, the SecondBestSolution that howard_solve
    returns for it, bitwise, or the exception it raises: ValueError for a
    sigma that is not > 0 (NaN included), which is never swept, else
    NoConvergence or NonMonotoneScheme. sigma is the only parameter that
    differs across the batch, so params.sigma becomes the (P, 1) column of
    the sigmas and every array of the iteration gains a leading problem
    axis; every step works node by node. The problems share the cascade
    levels and advance level by level together, each with its own budget of
    max_iter sweeps. A tol or max_iter that check_limits rejects raises its
    ValueError before any sweep.

    A problem leaves its level at the sweep that decides its outcome there.
    One whose policy fails the scheme (a coarse level's only by a diagonal
    that is not finite and > 0) has its NonMonotoneScheme put in its place.
    One that spends its budget, also with a budget of 0 on arrival, has
    NoConvergence put in its place, with the defect of its last value and
    the policy improved from it (with a budget of 0, its starting policy).
    One that converged warm-starts the next level, or on the finest becomes
    its solution. A problem has converged when an improvement left its stop
    set as it was, its value moved less than tol, and each node's defect at
    the improved policy is at most 10 tol or within its row's round-off (see
    _max_defect); the largest defect is the solution's residual. A policy
    that repeats exactly needs no test of its own: the next sweep evaluates
    it to the same value and passes this one. A value step below tol with
    the contact boundary still moving is not convergence: near its fixed
    point the boundary recedes one node per sweep with value steps of the
    same size as tol, and declaring convergence mid-recession leaves a
    junction defect orders of magnitude above the value step.
    """
    check_limits(tol, max_iter)
    sigma = np.array(sigmas, dtype=float).reshape(-1, 1)
    out = [None if s > 0.0 else ValueError("sigma must be > 0") for s in sigma.ravel().tolist()]
    n_convex = np.zeros(len(out), dtype=int)
    residual = np.zeros(len(out))  # the defect that certified each convergence
    trace = [[] for _ in out]  # (nodes, sweeps) of each level, per problem
    # per problem, its end state on the level before (the zero policy before the first)
    level = grid
    end_r, end_a = np.zeros((2, len(out), grid.n))
    end_stop = np.zeros((len(out), grid.n), dtype=bool)
    for size in _level_sizes(grid.n):
        live = np.flatnonzero([o is None for o in out])  # the problems still being solved
        if not live.size:
            return out
        prev, level = level, (grid if size == grid.n else Grid.make(grid.x_max, size))
        coarse = level is not grid  # a warm start only: its rows get the monotone stencil
        psi = -params.u_inv(level.x)
        # the zero policy interpolates to itself; stop[:, 0] is False already
        r = np.array([np.interp(level.x, prev.x, row) for row in end_r[live]])
        a = np.array([np.interp(level.x, prev.x, row) for row in end_a[live]])
        nearest = np.clip(np.rint(level.x / prev.dx).astype(int), 0, prev.n - 1)
        stop = end_stop[live][:, nearest] & (nearest < prev.n - 1)
        stop[:, -1] = True
        end_w, end_r, end_a = np.zeros((3, len(out), level.n))
        end_stop = np.zeros((len(out), level.n), dtype=bool)
        batch = dataclasses.replace(params, sigma=sigma[live])
        budget = max_iter - np.array([sum(k for _, k in trace[p]) for p in live.tolist()])
        sweep, w_prev = 0, np.full(r.shape, np.nan)  # nan: no value step yet
        evaluated = False  # whether w is the value of the current policy
        while live.size:  # each pass evaluates or improves, then the decided problems leave
            if not evaluated:
                w, failures = _evaluate(batch, level, r, a, stop, psi, coarse)
                near = np.zeros(live.size, dtype=bool)
            else:
                sweep += 1
                r, a, stop_new, n = _improve(batch, level, w, psi)
                n_convex[live] += n
                near = (stop_new == stop).all(axis=-1) & (np.abs(w - w_prev).max(axis=-1) < tol)
                stop, w_prev, failures = stop_new, w, [None] * live.size
            evaluated = not evaluated
            failed = np.array([f is not None for f in failures])
            spent = (budget == sweep) & ~failed
            measure = near | spent  # the defect tests a convergence, or a spent budget reports it
            defect, above = np.full((2, live.size), np.inf)
            if measure.any():
                defect[measure], above[measure] = _max_defect(
                    _rows(batch, measure), level, w[measure], r[measure], a[measure], psi, coarse)
            done = near & (above <= 10.0 * tol)
            leave = done | spent | failed
            for i in np.flatnonzero(leave).tolist():
                p = live[i]
                if done[i]:
                    end_w[p], end_r[p], end_a[p], end_stop[p] = w[i], r[i], a[i], stop[i]
                    residual[p] = defect[i]
                    trace[p].append((level.n, sweep))
                else:
                    out[p] = failures[i] if failed[i] else NoConvergence(
                        iterations=max_iter, nodes=level.n, residual=float(defect[i]))
            if leave.any():
                stay = ~leave
                live, budget, w, w_prev, r, a, stop = (
                    v[stay] for v in (live, budget, w, w_prev, r, a, stop))
                batch = _rows(batch, stay)

    live = np.flatnonzero([o is None for o in out])
    growth = np.max(np.abs(end_w[live]) - params.u_inv(grid.x), axis=-1)
    first_stop = np.argmax(end_stop[live], axis=-1)
    for i, p in enumerate(live.tolist()):
        out[p] = SecondBestSolution(
            grid=grid, w=end_w[p].copy(), r_star=end_r[p].copy(), a_star=end_a[p].copy(),
            stop=end_stop[p].copy(), b_hat=float(grid.x[first_stop[i]]),
            k_growth=max(0.0, float(growth[i])), iterations=sum(k for _, k in trace[p]),
            residual=float(residual[p]), effort_convex_nodes=int(n_convex[p]),
            level_sweeps=tuple(trace[p]),
        )
    return out


def howard_solve(params: ModelParams, grid: Grid, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> SecondBestSolution:
    """Policy iteration on the discretized variational inequality.

    Fine grids are warm-started from a cascade of solves of the same problem
    on coarser grids, whose rows get the least diffusion that makes them
    monotone (see module docstring); the cold start is continue-everywhere
    with (r, a) = (0, 0). A level converges as howard_solve_many says, and
    residual is the defect that certified the finest level. max_iter bounds
    the total sweep count across the levels, and the reported iteration
    count is that total, level_sweeps its split by level. The reported
    policy is the final improvement against the converged value, so r_star
    and a_star are the feedback maximizers of the discrete Hamiltonian. A
    budget that runs out, even exactly at a level boundary, raises
    NoConvergence, and a finest level that breaks the Peclet condition
    NonMonotoneScheme; a sigma that is not > 0, a tol that is not finite and
    > 0, or a max_iter that is not an integer >= 1, raises ValueError. This
    is howard_solve_many's batch of one, and it raises the exception that
    the batch puts in its sigma's place.
    """
    solution, = howard_solve_many(params, [params.sigma], grid, tol=tol, max_iter=max_iter)
    if isinstance(solution, Exception):
        raise solution
    return solution
