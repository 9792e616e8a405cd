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
free boundary, a concave value hump, and x_max-robust output, so its
coefficient is used throughout: in the effort maximizer's first-order
condition, in the assembled rows, and in its a = 0 comparison.

Discretization is the standard monotone scheme: central second differences
for the diffusion, first differences upwinded on the drift sign. Each
policy-iteration round evaluates the current policy exactly (one
tridiagonal solve, with stopped nodes replaced by identity rows) and then
improves it by one vectorized maximization over all candidate slopes, node
by node. The rent maximizer is closed form, r* = (U')^{-1}(-1/w') when
w' < 0; the effort maximizer has no closed form and is the root of its
first-order condition, found by safeguarded Newton steps (see _best_effort).

The drift sign depends on the policy and the policy on the slope, whose
upwind side depends on the drift sign. The improvement step therefore tries
both one-sided slopes, keeps each only when the induced drift is consistent
with that side, and always keeps the r = 0 candidate (whose drift
lam x + h(a) >= 0 makes the forward side self-consistent) plus the
incumbent policy. Stopping beats continuing at a node when psi_i - w_i
exceeds the continuation row's defect H_i - delta w_i, the usual
policy-iteration treatment of the obstacle.

Convergence behaviour worth knowing about: the contact set can only recede
one node per sweep. Releasing a stopped node is triggered by the kink its
neighbour's excess value creates in the second difference, so each sweep
frees exactly the junction node and exposes the next one. A cold start
therefore pays one sweep for every node between the first contact guess
and the converged boundary. To keep iteration counts small on fine grids,
howard_solve solves a cascade of coarsened versions of the same problem
and warm-starts each level from the previous one; only the coarsest level
starts from the all-continue policy (r, a) = (0, 0). The reported iteration
count is the total number of sweeps across all levels.

The tridiagonal solves use elimination without pivoting: every assembled
row is diagonally dominant by exactly delta, and identity rows pass through
elimination untouched, so stopped nodes carry w_i = -U^{-1}(x_i) bitwise
and each run of continuation rows between them is eliminated on its own.

Several sigmas are solved as one batch (howard_solve_many). sigma is the
only parameter that differs between them, so the batch's params.sigma is
the (P, 1) column of the sigmas and the iteration's arrays carry one row per
problem. Every step works node by node, so each problem's sweeps are
bitwise those of its solve alone; what the batch saves is numpy's per-call
overhead, which dominates a sweep on the coarse cold-start level.
howard_solve is the batch of one.

The answer depends on its route, not only on the scheme. The converged
policy is a fixed point of the improvement step, and that fixed point is
not unique to round-off: with _COARSE_LIMIT = 101 instead of 401 the
default solve (2001 nodes) converges in 46 sweeps instead of 61 to another
fixed point, with the same stop set, b_hat = 0.4655 and a residual of
2.27e-10 (3.29e-10 at 401), but with a* differing by up to 0.202 at
x = 0.2275 (2.3616 against 2.1594) and w lower at every continuation node,
by up to 5.25e-7. residual_check cannot tell the two apart. So the cascade
sizes, the warm starts and the Newton path are part of the published
numbers: they are kept as they are, and a change to any of them is a change
of the outputs, to be made on purpose and stated with its effect.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

_R_CAP = 1e12  # transient guard: keeps U(r) finite while iterates are wild
_A_HI = 50.0  # effort domain is [0, _A_HI]
_NEWTON_STEPS = 100  # safeguarded Newton: bisection alone needs ~60 steps
_EPS = np.finfo(float).eps
_COARSE_LIMIT = 401  # grids at most this size are solved from a cold start


class NoConvergence(RuntimeError):
    """Policy iteration ran out of iterations."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


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
    def make(x_max: float = 1.0, n: int = 2001) -> "Grid":
        if n < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not 0.0 < x_max < math.inf:
            raise ValueError("x_max must be finite and positive")
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


def _effort_objective(params: ModelParams, a, h_a, dw, d2w):
    """D(a) w'' + h(a) w' + phi(a), given h_a = h(a)."""
    return _diffusion(params, a) * d2w + h_a * dw + params.phi(a)


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

    g = _effort_objective(params, a, params.h(a), dw, d2w)
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

    Returns H, r, a, U(r), the drift b and the number of entries per row that
    took the convex branch of the effort maximizer.
    """
    r = _rent_candidate(params, dw)
    a, g_a, n_convex = _best_effort(params, dw, d2w)
    u_r = params.u(r)
    h_val = g_a + (params.lam * x - u_r) * dw - r
    b = params.lam * x - u_r + params.h(a)
    return h_val, r, a, u_r, b, n_convex


def _improve(params: ModelParams, grid: Grid, w: np.ndarray, psi: np.ndarray,
             r_cur: np.ndarray, a_cur: np.ndarray):
    """One policy-improvement sweep: per-node best action against w.

    Candidates per node: the closed-form rent and Newton effort maximizers
    (see _best_effort) at each one-sided slope (kept only when the drift it
    induces points to that side), the r = 0 fallback (drift
    lam x + h(a) >= 0 makes the forward side always consistent), and the
    incumbent policy. Keeping the incumbent bounds how much a sweep can
    lower the discrete Hamiltonian at any node (by the tie margin below, a
    few ulps), which is what keeps the iteration monotone in practice: the
    one-sided maximizers can both land on the wrong drift sign near a drift
    sign change, and without the incumbent the sweep would replace a good
    policy with a much worse one there and the iteration can cycle.

    One vectorized _best_response call maximizes over every candidate slope
    (both sides at each interior node, the one-sided slopes at the ends) of
    every problem; it works node by node, so stacking the slopes changes no
    bit of the result.

    w, r_cur and a_cur hold one row per problem (1-D for a scalar sigma).
    Returns (r, a, stop, n_convex) over the whole grid, n_convex counting
    per row the effort maximizations that took the w'' >= 0 branch. Boundary
    nodes get one-sided policies for reporting; stop[0] is pinned False (the
    state is absorbed at 0 with zero settlement) and stop[n-1] True
    (truncation convention).
    """
    dx = grid.dx
    xi = grid.x[1:-1]
    wi = w[..., 1:-1]
    dw_f = (w[..., 2:] - wi) / dx
    dw_b = (wi - w[..., :-2]) / dx
    d2w = (w[..., 2:] - 2.0 * wi + w[..., :-2]) / dx**2

    m = xi.size
    h_all, r_all, a_all, u_all, b_all, n_convex = _best_response(
        params,
        np.concatenate((xi, xi, grid.x[[0, -1]])),
        np.concatenate((dw_f, dw_b, dw_b[..., :1], dw_f[..., -1:]), axis=-1),
        np.concatenate((d2w, d2w, d2w[..., :1], d2w[..., -1:]), axis=-1),
    )
    fwd, bwd = slice(0, m), slice(m, 2 * m)
    h_f, r_f, a_f, b_f = h_all[..., fwd], r_all[..., fwd], a_all[..., fwd], b_all[..., fwd]
    h_b, r_b, a_b, b_b = h_all[..., bwd], r_all[..., bwd], a_all[..., bwd], b_all[..., bwd]
    h_0 = h_f + u_all[..., fwd] * dw_f + r_f

    ri, ai = r_cur[..., 1:-1], a_cur[..., 1:-1]
    drift_r, h_ai = params.lam * xi - params.u(ri), params.h(ai)  # drift = drift_r + h(a)
    dw_inc = np.where(drift_r + h_ai >= 0.0, dw_f, dw_b)
    h_inc = _effort_objective(params, ai, h_ai, dw_inc, d2w) + drift_r * dw_inc - ri

    neg_inf = -np.inf
    stack_h = np.stack([
        np.where(b_f >= 0.0, h_f, neg_inf),
        np.where(b_b < 0.0, h_b, neg_inf),
        h_0,
    ])
    choice = np.argmax(stack_h, axis=0)  # first max wins: deterministic ties
    h_fresh = np.take_along_axis(stack_h, choice[None], axis=0)[0]
    r_int = np.choose(choice, [r_f, r_b, np.zeros_like(r_f)])
    a_int = np.choose(choice, [a_f, a_b, a_f])

    # The incumbent must clear a few-ulp margin to displace a fresh
    # candidate. Near convergence the one-sweep-stale incumbent trails the
    # fresh maximizer by less than one ulp of H (the gap is quadratic in the
    # policy lag), so a bare argmax lets rounding keep the stale rent and the
    # stored policy drifts off the closed form at ~1e-9. Where the incumbent
    # genuinely carries the node (both one-sided maximizers drift-
    # inconsistent, optimum pinched at the drift sign change) its edge is
    # orders of magnitude above the margin and it still wins.
    margin = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(h_fresh))
    take_inc = h_inc > h_fresh + margin
    h_best = np.where(take_inc, h_inc, h_fresh)
    r_int = np.where(take_inc, ri, r_int)
    a_int = np.where(take_inc, ai, a_int)

    stop_int = (psi[1:-1] - wi) > (h_best - params.delta * wi)

    # boundary nodes take their one-sided policies, for reporting only
    r = np.concatenate((r_all[..., -2:-1], r_int, r_all[..., -1:]), axis=-1)
    a = np.concatenate((a_all[..., -2:-1], a_int, a_all[..., -1:]), axis=-1)
    stop = np.ones(w.shape, dtype=bool)
    stop[..., 0] = False
    stop[..., 1:-1] = stop_int
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


def _evaluate(params: ModelParams, grid: Grid, r, a, stop, psi) -> np.ndarray:
    """Solve the linear system for a fixed policy, one system per row.

    Continuation rows: delta w - L^{a,r} w = phi(a) - r. Stopped rows:
    w_i = psi_i. Ends are Dirichlet: w_0 = 0, w_{n-1} = psi_{n-1}. A stopped
    row decouples the system, so stopped nodes take psi as is and each
    maximal run of continuation rows is eliminated on its own, with its
    stopped neighbours' psi moved to the right-hand side. That gives the bits
    of one elimination over the whole system with identity rows at stopped
    nodes: an identity row comes through elimination as psi and restarts it.
    No pivoting: rows are diagonally dominant by exactly delta.
    """
    dx = grid.dx
    xi = grid.x[1:-1]
    ri, ai, stop_i = r[..., 1:-1], a[..., 1:-1], stop[..., 1:-1]
    dcoef = _diffusion(params, ai)
    b = params.lam * xi - params.u(ri) + params.h(ai)
    fwd = b >= 0.0
    d_dx2 = dcoef / dx**2
    b_dx = b / dx
    lower = np.where(fwd, -d_dx2, -d_dx2 + b_dx)
    diag = params.delta + 2.0 * d_dx2 + np.abs(b_dx)
    upper = np.where(fwd, -(d_dx2 + b_dx), -d_dx2)
    rhs = params.phi(ai) - ri

    # monotone scheme: non-positive off-diagonals, dominance margin delta
    # (checked with relative slack: when 2 D/dx^2 is huge its ulp can absorb
    # the delta term, which does not threaten the elimination)
    if not (np.all(lower <= 0.0) and np.all(upper <= 0.0)):
        raise NonMonotoneScheme("positive off-diagonal coefficient")
    if not (np.all(np.isfinite(diag)) and np.all(diag > 0.0)):
        raise NonMonotoneScheme("non-finite or non-positive diagonal")
    if not np.all(diag + lower + upper >= -1e-9 * diag):
        raise NonMonotoneScheme("rows lost diagonal dominance")

    # fold the Dirichlet ends into the right-hand side (w_0 = 0 adds nothing)
    rhs[..., -1] -= upper[..., -1] * psi[-1]

    m = xi.size
    w = np.empty(stop.shape)
    w[..., 0] = 0.0
    w[..., 1:-1] = psi[1:-1]
    w[..., -1] = psi[-1]
    interior = w.reshape(-1, grid.n)[:, 1:-1]
    lower, diag, upper, rhs = (v.reshape(-1, m) for v in (lower, diag, upper, rhs))
    # each run of continuation rows [s, e): +1 where it starts, -1 past its end
    edge = np.zeros((interior.shape[0], 1), dtype=bool)
    cont = np.concatenate((edge, ~stop_i.reshape(-1, m), edge), axis=1).view(np.int8)
    p_at, at = np.nonzero(np.diff(cont, axis=1))
    for p, s, e in zip(p_at[::2].tolist(), at[::2].tolist(), at[1::2].tolist()):
        interior[p, s:e] = _eliminate(lower[p, s:e].tolist(), diag[p, s:e].tolist(),
                                      upper[p, s:e].tolist(), rhs[p, s:e].tolist(),
                                      None if s == 0 else float(psi[s]),
                                      None if e == m else float(psi[e + 1]))
    return w


def _max_defect(params: ModelParams, grid: Grid, w, r, a, stop, psi):
    """max over interior nodes of |min(delta w - H, w + U^{-1}(x))|, per row.

    Monotone scheme at the stored policy: central second difference on the
    diffusion, drift upwinded on its own sign (forward when b >= 0,
    backward otherwise).
    """
    dx = grid.dx
    xi = grid.x[1:-1]
    wi = w[..., 1:-1]
    ri, ai = r[..., 1:-1], a[..., 1:-1]
    dcoef = _diffusion(params, ai)
    b = params.lam * xi - params.u(ri) + params.h(ai)
    second = (w[..., 2:] - 2.0 * wi + w[..., :-2]) / dx**2
    first = np.where(b >= 0.0, (w[..., 2:] - wi) / dx, (wi - w[..., :-2]) / dx)
    lw = dcoef * second + b * first + params.phi(ai) - ri - params.delta * wi
    defect = np.minimum(-lw, wi - psi[1:-1])
    return np.max(np.abs(defect), axis=-1)


def residual_check(solution: SecondBestSolution, params: ModelParams, grid: Grid) -> float:
    """Max pointwise defect of the variational inequality at the stored policy.

    grid must be the solution's own (same x_max and n); any other grid
    raises ValueError, as the stored arrays are node values on that grid.
    """
    if (grid.x_max, grid.n) != (solution.grid.x_max, solution.grid.n):
        raise ValueError(f"grid (x_max={grid.x_max:.6g}, n={grid.n}) is not the solution's "
                         f"(x_max={solution.grid.x_max:.6g}, n={solution.grid.n})")
    psi = -params.u_inv(grid.x)
    return float(_max_defect(params, grid, solution.w, solution.r_star, solution.a_star,
                             solution.stop, psi))


def _level_sizes(n: int) -> list[int]:
    """Coarse-to-fine node counts ending at n, halving down to a cold-start size."""
    sizes = [n]
    while sizes[-1] > _COARSE_LIMIT:
        sizes.append((sizes[-1] - 1) // 2 + 1)
    return sizes[::-1]


def _solve_level(params: ModelParams, grid: Grid, psi, r, a, stop, tol: float, budgets):
    """Run policy iteration on one grid for a batch of problems.

    Row p of r, a and stop is problem p's starting policy, budgets[p] the
    sweeps it may spend here. Returns (w, r, a, stop, sweeps, n_convex,
    converged), one row or entry per problem, n_convex summed over its
    sweeps. A problem has converged when its policy reproduces itself
    exactly, or when its value moved less than tol while its stop set stayed
    fixed and its pointwise defect is within its reporting bound. A value
    step below tol with the contact boundary still moving is not
    convergence: near its fixed point the boundary recedes one node per
    sweep with value steps of the same size as tol, and declaring
    convergence mid-recession leaves a junction defect orders of magnitude
    above the value step.

    A problem leaves the batch when it converges or has spent its budget.
    One that did not converge returns its last value and the policy improved
    from it, the state whose defect NoConvergence reports; with a budget of
    0 that is its starting policy and the value of it.
    """
    w_out = np.empty(r.shape)
    r_out, a_out, stop_out = r.copy(), a.copy(), stop.copy()
    sweeps = np.zeros(len(budgets), dtype=int)
    n_convex = np.zeros(len(budgets), dtype=int)
    converged = np.zeros(len(budgets), dtype=bool)
    idle = budgets == 0
    if idle.any():
        w_out[idle] = _evaluate(_rows(params, idle), grid, r[idle], a[idle], stop[idle], psi)

    live = np.flatnonzero(~idle)
    r, a, stop = r[live], a[live], stop[live]
    batch = _rows(params, live)
    w_prev = None
    sweep = 0
    while live.size:
        sweep += 1
        w = _evaluate(batch, grid, r, a, stop, psi)
        r_new, a_new, stop_new, n = _improve(batch, grid, w, psi, r, a)
        n_convex[live] += n
        same_stop = (stop_new == stop).all(axis=-1)
        done = same_stop & (r_new == r).all(axis=-1) & (a_new == a).all(axis=-1)
        if w_prev is not None:
            near = ~done & same_stop & (np.abs(w - w_prev).max(axis=-1) < tol)
            if near.any():
                done[near] = _max_defect(_rows(batch, near), grid, w[near], r_new[near],
                                         a_new[near], stop_new[near], psi) <= 10.0 * tol
        leave = done | (sweep == budgets[live])
        if leave.any():
            out = live[leave]
            w_out[out], r_out[out], a_out[out] = w[leave], r_new[leave], a_new[leave]
            stop_out[out] = stop_new[leave]
            sweeps[out] = sweep
            converged[out] = done[leave]
            stay = ~leave
            live, w, r_new, a_new, stop_new = (live[stay], w[stay], r_new[stay], a_new[stay],
                                               stop_new[stay])
            batch = _rows(batch, stay)
        r, a, stop, w_prev = r_new, a_new, stop_new, w
    return w_out, r_out, a_out, stop_out, sweeps, n_convex, converged


def howard_solve_many(params: ModelParams, sigmas, grid: Grid, tol: float = 1e-9,
                      max_iter: int = 200) -> list:
    """howard_solve for every sigma of sigmas, as one batch.

    Returns, per sigma in order, the SecondBestSolution that howard_solve
    returns for it, bitwise, or the NoConvergence it raises. sigma is the
    only parameter that differs across the batch, so params.sigma becomes
    the (P, 1) column of the sigmas and every array of the iteration gains a
    leading problem axis; every step works node by node. The problems share
    the cascade levels and advance level by level together, each with its
    own budget of max_iter sweeps, and a problem leaves the batch when it
    converges or spends its budget. A NonMonotoneScheme in any problem
    raises for the batch; max_iter < 1 raises ValueError.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    sigma = np.array(sigmas, dtype=float).reshape(-1, 1)
    out = [None] * len(sigma)
    live = np.arange(len(sigma))  # the problems still being solved, in order
    used = np.zeros(len(sigma), dtype=int)
    n_convex = np.zeros(len(sigma), dtype=int)
    level = None
    for size in _level_sizes(grid.n):
        if not live.size:
            return out
        prev, level = level, (grid if size == grid.n else Grid.make(grid.x_max, size))
        psi = -params.u_inv(level.x)
        if prev is None:
            r = np.zeros((live.size, level.n))
            a = np.zeros((live.size, level.n))
            stop = np.zeros((live.size, level.n), dtype=bool)
        else:
            r = np.array([np.interp(level.x, prev.x, row) for row in r])
            a = np.array([np.interp(level.x, prev.x, row) for row in a])
            nearest = np.clip(np.rint(level.x / prev.dx).astype(int), 0, prev.n - 1)
            stop = stop[:, nearest]
            stop[:, 0] = False
        stop[:, -1] = True
        batch = dataclasses.replace(params, sigma=sigma[live])
        w, r, a, stop, sweeps, n, converged = _solve_level(
            batch, level, psi, r, a, stop, tol, max_iter - used[live])
        used[live] += sweeps
        n_convex[live] += n
        residual = _max_defect(batch, level, w, r, a, stop, psi)
        for i in np.flatnonzero(~converged):
            # the budget ran out, perhaps exactly at the end of a level
            out[live[i]] = NoConvergence(iterations=max_iter, residual=float(residual[i]))
        live, w, r, a, stop, residual = (v[converged] for v in (live, w, r, a, stop, residual))

    growth = np.max(np.abs(w) - params.u_inv(grid.x), axis=-1)
    first_stop = np.argmax(stop, axis=-1)
    for i, p in enumerate(live.tolist()):
        out[p] = SecondBestSolution(
            grid=grid, w=w[i].copy(), r_star=r[i].copy(), a_star=a[i].copy(),
            stop=stop[i].copy(), b_hat=float(grid.x[first_stop[i]]),
            k_growth=max(0.0, float(growth[i])), iterations=int(used[p]),
            residual=float(residual[i]), effort_convex_nodes=int(n_convex[p]),
        )
    return out


def howard_solve(params: ModelParams, grid: Grid, tol: float = 1e-9,
                 max_iter: int = 200) -> SecondBestSolution:
    """Policy iteration on the discretized variational inequality.

    Fine grids are warm-started from a cascade of coarsened solves of the
    same problem (see module docstring); the coarsest level starts from
    continue-everywhere with (r, a) = (0, 0). max_iter bounds the total
    sweep count across all levels, and the reported iteration count is
    that total. The reported policy is the final improvement against the
    converged value, so r_star and a_star are the feedback maximizers of
    the discrete Hamiltonian. A budget that runs out, even exactly at a
    level boundary, raises NoConvergence; max_iter < 1 raises ValueError.
    This is howard_solve_many's batch of one.
    """
    solution, = howard_solve_many(params, [params.sigma], grid, tol=tol, max_iter=max_iter)
    if isinstance(solution, NoConvergence):
        raise solution
    return solution
