"""Forward simulation of the solved contract.

Simulates the agent's continuation value J under the stored feedback
policies (Euler-Maruyama), estimates the principal's value by Monte Carlo
as an independent check on the PDE solve, tests incentive compatibility
against deviating effort policies, and reconstructs the driving noise from
the simulated output path.

Randomness is counter-based: each path draws from its own Philox stream
keyed by (seed, path_id), so results are bitwise identical regardless of
chunking, execution order, or which other paths run alongside. Deviation
arms reuse the same streams (common random numbers).

Under a deviated effort the contract still pays and stops according to the
book-kept state it infers from observed output, so the state follows the
contract's drift plus the exposure times the output surprise. The agent's
realized cost uses the deviated effort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hjbvi import SecondBestSolution
from .incentive import z_from_effort
from .model import ModelParams

_CHUNK = 256          # paths stepped in lockstep per chunk
_NOISE_BLOCK = 512    # normals drawn per path per refill


class PolicyOutOfRange(ValueError):
    """State left [0, x_max]: the interpolated policies are undefined there."""


class DegenerateEffort(RuntimeError):
    """Noise reconstruction hit a step with zero effort (no output exposure)."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 200.0
    n_paths: int = 10_000
    seed: int = 42

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.n_steps < 1:
            raise ValueError("horizon must cover at least one step")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class PathBundle:
    """One simulated path, stored up to its stopping step.

    times has len(w_increments) + 1 entries; j_path and x_path align with
    times; r_path and a_path hold the policies applied on each step
    interval. tau is the stopping time, censored at the horizon when the
    path is still alive there. j_path keeps the raw Euler states: a floored
    path ends with a small negative value, while its settlement, and the
    terminal payment, use the floor convention (pay nothing at or below 0).
    """

    path_id: int
    times: np.ndarray
    j_path: np.ndarray
    x_path: np.ndarray
    w_increments: np.ndarray
    r_path: np.ndarray
    a_path: np.ndarray
    tau: float
    discounted_payoff: float
    terminal_payment: float
    floor: bool
    censored: bool


@dataclass(frozen=True)
class MCValue:
    """Monte Carlo estimate of the principal's value at x0."""

    estimate: float
    std_error: float
    n_paths: int
    n_floor: int
    n_censored: int
    censoring_bias_bound: float


@dataclass(frozen=True)
class DeviationResult:
    estimate: float
    std_error: float
    margin: float        # baseline estimate minus this arm's estimate
    margin_se: float     # standard error of the paired difference
    satisfied: bool      # margin >= -2 margin_se


@dataclass(frozen=True)
class IncentiveReport:
    baseline: float
    baseline_se: float
    deviations: tuple[DeviationResult, ...]
    satisfied: bool


def interpolate_policy(solution: SecondBestSolution, x):
    """Piecewise-linear (r*, a*) at x; raises PolicyOutOfRange off the grid."""
    x = np.asarray(x, dtype=float)
    g = solution.grid
    if np.any(x < 0.0) or np.any(x > g.x_max):
        raise PolicyOutOfRange("state outside [0, x_max]")
    return np.interp(x, g.x, solution.r_star), np.interp(x, g.x, solution.a_star)


def in_stop_region(solution: SecondBestSolution, x):
    """Stop-region membership by the nearest grid node's flag."""
    x = np.asarray(x, dtype=float)
    g = solution.grid
    idx = np.clip(np.rint(x / g.dx).astype(np.int64), 0, g.n - 1)
    return solution.stop[idx]


def _stream(seed: int, path_id: int) -> np.random.Generator:
    # 128-bit Philox key: seed in the high word, path id in the low word
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(path_id)))


class _ChunkResult:
    __slots__ = ("principal", "agent", "tau", "terminal", "floor", "censored", "records")

    def __init__(self, c):
        self.principal = np.zeros(c)
        self.agent = np.zeros(c)
        self.tau = np.zeros(c)
        self.terminal = np.zeros(c)
        self.floor = np.zeros(c, dtype=bool)
        self.censored = np.zeros(c, dtype=bool)
        self.records = None


def _run_chunk(params: ModelParams, solution: SecondBestSolution, x0: float,
               cfg: SimConfig, path_ids, effort_map, record: bool) -> _ChunkResult:
    """Step one chunk of paths in lockstep until all are stopped.

    Dead lanes are frozen with np.where; their arithmetic still runs but
    never feeds back, so per-path results do not depend on chunk makeup.
    """
    g = solution.grid
    c = len(path_ids)
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    decay_d = np.exp(-params.delta * dt)
    decay_l = np.exp(-params.lam * dt)
    n_steps = cfg.n_steps

    gens = [_stream(cfg.seed, pid) for pid in path_ids]
    noise = np.empty((c, _NOISE_BLOCK))

    j = np.full(c, float(x0))
    x = np.zeros(c)
    alive = np.ones(c, dtype=bool)
    disc_d = np.ones(c)   # e^{-delta t} at the current step's left endpoint
    disc_l = np.ones(c)
    out = _ChunkResult(c)
    death_step = np.zeros(c, dtype=np.int64)

    rec_j = [j.copy()] if record else None
    rec_x = [x.copy()] if record else None
    rec_dw, rec_r, rec_a = ([], [], []) if record else (None, None, None)

    for k in range(n_steps):
        if not alive.any():
            break
        if k % _NOISE_BLOCK == 0:
            for i, gen in enumerate(gens):
                noise[i] = gen.standard_normal(_NOISE_BLOCK)
        dw = noise[:, k % _NOISE_BLOCK] * sqrt_dt

        r = np.interp(j, g.x, solution.r_star)
        a = np.interp(j, g.x, solution.a_star)
        z = z_from_effort(params, a)
        u_r = params.u(r)
        if effort_map is None:
            a_applied = a
            extra = 0.0
        else:
            a_applied = np.asarray(effort_map(j), dtype=float)
            extra = params.cost_impact_ratio(a) * (params.phi(a_applied) - params.phi(a)) * dt

        out.principal += np.where(alive, disc_d * (params.phi(a_applied) - r) * dt, 0.0)
        out.agent += np.where(alive, disc_l * (u_r - params.h(a_applied)) * dt, 0.0)

        drift = params.lam * j - u_r + params.h(a)
        j_new = j + drift * dt + extra + z * dw
        x_new = x + params.phi(a_applied) * dt + params.sigma * dw

        disc_d_new = disc_d * decay_d
        disc_l_new = disc_l * decay_l

        floored = alive & (j_new <= 0.0)
        if np.any(alive & (j_new > g.x_max)):
            raise PolicyOutOfRange("state exceeded x_max during simulation")
        stopped = alive & ~floored & in_stop_region(solution, np.clip(j_new, 0.0, g.x_max))
        censored = alive & ~floored & ~stopped if k == n_steps - 1 else np.zeros(c, dtype=bool)
        ending = floored | stopped | censored

        if np.any(ending):
            # the floor settles at zero payment; the stored state stays the
            # raw Euler value so path statistics see the true increments
            j_settle = np.where(floored, 0.0, j_new)
            xi = params.u_inv(j_settle)
            out.principal = np.where(ending, out.principal - disc_d_new * xi, out.principal)
            out.agent = np.where(ending, out.agent + disc_l_new * j_settle, out.agent)
            out.terminal = np.where(ending, xi, out.terminal)
            out.tau = np.where(ending, (k + 1) * dt, out.tau)
            out.floor |= floored
            out.censored |= censored
            death_step = np.where(ending, k + 1, death_step)

        if record:
            rec_r.append(np.where(alive, r, 0.0))
            rec_a.append(np.where(alive, a_applied, 0.0))
            rec_dw.append(np.where(alive, dw, 0.0))
            rec_j.append(np.where(alive, j_new, rec_j[-1]))
            rec_x.append(np.where(alive, x_new, rec_x[-1]))

        j = np.where(alive, j_new, j)
        x = np.where(alive, x_new, x)
        disc_d = np.where(alive, disc_d_new, disc_d)
        disc_l = np.where(alive, disc_l_new, disc_l)
        alive = alive & ~ending

    if record:
        out.records = (np.vstack(rec_j), np.vstack(rec_x), np.vstack(rec_dw),
                       np.vstack(rec_r), np.vstack(rec_a), death_step)
    return out


def _iter_chunks(params, solution, x0, cfg, effort_map, record):
    for start in range(0, cfg.n_paths, _CHUNK):
        ids = list(range(start, min(start + _CHUNK, cfg.n_paths)))
        yield ids, _run_chunk(params, solution, x0, cfg, ids, effort_map, record)


def _run_paths(params, solution, x0, cfg, effort_map=None, record=False):
    if not (0.0 < x0 < solution.b_hat):
        raise PolicyOutOfRange("x0 must lie strictly inside (0, b_hat)")
    if bool(in_stop_region(solution, np.asarray([x0]))[0]):
        raise PolicyOutOfRange("x0 rounds to a stopped node: zero-length path")
    return _iter_chunks(params, solution, x0, cfg, effort_map, record)


def simulate_paths(params: ModelParams, solution: SecondBestSolution, x0: float,
                   cfg: SimConfig) -> list[PathBundle]:
    """Euler-Maruyama paths of the contract state from x0, one bundle per path.

    Each path runs until it enters the stop region (nearest-node flag), is
    absorbed at the floor J = 0 (terminal payment 0, flagged), or reaches
    the horizon (flagged censored; its payoff uses the obstacle value at the
    horizon state).
    """
    bundles = []
    dt = cfg.dt
    for ids, chunk in _run_paths(params, solution, x0, cfg, record=True):
        mj, mx, mdw, mr, ma, death = chunk.records
        for lane, pid in enumerate(ids):
            n = int(death[lane]) if death[lane] > 0 else mdw.shape[0]
            bundles.append(PathBundle(
                path_id=pid,
                times=np.arange(n + 1) * dt,
                j_path=mj[:n + 1, lane].copy(),
                x_path=mx[:n + 1, lane].copy(),
                w_increments=mdw[:n, lane].copy(),
                r_path=mr[:n, lane].copy(),
                a_path=ma[:n, lane].copy(),
                tau=float(chunk.tau[lane]),
                discounted_payoff=float(chunk.principal[lane]),
                terminal_payment=float(chunk.terminal[lane]),
                floor=bool(chunk.floor[lane]),
                censored=bool(chunk.censored[lane]),
            ))
    return bundles


def _std_error(values) -> float:
    """Standard error of the sample mean; 0 for a single sample."""
    n = len(values)
    return float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _mc_value(params, solution, cfg, payoffs, n_floor, n_censored) -> MCValue:
    bias = float(np.exp(-params.delta * cfg.horizon)
                 * (solution.k_growth + params.u_inv(solution.grid.x_max)))
    return MCValue(float(np.mean(payoffs)), _std_error(payoffs), len(payoffs),
                   n_floor, n_censored, bias)


def mc_principal_value(params: ModelParams, solution: SecondBestSolution,
                       x0: float, cfg: SimConfig) -> MCValue:
    """Sample mean and standard error of the discounted principal payoff."""
    payoffs = np.empty(cfg.n_paths)
    n_floor = 0
    n_censored = 0
    for ids, chunk in _run_paths(params, solution, x0, cfg):
        payoffs[ids[0]:ids[-1] + 1] = chunk.principal
        n_floor += int(chunk.floor.sum())
        n_censored += int(chunk.censored.sum())
    return _mc_value(params, solution, cfg, payoffs, n_floor, n_censored)


def summarize_paths(params: ModelParams, solution: SecondBestSolution,
                    cfg: SimConfig, bundles) -> MCValue:
    """The MCValue of simulate_paths' bundles: what mc_principal_value returns."""
    payoffs = np.array([b.discounted_payoff for b in bundles])
    return _mc_value(params, solution, cfg, payoffs, sum(b.floor for b in bundles),
                     sum(b.censored for b in bundles))


def _agent_objectives(params, solution, x0, cfg, effort_map):
    vals = np.empty(cfg.n_paths)
    for ids, chunk in _run_paths(params, solution, x0, cfg, effort_map=effort_map):
        vals[ids[0]:ids[-1] + 1] = chunk.agent
    return vals


def incentive_check(params: ModelParams, solution: SecondBestSolution, x0: float,
                    cfg: SimConfig, deviations) -> IncentiveReport:
    """Monte Carlo test that no tested effort deviation beats the contract.

    Each deviation is a map x -> a >= 0 applied to the book-kept state. All
    arms share the per-path noise streams, so the baseline-minus-deviation
    margin is a paired estimate with its own (much smaller) standard error.
    A deviation is flagged when its margin falls below -2 margin_se.
    """
    base = _agent_objectives(params, solution, x0, cfg, None)
    rows = []
    for dev in deviations:
        vals = _agent_objectives(params, solution, x0, cfg, dev)
        diff = base - vals
        margin = float(np.mean(diff))
        margin_se = _std_error(diff)
        rows.append(DeviationResult(
            estimate=float(np.mean(vals)),
            std_error=_std_error(vals),
            margin=margin,
            margin_se=margin_se,
            satisfied=bool(margin >= -2.0 * margin_se),
        ))
    return IncentiveReport(float(np.mean(base)), _std_error(base), tuple(rows),
                           all(r.satisfied for r in rows))


def reconstruct_noise(params: ModelParams, bundle: PathBundle) -> float:
    """Max error rebuilding the noise increments from the output path.

    Inverts the same Euler step, dW = (dX - phi(a) dt) / sigma, so the error
    is pure round-off. Raises DegenerateEffort if any step has zero effort:
    there the output carries no trace of the noise.
    """
    if bundle.a_path.size == 0:
        return 0.0
    if np.any(bundle.a_path <= 0.0):
        raise DegenerateEffort(f"path {bundle.path_id} has a zero-effort step")
    dt = np.diff(bundle.times)
    dw = (np.diff(bundle.x_path) - params.phi(bundle.a_path) * dt) / params.sigma
    return float(np.max(np.abs(dw - bundle.w_increments)))


def reconstruct_state(params: ModelParams, bundle: PathBundle) -> float:
    """Max error rebuilding the state path from the output path.

    Re-runs the discrete state recursion with the noise recovered from X
    (the same inversion as reconstruct_noise), checking that output plus
    policies determine the state: the discrete form of the filtration
    coincidence at the optimum.
    """
    if bundle.a_path.size == 0:
        return 0.0
    if np.any(bundle.a_path <= 0.0):
        raise DegenerateEffort(f"path {bundle.path_id} has a zero-effort step")
    dt = np.diff(bundle.times)
    dw = (np.diff(bundle.x_path) - params.phi(bundle.a_path) * dt) / params.sigma
    j = bundle.j_path[0]
    err = 0.0
    for k in range(dt.size):
        r, a = bundle.r_path[k], bundle.a_path[k]
        drift = params.lam * j - params.u(r) + params.h(a)
        j = j + drift * dt[k] + float(z_from_effort(params, a)) * dw[k]
        err = max(err, abs(j - bundle.j_path[k + 1]))
    return float(err)


def noise_reconstruction_report(params: ModelParams, bundles) -> tuple[float, int]:
    """(max reconstruction error over clean paths, number excluded)."""
    worst = 0.0
    excluded = 0
    for b in bundles:
        try:
            worst = max(worst, reconstruct_noise(params, b))
        except DegenerateEffort:
            excluded += 1
    return worst, excluded
