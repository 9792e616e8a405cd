"""Forward simulation of the solved contract.

Simulates the agent's continuation value J under the stored feedback
policies (Euler-Maruyama), estimates the principal's value by Monte Carlo
as an independent check on the PDE solve, tests incentive compatibility
against deviating effort policies, and reconstructs the driving noise from
the simulated output path.

Paths run through a fixed pool of _CHUNK lanes: a lane steps one path at a
time, takes the next unstarted path when it ends, and leaves the pool once
none is left, so no arithmetic runs for finished paths. Randomness is
counter-based: each path draws from its own Philox stream keyed by
(seed, path_id), so results are bitwise identical regardless of the pool
width, which lane runs a path, or which other paths run alongside.
Deviation arms reuse the same streams (common random numbers).

Under a deviated effort the contract still pays and stops according to the
book-kept state it infers from observed output, so the state follows the
contract's drift plus the exposure times the output surprise. The agent's
realized cost uses the deviated effort.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hjbvi import SecondBestSolution
from .model import ModelParams

_CHUNK = 256          # lanes in the pool
_NOISE_BLOCK = 64     # normals drawn per lane per refill


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
    interval. The arrays are views of a PathTable's columns. tau is the
    stopping time, censored at the horizon when the path is still alive
    there. j_path keeps the raw Euler states: a floored path ends with a
    small negative value, while its settlement, and the terminal payment,
    use the floor convention (pay nothing at or below 0).
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


def _philox_start(seed: int) -> dict:
    """Philox start state for _rekey: 128-bit key (path id low word, seed
    high word), counter 0, empty buffer. One per run: _rekey writes its key."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([0, seed], dtype=np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _rekey(gen: np.random.Generator, start: dict, path_id: int) -> None:
    """Reset gen in place to Philox(key=(seed << 64) | path_id)'s start state;
    the setter copies the arrays, so start can be reused for the next path."""
    start["state"]["key"][0] = path_id
    gen.bit_generator.state = start


class _Paths:
    """Per-path results of one run, indexed by path id; agent, tau and
    terminal are None unless the run accumulates them."""

    __slots__ = ("principal", "agent", "tau", "terminal", "floor", "censored", "records")

    def __init__(self, n, agent, record):
        self.principal = np.zeros(n)
        self.agent = np.zeros(n) if agent else None
        self.tau = np.zeros(n) if record else None
        self.terminal = np.zeros(n) if record else None
        self.floor = np.zeros(n, dtype=bool)
        self.censored = np.zeros(n, dtype=bool)
        self.records = None


def _run_paths(params: ModelParams, solution: SecondBestSolution, x0: float,
               cfg: SimConfig, effort_map=None, agent=False, record=False) -> _Paths:
    """Step all cfg.n_paths paths through a pool of _CHUNK lanes.

    A lane's own step count picks its noise column, its censoring step and
    its tau. A lane whose path ends is re-keyed to the next unstarted path
    id; once the queue is empty, finished lanes are dropped. The principal's
    payoff is always accumulated; agent adds the agent's, and record adds
    tau, the terminal payment and the step records (steps per path, then
    j, x, dw, r, a sorted by path id in step order).
    """
    if not (0.0 < x0 < solution.b_hat):
        raise PolicyOutOfRange("x0 must lie strictly inside (0, b_hat)")
    if bool(in_stop_region(solution, np.asarray([x0]))[0]):
        raise PolicyOutOfRange("x0 rounds to a stopped node: zero-length path")
    g = solution.grid
    n, dt, last = cfg.n_paths, cfg.dt, cfg.n_steps - 1
    sqrt_dt = np.sqrt(dt)
    decay_d = np.exp(-params.delta * dt)
    decay_l = np.exp(-params.lam * dt)
    out = _Paths(n, agent, record)

    width = min(_CHUNK, n)
    pid = np.arange(width)
    next_pid = width
    gens = [np.random.Generator(np.random.Philox(0)) for _ in range(width)]
    start = _philox_start(cfg.seed)
    for gen, p in zip(gens, pid):
        _rekey(gen, start, p)
    noise = np.empty((width, _NOISE_BLOCK))
    step = np.zeros(width, dtype=np.int64)
    j = np.full(width, float(x0))
    x = np.zeros(width)
    disc_d = np.ones(width)   # e^{-delta t} at the current step's left endpoint
    disc_l = np.ones(width)
    pay_p = np.zeros(width)
    pay_a = np.zeros(width)
    rec = ([], [], [], [], [], []) if record else None
    # recorded path ids take the narrowest unsigned type: the records set the
    # peak memory of a recording run
    pid_type = np.min_scalar_type(n)

    while pid.size:
        col = step % _NOISE_BLOCK
        for i in np.flatnonzero(col == 0):
            gens[i].standard_normal(out=noise[i])
        dw = noise[np.arange(pid.size), col] * sqrt_dt

        r = np.interp(j, g.x, solution.r_star)
        a = np.interp(j, g.x, solution.a_star)
        u_r = params.u(r)
        h_a = params.h(a)
        if effort_map is None:
            a_applied, phi_applied, h_applied = a, params.phi(a), h_a
            extra = 0.0
        else:
            a_applied = np.asarray(effort_map(j), dtype=float)
            phi_applied, h_applied = params.phi(a_applied), params.h(a_applied)
            extra = params.cost_impact_ratio(a) * (phi_applied - params.phi(a)) * dt

        pay_p += disc_d * (phi_applied - r) * dt
        if agent:
            pay_a += disc_l * (u_r - h_applied) * dt

        j_new = j + (params.lam * j - u_r + h_a) * dt + extra + params.exposure(a) * dw
        if record:
            x = x + phi_applied * dt + params.sigma * dw
            # pid, j and x are lane arrays, reset in place when a lane refills
            for store, v in zip(rec, (pid.astype(pid_type), j_new.copy(), x.copy(),
                                      dw, r, a_applied)):
                store.append(v)
        disc_d = disc_d * decay_d
        disc_l = disc_l * decay_l

        floored = j_new <= 0.0
        if np.any(j_new > g.x_max):
            raise PolicyOutOfRange("state exceeded x_max during simulation")
        stopped = ~floored & in_stop_region(solution, j_new)  # clips its node index
        censored = ~floored & ~stopped & (step == last)
        step += 1
        j = j_new
        ended = np.flatnonzero(floored | stopped | censored)
        # the floor settles at zero payment; the stored state stays the
        # raw Euler value so path statistics see the true increments
        ids = pid[ended]
        j_settle = np.where(floored[ended], 0.0, j_new[ended])
        xi = params.u_inv(j_settle)
        out.principal[ids] = pay_p[ended] - disc_d[ended] * xi
        if agent:
            out.agent[ids] = pay_a[ended] + disc_l[ended] * j_settle
        out.floor[ids] = floored[ended]
        out.censored[ids] = censored[ended]
        if record:
            out.tau[ids] = step[ended] * dt
            out.terminal[ids] = xi

        fresh = ended[:n - next_pid]
        pid[fresh] = np.arange(next_pid, next_pid + fresh.size)
        next_pid += fresh.size
        for i in fresh:
            _rekey(gens[i], start, pid[i])
        for v, v0 in ((step, 0), (j, x0), (x, 0.0), (disc_d, 1.0), (disc_l, 1.0),
                      (pay_p, 0.0), (pay_a, 0.0)):
            v[fresh] = v0
        if fresh.size < ended.size:
            keep = np.ones(pid.size, dtype=bool)
            keep[ended[fresh.size:]] = False
            gens = [gen for gen, kept in zip(gens, keep) if kept]
            pid, step, j, x, disc_d, disc_l, pay_p, pay_a, noise = (
                v[keep] for v in (pid, step, j, x, disc_d, disc_l, pay_p, pay_a, noise))

    if record:
        # one stable sort by path id keeps each path's steps in order
        pids = np.concatenate(rec[0])
        rec[0].clear()
        order = np.argsort(pids, kind="stable")
        out.records = [np.bincount(pids, minlength=n)]
        for store in rec[1:]:
            out.records.append(np.concatenate(store)[order])
            store.clear()
    return out


@dataclass(frozen=True, eq=False)
class PathTable(Sequence):
    """Simulated paths as flat columns in paths.csv's layout.

    Per node, paths in id order: path_id, t, j, x, dw (0 on a path's first
    row), stopped (True on the last row of a path that ended before the
    horizon). Per step: r, a. Per path: starts (first node row), steps, tau,
    payoff, terminal, floor, censored. As a sequence, table[i] is path i's
    PathBundle of views of the columns; slices and iteration act as on a list.
    """

    path_id: np.ndarray
    t: np.ndarray
    j: np.ndarray
    x: np.ndarray
    dw: np.ndarray
    stopped: np.ndarray
    r: np.ndarray
    a: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    tau: np.ndarray
    payoff: np.ndarray
    terminal: np.ndarray
    floor: np.ndarray
    censored: np.ndarray

    def __len__(self) -> int:
        return self.steps.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"path {i} of {len(self)}")
        i %= len(self)
        s, n = int(self.starts[i]), int(self.steps[i])
        nodes = slice(s, s + n + 1)
        steps = slice(s - i, s - i + n)  # the i earlier paths each have one more node than steps
        return PathBundle(i, self.t[nodes], self.j[nodes], self.x[nodes],
                          self.dw[s + 1:s + n + 1], self.r[steps], self.a[steps],
                          float(self.tau[i]), float(self.payoff[i]), float(self.terminal[i]),
                          bool(self.floor[i]), bool(self.censored[i]))


def simulate_paths(params: ModelParams, solution: SecondBestSolution, x0: float,
                   cfg: SimConfig) -> PathTable:
    """Euler-Maruyama paths of the contract state from x0, as one PathTable.

    Each path runs until it enters the stop region (nearest-node flag), is
    absorbed at the floor J = 0 (terminal payment 0, flagged), or reaches
    the horizon (flagged censored; its payoff uses the obstacle value at the
    horizon state).
    """
    out = _run_paths(params, solution, x0, cfg, record=True)
    steps, j, x, dw, r, a = out.records
    out.records = None  # so each sorted j, x and dw is freed once rebound
    first = np.cumsum(steps) - steps  # each path's first step row
    j = np.insert(j, first, x0)
    x = np.insert(x, first, 0.0)
    dw = np.insert(dw, first, 0.0)
    starts = first + np.arange(cfg.n_paths)
    sizes = steps + 1
    t = np.arange(j.size, dtype=float)
    t -= np.repeat(starts, sizes)
    t *= cfg.dt  # bitwise each path's np.arange(n + 1) * dt
    stopped = np.zeros(j.size, dtype=bool)
    stopped[starts + steps] = ~out.censored  # stop region or floor
    path_id = np.repeat(np.arange(cfg.n_paths, dtype=np.min_scalar_type(cfg.n_paths)), sizes)
    return PathTable(path_id, t, j, x, dw, stopped, r, a, starts, steps, out.tau,
                     out.principal, out.terminal, out.floor, out.censored)


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
    out = _run_paths(params, solution, x0, cfg)
    return _mc_value(params, solution, cfg, out.principal, int(out.floor.sum()),
                     int(out.censored.sum()))


def summarize_paths(params: ModelParams, solution: SecondBestSolution,
                    cfg: SimConfig, table: PathTable) -> MCValue:
    """The MCValue of simulate_paths' table: what mc_principal_value returns."""
    return _mc_value(params, solution, cfg, table.payoff, int(table.floor.sum()),
                     int(table.censored.sum()))


def _agent_objectives(params, solution, x0, cfg, effort_map):
    return _run_paths(params, solution, x0, cfg, effort_map=effort_map, agent=True).agent


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


def _recovered_noise(params: ModelParams, bundle: PathBundle):
    """Step lengths and dW = (dX - phi(a) dt) / sigma, the Euler output step
    inverted; raises DegenerateEffort if any step has zero effort: there the
    output carries no trace of the noise."""
    if np.any(bundle.a_path <= 0.0):
        raise DegenerateEffort(f"path {bundle.path_id} has a zero-effort step")
    dt = np.diff(bundle.times)
    return dt, (np.diff(bundle.x_path) - params.phi(bundle.a_path) * dt) / params.sigma


def reconstruct_noise(params: ModelParams, bundle: PathBundle) -> float:
    """Max error rebuilding the noise increments from the output path.

    The recovered noise inverts the same Euler step, so the error is pure
    round-off. Raises DegenerateEffort on a zero-effort step.
    """
    _, dw = _recovered_noise(params, bundle)
    return float(np.max(np.abs(dw - bundle.w_increments), initial=0.0))


def reconstruct_state(params: ModelParams, bundle: PathBundle) -> float:
    """Max error rebuilding the state path from the output path.

    Re-runs the discrete state recursion with the noise recovered from X
    (the same inversion as reconstruct_noise), checking that output plus
    policies determine the state: the discrete form of the filtration
    coincidence at the optimum.
    """
    dt, dw = _recovered_noise(params, bundle)
    j = bundle.j_path[0]
    err = 0.0
    for k in range(dt.size):
        r, a = bundle.r_path[k], bundle.a_path[k]
        drift = params.lam * j - params.u(r) + params.h(a)
        j = j + drift * dt[k] + float(params.exposure(a)) * dw[k]
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
