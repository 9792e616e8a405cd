"""Forward simulation of the solved contract.

Simulates the agent's continuation value J under the stored feedback
policies (Euler-Maruyama), estimates the principal's value by Monte Carlo
as an independent check on the PDE solve, tests incentive compatibility
against deviating effort policies, and replays the principal's
information: from output, the contract and J_0 alone, reconstruction_report
rebuilds every path's noise and state, all paths of a table stepping
together.

A recorded path keeps only what the run alone knows: the state, output and
noise at each node, and per path its payoff and how it ended. The policies
on each step, the stopping time and the terminal payment follow from those
and the solution (interpolate_policy, the last t, u_inv of the settled state).

Paths run through a fixed pool of _CHUNK lanes: a lane steps one path at a
time, takes the next unstarted path when it ends, and leaves the pool once
none is left, so no arithmetic runs for finished paths. A lane is one
column of two tables (ids and counters; float state): a new path is one
column write, and finished lanes leave with one take per table. Each step
locates the new states on the grid once (_Lookup: one division by dx gives
both np.interp's interval for the policies and the nearest node for the
stop flag, bitwise what interpolate_policy and in_stop_region return). A run
records the paths with ids below a count: each step's state, output and
noise go into growable column buffers sized by the recorded lanes, which
simulate_paths permutes one column at a time into the table. In such a
run every path, recorded or not, also gives its step count.
Randomness is counter-based: block b of a path's noise is the first
_NOISE_BLOCK normals of Philox keyed by (seed << 64) | path_id at counter
b << 128, so results are bitwise identical regardless of the pool width,
which lane runs a path, or which other paths run alongside. The block size
is part of the stream's definition. Deviation arms reuse the same streams
(common random numbers). One generator serves the whole pool: each refill
seeks it to its block's key and counter (_seek), one state set, and draws
the block once.

Every run shards the paths by id across the CPUs in the process's affinity
mask (_run_sharded): this process steps the first contiguous range of ids
and one forked child each other range. Each shard returns its _Paths, the
one per-path result type of a run, and _run_sharded joins their per-path
columns in id order. The first range covers every recorded path, so the
step records never leave this process. Since a path's stream is keyed by
its id, the results are bitwise those of one process for any shard count.
An estimate (mc_principal_value, each arm of incentive_check) records no
path; simulate_paths records the first n_recorded, by default all of them,
which is one range in one process.
_cpu_count holds the one CPU rule and _run_forked the one fork/join path;
the CLI forks nothing of its own.

Under a deviated effort the contract still pays and stops according to the
book-kept state it infers from observed output, so the state follows the
contract's drift plus the exposure times the output surprise. The agent's
realized cost uses the deviated effort.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .hjbvi import SecondBestSolution
from .model import ModelParams

_CHUNK = 1024         # lanes in the pool
_NOISE_BLOCK = 64     # normals per block of a path's stream: a refill draws one block


class PolicyOutOfRange(ValueError):
    """State left [0, x_max]: the interpolated policies are undefined there."""


class InvalidStart(PolicyOutOfRange):
    """x0 is not a continuation state: outside (0, b_hat), or on a stopped node."""


@dataclass(frozen=True)
class SimConfig:
    """Euler step, horizon, paths and seed; the CLI's sim.* keys take its defaults and rules."""

    dt: float = 1e-3
    horizon: float = 200.0
    n_paths: int = 10_000
    seed: int = 42

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        # n_steps = round(horizon / dt), and round(0.5) is 0
        if not 0.5 < self.horizon / self.dt < math.inf:
            raise ValueError("horizon / dt must round to a finite number of Euler steps >= 1")
        for name in ("n_paths", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class PathBundle:
    """One simulated path, stored up to its stopping step.

    times has len(w_increments) + 1 entries; j_path and x_path align with
    times. The arrays are views of a PathTable's columns. times[-1] is the
    stopping time, censored at the horizon when the path is still alive
    there. j_path keeps the raw Euler states: a floored path ends with a
    small negative value, while its settlement uses the floor convention
    (pay nothing at or below 0). The policies on each step are the
    solution's at j_path[:-1] (interpolate_policy).
    """

    path_id: int
    times: np.ndarray
    j_path: np.ndarray
    x_path: np.ndarray
    w_increments: np.ndarray
    discounted_payoff: float
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
    """Piecewise-linear (r*, a*) at x; raises PolicyOutOfRange off the grid
    or at a NaN state."""
    x = np.asarray(x, dtype=float)
    g = solution.grid
    if not np.all((x >= 0.0) & (x <= g.x_max)):  # NaN fails both comparisons
        raise PolicyOutOfRange("state outside [0, x_max]")
    return np.interp(x, g.x, solution.r_star), np.interp(x, g.x, solution.a_star)


def in_stop_region(solution: SecondBestSolution, x):
    """Stop-region membership by the nearest grid node's flag: a state
    below 0 takes node 0's, one above x_max (inf too) the end node's, and a
    NaN state raises PolicyOutOfRange."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise PolicyOutOfRange("state is NaN")
    g = solution.grid
    return solution.stop[np.rint(np.clip(x / g.dx, 0, g.n - 1)).astype(np.int64)]


def check_start(solution: SecondBestSolution, x0: float) -> None:
    """Raise InvalidStart unless x0 is a continuation state: strictly inside
    (0, b_hat) and not on a stopped node (in_stop_region), where a path
    would have zero length."""
    b_hat = solution.b_hat
    if not 0.0 < x0 < b_hat:
        raise InvalidStart(f"x0 = {x0:.6g} must lie strictly inside (0, b_hat = {b_hat:.6g})")
    if in_stop_region(solution, x0):
        raise InvalidStart(f"x0 = {x0:.6g} rounds to a stopped grid node "
                           f"(within dx/2 of b_hat = {b_hat:.6g})")


def _philox_start(seed: int) -> dict:
    """Philox state for _seek: 128-bit key (path id low word, seed high
    word), 256-bit counter (block in word 2), empty buffer. One per run:
    _seek writes its path id and block. The words are Python ints in lists,
    which the state setter reads faster than numpy arrays."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, int(seed)]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _seek(gen: np.random.Generator, start: dict, path_id: int, block: int) -> None:
    """Set gen in place to Philox(key=(seed << 64) | path_id,
    counter=block << 128)'s start state, where the path's block begins. A
    block's normals advance counter word 0 only, far short of a carry into
    word 2, so blocks never overlap. The setter copies the words, so start
    can be reused for the next refill."""
    state = start["state"]
    state["key"][0] = path_id
    state["counter"][2] = block
    gen.bit_generator.state = start


class _Lookup:
    """The policies and the stop flag at states j from one division j / dx.

    locate gives np.interp's interval index k (x[k] <= j < x[k+1]) and the
    nearest node's stop flag; policy gives np.interp's slope*(j - x[k]) +
    f[k] with np.interp's own slopes. Both agree bitwise with
    interpolate_policy and in_stop_region, which stay the reference.
    """

    __slots__ = ("dx", "stop", "bounds", "coef")

    def __init__(self, solution: SecondBestSolution):
        g = solution.grid
        self.dx, self.stop = g.dx, solution.stop
        # x[k] and x[k+1]; k = n - 1 (a state at x_max) gets an upper bound of
        # inf and slopes of 0, so it returns the last node's values as np.interp does
        self.bounds = np.stack([g.x, np.append(g.x[1:], np.inf)])
        f = np.stack([solution.r_star, solution.a_star])
        slopes = np.zeros_like(f)
        slopes[:, :-1] = np.diff(f) / np.diff(g.x)
        self.coef = np.concatenate([g.x[None], slopes, f])

    def locate(self, j):
        """(k, stop flag) at states j <= x_max. The nearest node is floored at
        0, as in_stop_region clips it; k is meaningful only for j > 0."""
        t = j / self.dx
        np.maximum(t, 0.0, out=t)
        stop = self.stop[np.rint(t).astype(np.intp)]
        k = t.astype(np.intp)  # floor(t), one interval off at most
        lo, hi = self.bounds.take(k, axis=1)
        k -= lo > j
        k += hi <= j
        return k, stop

    def policy(self, j, k):
        """(r*, a*) at states j in intervals k."""
        c = self.coef.take(k, axis=1)
        r, a = c[1:3] * (j - c[0]) + c[3:]
        return r, a


class _Paths:
    """Per-path results of one run, indexed by path id; agent and steps are
    None unless the run keeps them, records None unless it records a path."""

    __slots__ = ("principal", "agent", "floor", "censored", "steps", "records")

    def __init__(self, n, agent, steps=False):
        self.principal = np.zeros(n)
        self.agent = np.zeros(n) if agent else None
        self.floor = np.zeros(n, dtype=bool)
        self.censored = np.zeros(n, dtype=bool)
        self.steps = np.zeros(n, dtype=np.int64) if steps else None
        self.records = None


def _run_paths(params: ModelParams, solution: SecondBestSolution, x0: float,
               cfg: SimConfig, effort_map=None, agent=False, record=0,
               first=0, stop=None) -> _Paths:
    """Step the paths with ids first..stop - 1 (default: all cfg.n_paths)
    through a pool of _CHUNK lanes, from an x0 that passed check_start.

    The pool is two tables with one column per lane, whose rows each step
    binds to their names: lane (pid, noise row, step) and state (j, disc_d,
    pay_p, disc_l, pay_a, x). A lane's step count picks its noise column
    and its censoring step; at each multiple of _NOISE_BLOCK its noise row
    is refilled with that block of its path's stream: _seek, the one place
    the run's one generator is positioned, addresses it by path id and
    block number. Each step finds the grid interval k and the stop node of
    the new states with one _Lookup.locate. A lane whose path ends takes
    the next unstarted path id, step 0, k0 and a new path's state column;
    once the queue is empty, finished lanes leave the pool, one take per
    table (the noise buffer stays). The principal's payoff is always kept;
    agent adds the agent's payoff, and a record above 0 adds each path's
    step count and the step records of the paths with ids below record:
    pid, j, x, dw in step order, written into four column buffers of one
    noise block per recorded lane that double when full and are trimmed to
    size at the end. Lanes take ids in order, so the recorded lanes are
    those of the first paths, and once none of them is left the run records
    no more. The per-path arrays hold path first at index 0.
    An effort from effort_map that is negative or not finite raises
    ValueError.
    """
    stop = cfg.n_paths if stop is None else stop
    lookup = _Lookup(solution)
    (k0,), _ = lookup.locate(np.array([float(x0)]))
    x_max = solution.grid.x_max
    dt, last = cfg.dt, cfg.n_steps - 1
    sqrt_dt = np.sqrt(dt)
    decay_d = np.exp(-params.delta * dt)
    decay_l = np.exp(-params.lam * dt)
    out = _Paths(stop - first, agent, steps=record > 0)

    width = min(_CHUNK, stop - first)
    next_pid = first + width
    gen = np.random.Generator(np.random.Philox(0))
    start = _philox_start(cfg.seed)
    noise = np.empty((width, _NOISE_BLOCK))
    lane = np.stack([np.arange(first, next_pid), np.arange(width), np.zeros(width, np.int64)])
    # a new path's state; disc_d, disc_l are e^{-delta t}, e^{-lam t} at a step's start
    fresh = np.array([[float(x0)], [1.0], [0.0], [1.0], [0.0], [0.0]])
    state = fresh.repeat(width, axis=1)
    k = np.full(width, k0)
    lanes = np.flatnonzero(lane[0] < record)  # lanes of recorded paths, in lane order
    recording = lanes.size > 0
    if recording:
        # recorded path ids take the narrowest unsigned type: the records set
        # the peak memory of a recording run
        cap, used = lanes.size * _NOISE_BLOCK, 0
        rec = [np.empty(cap, np.min_scalar_type(record))] + [np.empty(cap) for _ in range(3)]

    while lane.size:
        # indexed, not unpacked: unpacking a table iterates it, twice as slow
        pid, row, step = lane[0], lane[1], lane[2]
        j, disc_d, pay_p = state[0], state[1], state[2]
        disc_l, pay_a, x = state[3], state[4], state[5]
        col = step % _NOISE_BLOCK
        due = np.nonzero(col == 0)[0]
        if due.size:  # most steps refill no lane while the pool drains
            for i, p, b in zip(row[due].tolist(), pid[due].tolist(),
                               (step[due] // _NOISE_BLOCK).tolist()):
                _seek(gen, start, p, b)
                gen.standard_normal(out=noise[i])
        dw = noise[row, col] * sqrt_dt

        r, a = lookup.policy(j, k)
        u_r = params.u(r)
        h_a = params.h(a)
        phi_a = params.phi(a)
        if effort_map is None:
            a_applied, phi_applied, h_applied = a, phi_a, h_a
        else:  # read j before it moves
            a_applied = np.asarray(effort_map(j), dtype=float)
            if not (a_applied.min() >= 0.0 and a_applied.max() < np.inf):  # NaN fails too
                bad = a_applied[~((a_applied >= 0.0) & (a_applied < np.inf))]
                raise ValueError(f"effort map gave a = {float(bad.flat[0])}: "
                                 f"efforts must be finite and >= 0")
            phi_applied, h_applied = params.phi(a_applied), params.h(a_applied)
        j += (params.lam * j - u_r + h_a) * dt
        if effort_map is not None:
            j += params.cost_impact_ratio(a) * (phi_applied - phi_a) * dt
        j += params.exposure(a) * dw

        pay_p += disc_d * (phi_applied - r) * dt
        disc_d *= decay_d
        if agent:
            pay_a += disc_l * (u_r - h_applied) * dt
            disc_l *= decay_l
        if recording:
            x += phi_applied * dt
            x += params.sigma * dw
            m = lanes.size
            if used + m > cap:  # one doubling suffices: m <= cap
                cap *= 2
                for buf in rec:
                    buf.resize(cap, refcheck=False)  # no view of buf exists
            for buf, v in zip(rec, (pid, j, x, dw)):
                buf[used:used + m] = v if m == pid.size else v[lanes]
            used += m

        if j.max() > x_max:
            raise PolicyOutOfRange("state exceeded x_max during simulation")
        k, stopped = lookup.locate(j)
        floored = j <= 0.0
        done = floored | stopped  # the floor wins; a floored lane's stop flag is moot
        step += 1
        ended = np.nonzero(done | (step > last))[0]  # step > last: censored
        if not ended.size:
            continue
        # the floor settles at zero payment; the stored state stays the
        # raw Euler value so path statistics see the true increments
        ids = pid[ended] - first
        fl = floored[ended]
        j_settle = np.where(fl, 0.0, j[ended])
        xi = params.u_inv(j_settle)
        out.principal[ids] = pay_p[ended] - disc_d[ended] * xi
        if agent:
            out.agent[ids] = pay_a[ended] + disc_l[ended] * j_settle
        out.floor[ids] = fl
        out.censored[ids] = ~done[ended]
        if record:
            out.steps[ids] = step[ended]

        new = ended[:stop - next_pid]
        if new.size:
            pid[new] = np.arange(next_pid, next_pid + new.size)
            next_pid += new.size
            step[new] = 0
            k[new] = k0
            state[:, new] = fresh
        if new.size < ended.size:
            keep = np.ones(pid.size, dtype=bool)
            keep[ended[new.size:]] = False
            keep = np.flatnonzero(keep)  # a boolean index on a table is 4x slower than take
            lane, state, k = lane.take(keep, axis=1), state.take(keep, axis=1), k.take(keep)
        if recording:
            lanes = np.flatnonzero(lane[0] < record)
            recording = lanes.size > 0  # ids go in order: no recorded path is left to start

    if record > first:  # the run recorded a path
        for buf in rec:
            buf.resize(used, refcheck=False)
        out.records = rec
    return out


def _cpu_count() -> int:
    """CPUs in the process's affinity mask; 1 without os.fork or
    os.sched_getaffinity, where nothing is forked."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _run_forked(run, k: int) -> list:
    """[run(0), ..., run(k - 1)]: this process runs run(0) after forking one
    child per other i, which pickles what run(i) returns or raises into a
    pipe (nothing if that fails) and exits. The first exception in index
    order is raised here, and no child outlives the call: those not yet
    reaped are killed and reaped.

    Fork, not spawn: a spawned worker would import numpy and receive its
    inputs first, which takes longer than a run's work. A child inherits
    only the calling thread, so run() must need no lock another thread may
    hold; element-wise numpy code takes none."""
    children = []  # (pid, pipe) of each child not yet reaped, in index order
    try:
        for i in range(1, k):
            r, w = os.pipe()
            try:
                child = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if child == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        data = pickle.dumps(run(i), protocol=pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        data = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as fh:
                        fh.write(data)
                    code = 0
                finally:
                    os._exit(code)  # no cleanup of the parent's state runs in the child
            os.close(w)
            children.append((child, os.fdopen(r, "rb")))
        results = [run(0)]
        while children:
            child, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(child, 0)
            children.pop(0)
            # the bytes come from this process's own fork
            result = pickle.loads(data) if data else RuntimeError(
                f"run {len(results)} of {k} ended without a result (wait status {status})")
            if isinstance(result, Exception):
                raise result
            results.append(result)
    finally:
        if children:  # this call is raising
            import signal  # only here: numpy does not load it, and it costs ~40 kB

            for child, pipe in children:
                pipe.close()
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
    return results


def _run_sharded(params: ModelParams, solution: SecondBestSolution, x0: float,
                 cfg: SimConfig, effort_map=None, agent=False, record=0) -> _Paths:
    """_run_paths' _Paths for all cfg.n_paths paths, with the step records
    of the first record paths, from k = min(_cpu_count(), n_paths // _CHUNK)
    contiguous id ranges (at least one) run by _run_forked: this process
    runs the first, a forked child each other one. The first range is
    widened to at least record ids, so no child records a path, and a range
    that widening empties is dropped. Each shard returns its _Paths; their
    per-path slots are joined in id order."""
    check_start(solution, x0)
    n = cfg.n_paths
    k = max(1, min(_cpu_count(), n // _CHUNK))
    bounds = sorted({0, n, *(max(n * i // k, record) for i in range(1, k))})

    def run(i):
        return _run_paths(params, solution, x0, cfg, effort_map, agent, record=record,
                          first=bounds[i], stop=bounds[i + 1])

    parts = _run_forked(run, len(bounds) - 1)
    out = parts[0]
    for name in _Paths.__slots__:
        if name != "records" and getattr(out, name) is not None:
            setattr(out, name, np.concatenate([getattr(part, name) for part in parts]))
    return out


@dataclass(frozen=True, eq=False)
class PathTable:
    """Simulated paths as flat columns in paths.csv's layout.

    Per node, the recorded paths (ids 0 to len(table) - 1) in id order:
    path_id, t, j, x, dw (0 on a path's first row), stopped (True on the
    last row of a path that ended before the horizon); starts holds each
    recorded path's first node row. Per path, every path of the run:
    steps, payoff, floor, censored. Iteration yields each recorded path's
    PathBundle of views of the columns, in id order.
    """

    path_id: np.ndarray
    t: np.ndarray
    j: np.ndarray
    x: np.ndarray
    dw: np.ndarray
    stopped: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    payoff: np.ndarray
    floor: np.ndarray
    censored: np.ndarray

    def __len__(self) -> int:
        return self.starts.size

    def __iter__(self):
        # starts covers the recorded paths only, so zip stops after the last
        for i, (s, n) in enumerate(zip(self.starts.tolist(), self.steps.tolist())):
            nodes = slice(s, s + n + 1)
            yield PathBundle(i, self.t[nodes], self.j[nodes], self.x[nodes],
                             self.dw[s + 1:s + n + 1], float(self.payoff[i]),
                             bool(self.floor[i]), bool(self.censored[i]))


def simulate_paths(params: ModelParams, solution: SecondBestSolution, x0: float,
                   cfg: SimConfig, n_recorded=None) -> PathTable:
    """Euler-Maruyama paths of the contract state from x0, as one PathTable.

    Each path runs until it enters the stop region (nearest-node flag), is
    absorbed at the floor J = 0 (terminal payment 0, flagged), or reaches
    the horizon (flagged censored; its payoff uses the obstacle value at the
    horizon state).

    Every one of cfg.n_paths paths gives the table's per-path steps, payoff,
    floor and censored; only the first n_recorded (default: all) give node
    rows, and these are bitwise the first rows of the table of all paths. A
    run recording all paths is one process; one recording fewer shards the
    rest as mc_principal_value does. n_recorded must be an integer in
    1..n_paths, or ValueError is raised.
    """
    n = cfg.n_paths if n_recorded is None else n_recorded
    if not (isinstance(n, numbers.Integral) and 1 <= n <= cfg.n_paths):
        raise ValueError(f"n_recorded must be an integer in 1..{cfg.n_paths}, not {n!r}")
    out = _run_sharded(params, solution, x0, cfg, record=int(n))
    pids, j, x, dw = out.records
    out.records = None  # so each step-order column is freed once its column is built
    order = np.argsort(pids, kind="stable")  # path by path, each in step order
    del pids
    steps = out.steps[:n]
    first = np.cumsum(steps) - steps  # each path's first step row
    starts = first + np.arange(n)
    src = np.insert(order, first, 0)  # node row -> step record; starts are set below
    del order
    j = j[src]
    x = x[src]
    dw = dw[src]
    del src
    j[starts] = x0
    x[starts] = 0.0
    dw[starts] = 0.0
    sizes = steps + 1
    t = np.arange(j.size, dtype=float)
    t -= np.repeat(starts, sizes)
    t *= cfg.dt  # bitwise each path's np.arange(n + 1) * dt
    stopped = np.zeros(j.size, dtype=bool)
    stopped[starts + steps] = ~out.censored[:n]  # stop region or floor
    path_id = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), sizes)
    return PathTable(path_id, t, j, x, dw, stopped, starts, out.steps, out.principal,
                     out.floor, out.censored)


def _std_error(values) -> float:
    """Standard error of the sample mean; 0 for a single sample."""
    n = len(values)
    return float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _mc_value(params, solution, cfg, payoffs, floor, censored) -> MCValue:
    bias = float(np.exp(-params.delta * cfg.horizon)
                 * (solution.k_growth + params.u_inv(solution.grid.x_max)))
    return MCValue(float(np.mean(payoffs)), _std_error(payoffs), len(payoffs),
                   int(floor.sum()), int(censored.sum()), bias)


def mc_principal_value(params: ModelParams, solution: SecondBestSolution,
                       x0: float, cfg: SimConfig) -> MCValue:
    """Sample mean and standard error of the discounted principal payoff."""
    out = _run_sharded(params, solution, x0, cfg)
    return _mc_value(params, solution, cfg, out.principal, out.floor, out.censored)


def summarize_paths(params: ModelParams, solution: SecondBestSolution,
                    cfg: SimConfig, table: PathTable) -> MCValue:
    """The MCValue of simulate_paths' table: what mc_principal_value returns."""
    return _mc_value(params, solution, cfg, table.payoff, table.floor, table.censored)


def incentive_check(params: ModelParams, solution: SecondBestSolution, x0: float,
                    cfg: SimConfig, deviations) -> IncentiveReport:
    """Monte Carlo test that no tested effort deviation beats the contract.

    Each deviation is a map x -> a >= 0 applied to the book-kept state; an
    effort it gives that is negative or not finite raises ValueError, from a
    forked shard as from this process. All arms share the per-path noise
    streams, so the baseline-minus-deviation margin is a paired estimate
    with its own (much smaller) standard error. A deviation is flagged when
    its margin falls below -2 margin_se.
    """
    base = _run_sharded(params, solution, x0, cfg, agent=True).agent
    rows = []
    for dev in deviations:
        vals = _run_sharded(params, solution, x0, cfg, dev, agent=True).agent
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


def _replay(params: ModelParams, solution: SecondBestSolution, table: PathTable):
    """Per path: the worst noise and state errors, and whether a step had zero
    effort, the paths of the table stepping together from their J_0. Each
    step reads the policies at the rebuilt state (interpolate_policy),
    inverts the Euler output step for dW = (dX - phi(a) dt) / sigma and
    takes the Euler state step; dw and j are read only to be compared. A
    path stops at its first zero-effort step."""
    noise, state = np.zeros(len(table)), np.zeros(len(table))
    excluded = np.zeros(len(table), dtype=bool)
    j = table.j[table.starts]
    steps = table.steps[:len(table)]
    live = np.arange(len(table))
    for k in range(int(steps.max(initial=0))):
        live = live[steps[live] > k]
        r, a = interpolate_policy(solution, j[live])
        run = a > 0.0
        excluded[live[~run]] = True
        live, r, a = live[run], r[run], a[run]
        row = table.starts[live] + k  # the step's first node
        dt = table.t[row + 1] - table.t[row]
        dw = (table.x[row + 1] - table.x[row] - params.phi(a) * dt) / params.sigma
        jk = j[live]
        jk = jk + (params.lam * jk - params.u(r) + params.h(a)) * dt + params.exposure(a) * dw
        j[live] = jk
        noise[live] = np.maximum(noise[live], np.abs(dw - table.dw[row + 1]))
        state[live] = np.maximum(state[live], np.abs(jk - table.j[row + 1]))
    return noise, state, excluded


def reconstruction_report(params: ModelParams, solution: SecondBestSolution,
                          table: PathTable) -> tuple[float, float, int]:
    """(worst noise error, worst state error, paths excluded) of the
    principal's replay (_replay): only output, the contract and J_0 enter,
    so round-off errors are the discrete form of the filtration coincidence
    at the optimum. A path with a zero-effort step is excluded, as there the
    output carries no trace of the noise."""
    noise, state, excluded = _replay(params, solution, table)
    return (float(np.max(noise[~excluded], initial=0.0)),
            float(np.max(state[~excluded], initial=0.0)), int(excluded.sum()))
