"""Independent oracles used by the test suite.

Everything here is deliberately primitive: plain bisection, golden-section
and brute-force grid search, written without reference to the package
internals, so that closed-form results in the package can be checked against
a second, dumber route. The exceptions are former production routes kept as
bitwise oracles for their faster replacements: lockstep_paths (the Monte
Carlo stepper), split_bundles (the per-path bundles of simulate_paths),
replay_bundle (the principal's replay of one path, one step at a time),
discretize (the variational-inequality defect,
one node at a time), hamiltonian_max (the best response at one point),
unbatched_improve (the Howard improvement sweep), whole_system_evaluate (the
policy evaluation of one problem in one elimination); the Howard oracles
assemble the central-difference rows of hjbvi. percent_write_csv writes the
CSV writer's table value by value, without its per-block format. feynman_kac
is a second linear solver for the policy evaluation, on the same central
rows, and agent_value applies it to the agent's side of the contract.
agent_payoff is the agent's objective, the one that
ModelParams.effort_response maximizes. count_forks, set_cpus and
assert_no_child_left serve the tests of the forked shards.
"""

import math
import os

import numpy as np
import pytest


def bisect_root(f, lo, hi, tol=1e-13, max_iter=200):
    """Root of f on [lo, hi] by plain bisection; f(lo), f(hi) must straddle 0."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0.0, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def invert_increasing(f, y, lo=0.0, hi=1.0, tol=1e-13):
    """Inverse of a strictly increasing scalar map by bracket growth + bisection."""
    while f(hi) < y:
        hi *= 2.0
        assert hi < 1e9, "bracket expansion failed"
    while f(lo) > y:
        lo = lo * 2.0 if lo < 0 else (lo - 1.0 if lo == 0.0 else lo / 2.0)
        assert lo > -1e9, "bracket expansion failed"
    return bisect_root(lambda t: f(t) - y, lo, hi, tol=tol)


def golden_max(f, lo, hi, tol=1e-10, max_iter=300):
    """Golden-section maximization of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def grid_argmax(f, lo, hi, n):
    """Brute-force argmax of f over a uniform grid, as a maximization oracle."""
    xs = np.linspace(lo, hi, n)
    vals = f(xs)
    k = int(np.argmax(vals))
    return xs[k], vals[k]


def newton_invert(f, df, y, x0, tol=1e-14, max_iter=100):
    """Solve f(x) = y by Newton iteration, as an inversion oracle."""
    x = x0
    for _ in range(max_iter):
        step = (f(x) - y) / df(x)
        x -= step
        if abs(step) <= tol * max(1.0, abs(x)):
            return x
    return x


def agent_payoff(params, a, z):
    """The agent's flow payoff -h(a) + z phi(a) / sigma under exposure z."""
    return -params.h(a) + np.asarray(z, dtype=float) * params.phi(a) / params.sigma


def lockstep_paths(params, solution, x0, cfg, effort_map=None, width=256, block=512):
    """Per-path results of the lockstep Euler-Maruyama stepper, as an oracle.

    Paths run in chunks of `width` that step together until the chunk's
    slowest path ends; finished lanes keep computing under np.where but never
    feed back. Each path draws `block` normals at a time from Philox keyed by
    (seed << 64) | path_id. Returns a dict of per-path arrays (principal,
    agent, tau, terminal, floor, censored) and, under "paths", one tuple
    (j, x, dw, r, a) of step arrays per path.
    """
    g = solution.grid
    n_steps, dt = cfg.n_steps, cfg.dt
    sqrt_dt = np.sqrt(dt)
    decay_d = np.exp(-params.delta * dt)
    decay_l = np.exp(-params.lam * dt)
    res = {key: [] for key in ("principal", "agent", "tau", "terminal", "floor",
                               "censored", "paths")}

    def stop_flag(x):
        return solution.stop[np.clip(np.rint(x / g.dx).astype(np.int64), 0, g.n - 1)]

    for first in range(0, cfg.n_paths, width):
        ids = range(first, min(first + width, cfg.n_paths))
        c = len(ids)
        gens = [np.random.Generator(np.random.Philox(key=(int(cfg.seed) << 64) | pid))
                for pid in ids]
        noise = np.empty((c, block))
        j = np.full(c, float(x0))
        x = np.zeros(c)
        alive = np.ones(c, dtype=bool)
        disc_d = np.ones(c)
        disc_l = np.ones(c)
        principal, agent, tau, terminal = (np.zeros(c) for _ in range(4))
        floor = np.zeros(c, dtype=bool)
        cens = np.zeros(c, dtype=bool)
        death = np.zeros(c, dtype=np.int64)
        rec_j, rec_x, rec_dw, rec_r, rec_a = [j.copy()], [x.copy()], [], [], []
        for k in range(n_steps):
            if not alive.any():
                break
            if k % block == 0:
                for i, gen in enumerate(gens):
                    noise[i] = gen.standard_normal(block)
            dw = noise[:, k % block] * sqrt_dt
            r = np.interp(j, g.x, solution.r_star)
            a = np.interp(j, g.x, solution.a_star)
            z = params.exposure(a)
            u_r = params.u(r)
            if effort_map is None:
                a_applied = a
                extra = 0.0
            else:
                a_applied = np.asarray(effort_map(j), dtype=float)
                extra = params.cost_impact_ratio(a) * (params.phi(a_applied) - params.phi(a)) * dt
            principal += np.where(alive, disc_d * (params.phi(a_applied) - r) * dt, 0.0)
            agent += np.where(alive, disc_l * (u_r - params.h(a_applied)) * dt, 0.0)
            drift = params.lam * j - u_r + params.h(a)
            j_new = j + drift * dt + extra + z * dw
            x_new = x + params.phi(a_applied) * dt + params.sigma * dw
            disc_d_new = disc_d * decay_d
            disc_l_new = disc_l * decay_l
            floored = alive & (j_new <= 0.0)
            stopped = alive & ~floored & stop_flag(np.clip(j_new, 0.0, g.x_max))
            censored = alive & ~floored & ~stopped if k == n_steps - 1 else np.zeros(c, bool)
            ending = floored | stopped | censored
            if np.any(ending):
                j_settle = np.where(floored, 0.0, j_new)
                xi = params.u_inv(j_settle)
                principal = np.where(ending, principal - disc_d_new * xi, principal)
                agent = np.where(ending, agent + disc_l_new * j_settle, agent)
                terminal = np.where(ending, xi, terminal)
                tau = np.where(ending, (k + 1) * dt, tau)
                floor |= floored
                cens |= censored
                death = np.where(ending, k + 1, death)
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
        mj, mx, mdw, mr, ma = (np.vstack(v) for v in (rec_j, rec_x, rec_dw, rec_r, rec_a))
        for key, v in (("principal", principal), ("agent", agent), ("tau", tau),
                       ("terminal", terminal), ("floor", floor), ("censored", cens)):
            res[key].append(v)
        for lane, n in enumerate(death):
            res["paths"].append((mj[:n + 1, lane], mx[:n + 1, lane], mdw[:n, lane],
                                 mr[:n, lane], ma[:n, lane]))
    paths = res.pop("paths")
    out = {key: np.concatenate(v) for key, v in res.items()}
    out["paths"] = paths
    return out


def split_bundles(params, solution, x0, cfg):
    """simulate_paths' bundles by the per-path route, as a bitwise oracle.

    Sorts _run_paths' step records by path id (stable, so each path keeps
    its step order) and splits them into one PathBundle per path: x0 and
    0.0 inserted before each path's first step of j and x, then np.split at
    the path boundaries, and times from np.arange per path.
    """
    from contract_solve.simulate import PathBundle, _run_paths

    out = _run_paths(params, solution, x0, cfg, record=cfg.n_paths)
    pids, *records = out.records
    order = np.argsort(pids, kind="stable")
    j, x, dw = (v[order] for v in records)
    steps = np.bincount(pids, minlength=cfg.n_paths)
    starts = np.cumsum(steps) - steps
    cuts_1 = starts[1:] + np.arange(1, cfg.n_paths)
    columns = zip(steps, np.split(np.insert(j, starts, x0), cuts_1),
                  np.split(np.insert(x, starts, 0.0), cuts_1), np.split(dw, starts[1:]))
    return [PathBundle(pid, np.arange(n + 1) * cfg.dt, *arrays, float(out.principal[pid]),
                       bool(out.floor[pid]), bool(out.censored[pid]))
            for pid, (n, *arrays) in enumerate(columns)]


def replay_bundle(params, solution, bundle):
    """simulate.reconstruction_report's replay of one path, one scalar step
    at a time, as a bitwise oracle.

    From j_path[0], each step reads the policies at the state rebuilt so far
    (interpolate_policy), inverts the Euler output step for the noise and
    takes the Euler state step. Returns (worst noise error, worst state
    error) against the bundle's stored noise and states, or None at a step
    with zero effort.
    """
    from contract_solve import interpolate_policy

    dt = np.diff(bundle.times)
    dx = np.diff(bundle.x_path)
    j = bundle.j_path[0]
    noise = state = 0.0
    for k in range(dt.size):
        r, a = interpolate_policy(solution, j)
        if a <= 0.0:
            return None
        dw = (dx[k] - params.phi(a) * dt[k]) / params.sigma
        j = j + (params.lam * j - params.u(r) + params.h(a)) * dt[k] + params.exposure(a) * dw
        noise = max(noise, float(abs(dw - bundle.w_increments[k])))
        state = max(state, float(abs(j - bundle.j_path[k + 1])))
    return noise, state


def hamiltonian_max(params, x, dw, d2w):
    """sup over (r, a) >= 0 of the Hamiltonian at one slope/curvature, as an
    oracle: hjbvi._best_response restated for one point.

    Returns (value, r, a). The rent part is closed form; the effort part is
    maximized numerically (see hjbvi._best_effort).
    """
    from contract_solve.hjbvi import _best_response

    if x < 0.0:
        raise ValueError("x must be >= 0")
    h_val, r, a, *_ = _best_response(
        params,
        np.asarray([x], dtype=float),
        np.asarray([dw], dtype=float),
        np.asarray([d2w], dtype=float),
    )
    return float(h_val[0]), float(r[0]), float(a[0])


def discretize(params, grid, w, i, r, a):
    """Central-scheme value of L^{a,r} w(x_i) + phi(a) - r - delta w_i at one
    node, as a bitwise oracle for hjbvi._max_defect (same arithmetic, same
    operation order).

    Second and first differences both centred at the node:
    D/dx^2 (w_{i+1} - 2 w_i + w_{i-1}) + b/(2 dx) (w_{i+1} - w_{i-1}).
    """
    from contract_solve.hjbvi import _diffusion

    if not (1 <= i <= grid.n - 2):
        raise ValueError("i must be an interior node")
    dx = grid.dx
    d = float(_diffusion(params, a)) / dx**2
    c = (params.lam * grid.x[i] - float(params.u(r)) + float(params.h(a))) / (2.0 * dx)
    payoff = float(params.phi(a)) - float(r)
    return (d * (w[i + 1] - 2.0 * w[i] + w[i - 1]) + c * (w[i + 1] - w[i - 1]) + payoff
            - params.delta * w[i])


def unbatched_improve(params, grid, w, psi):
    """hjbvi._improve for one problem with one _best_response call for the
    interior nodes and another for the two ends, as an oracle: the single
    stacked call of hjbvi._improve must give the same bits.

    Interior nodes are maximized at the central slope and the second
    difference, the ends at their one-sided slope and their neighbour's
    second difference; a node stops when psi - w exceeds H - delta w.
    """
    from contract_solve.hjbvi import _best_response

    dx = grid.dx
    wi = w[1:-1]
    dw = (w[2:] - w[:-2]) / (2.0 * dx)
    d2w = (w[2:] - 2.0 * wi + w[:-2]) / dx**2
    h_val, r_int, a_int, n_int = _best_response(params, grid.x[1:-1], dw, d2w)
    _, r_end, a_end, n_end = _best_response(
        params,
        grid.x[[0, -1]],
        np.array([(w[1] - w[0]) / dx, (w[-1] - w[-2]) / dx]),
        np.array([(w[2] - 2 * w[1] + w[0]) / dx**2, (w[-1] - 2 * w[-2] + w[-3]) / dx**2]),
    )
    r = np.concatenate((r_end[:1], r_int, r_end[1:]))
    a = np.concatenate((a_end[:1], a_int, a_end[1:]))
    stop = np.concatenate(([False], (psi[1:-1] - wi) > (h_val - params.delta * wi), [True]))
    return r, a, stop, n_int + n_end


def whole_system_evaluate(params, grid, r, a, stop, psi, coarse):
    """hjbvi._evaluate for one problem as one elimination over every interior
    row, stopped rows as identity rows, as an oracle: hjbvi._evaluate
    eliminates each run of continuation rows on its own and must give the
    same bits. The rows are central, or on a coarse level take the diffusion
    weight max(D/dx^2, |b|/(2 dx))."""
    from contract_solve.hjbvi import _diffusion

    dx = grid.dx
    xi = grid.x[1:-1]
    ri, ai, stop_i = r[1:-1], a[1:-1], stop[1:-1]
    d = _diffusion(params, ai) / dx**2
    c = (params.lam * xi - params.u(ri) + params.h(ai)) / (2.0 * dx)
    if coarse:
        d = np.maximum(d, np.abs(c))
    lower = np.where(stop_i, 0.0, c - d)
    diag = np.where(stop_i, 1.0, params.delta + 2.0 * d)
    upper = np.where(stop_i, 0.0, -(d + c))
    rhs = np.where(stop_i, psi[1:-1], params.phi(ai) - ri)
    rhs[-1] -= upper[-1] * psi[-1]

    m = xi.size
    lo, di, up, rh = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    cp = [0.0] * m
    dp = [0.0] * m
    cp[0] = up[0] / di[0]
    dp[0] = rh[0] / di[0]
    for k in range(1, m):
        denom = di[k] - lo[k] * cp[k - 1]
        cp[k] = up[k] / denom
        dp[k] = (rh[k] - lo[k] * dp[k - 1]) / denom
    sol = [0.0] * m
    sol[m - 1] = dp[m - 1]
    for k in range(m - 2, -1, -1):
        sol[k] = dp[k] - cp[k] * sol[k + 1]
    return np.concatenate(([0.0], sol, [psi[-1]]))


_PERCENT_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}  # other dtypes: "%s"


def percent_write_csv(path, header, columns):
    """The CSV writer by Python %-formatting, value by value, as a bitwise oracle.

    Same contract as contract_solve.write_csv: one header row, then the rows
    of one table of equal-length columns; the column dtype picks "%d" for
    integers and bools, "%.17g" for floats and "%s" otherwise. Each value is
    formatted on its own and a row is their ",".join, so no block-wide
    format string is shared with the production writer.
    """
    columns = [np.asarray(col) for col in columns]
    formats = [_PERCENT_FORMATS.get(col.dtype.kind, "%s") for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(col.tolist() for col in columns)):
            fh.write(",".join(fmt % (v,) for fmt, v in zip(formats, row)) + "\n")


def feynman_kac(grid, discount, diffusion, drift, payoff, stop, stopped):
    """Node values v of a stopped Feynman-Kac problem, by a plain Thomas loop.

    At each interior node that does not stop, the monotone-scheme row

        discount v_i - diffusion_i v''_i - drift_i v'_i = payoff_i

    with central second and first differences, the scheme of hjbvi's
    policy evaluation. v_0 = 0, and v_i = stopped_i at stopped nodes and at
    x_max. diffusion, drift, payoff, stop and stopped are arrays over the
    whole grid; their end entries other than stopped[-1] are not read. A row
    whose cell Peclet number |drift| dx/(2 diffusion) exceeds 1 would have a
    positive off-diagonal and raises ValueError. Every row of the full
    n x n system, identity rows included, is eliminated top to bottom
    without pivoting.

    Round-off: the rows are diagonally dominant, so no elimination step
    grows the values it carries; each of the n rows adds a few ulps of
    max|v|, and fk_roundoff(grid, v) = 16 n ulps of max|v| bounds the
    difference from another solve of the same rows.
    """
    n, dx = grid.n, grid.dx
    lower, diag, upper, rhs = [0.0] * n, [1.0] * n, [0.0] * n, [0.0] * n
    rhs[-1] = float(stopped[-1])
    for i in range(1, n - 1):
        if stop[i]:
            rhs[i] = float(stopped[i])
            continue
        d = float(diffusion[i]) / dx**2
        c = float(drift[i]) / (2.0 * dx)
        if not abs(c) <= d:
            raise ValueError(f"cell Peclet number above 1 at node {i}")
        lower[i] = c - d
        upper[i] = -(d + c)
        diag[i] = discount + 2.0 * d
        rhs[i] = float(payoff[i])
    for i in range(1, n):  # forward elimination: row i loses its lower entry
        f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    v = [0.0] * n
    v[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        v[i] = (rhs[i] - upper[i] * v[i + 1]) / diag[i]
    return np.array(v)


def fk_roundoff(grid, v):
    """feynman_kac's stated round-off for a solution v: 16 n ulps of max|v|."""
    return 16.0 * grid.n * np.finfo(float).eps * float(np.max(np.abs(v)))


def agent_value(params, solution, effort):
    """The agent's value at every node when the contract runs solution's
    policies and the agent puts in effort[i] at node i, by feynman_kac.

    Discount lam, diffusion 1/2 exposure(a*)^2, drift lam x - U(r*) + h(a*)
    + kappa(a*) (phi(a') - phi(a*)) with kappa the cost-impact ratio h'/phi',
    running payoff U(r*) - h(a'), and the promised value x paid on stopping
    (V(0) = 0).
    """
    x, a = solution.grid.x, solution.a_star
    u_r = params.u(solution.r_star)
    diffusion = 0.5 * params.exposure(a) ** 2
    drift = (params.lam * x - u_r + params.h(a)
             + params.cost_impact_ratio(a) * (params.phi(effort) - params.phi(a)))
    return feynman_kac(solution.grid, params.lam, diffusion, drift, u_r - params.h(effort),
                       solution.stop, x)


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork call of this process."""
    forks, fork = [], os.fork

    def counting():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def set_cpus(monkeypatch, k):
    """Make the affinity mask hold k CPUs, which sets the shard counts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
