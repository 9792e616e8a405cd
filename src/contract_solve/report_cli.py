"""Command line front end: solves both regimes and emits CSV datasets.

Each subcommand writes its tables plus a manifest.json into the output
directory. CSVs are the figure-reproduction interface: comma separated,
17 significant digits, LF line endings, one header row. Identical config
and seed give byte-identical CSVs, so the files double as regression
fixtures.

Exit codes: 0 success, 1 validation problem (bad flag, unknown key, value
out of range), 2 solver failure.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load
from .first_best import BracketFailure, continuation_boundary, principal_value_fb
from .hjbvi import Grid, NoConvergence, NonMonotoneScheme, howard_solve
from .model import ModelParams
from .simulate import (PolicyOutOfRange, SimConfig, in_stop_region, simulate_paths,
                       summarize_paths)

_USAGE = """\
usage: contract-solve <subcommand> [--config FILE] [--out DIR] [--set KEY=VALUE]...

subcommands:
  first-best    fb_value.csv, fb_schedule.csv
  second-best   sb_solution.csv
  simulate      paths.csv
  voi           voi.csv
  sweep         sweep.csv
  report        all of the above

The CONTRACT_SOLVE_OUT environment variable overrides --out. --set may be
repeated; keys are the config-file keys.
"""


_CSV_BLOCK = 4096  # rows per %-format; bounds the text held in memory at once
_CSV_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}  # other dtypes: "%s"


def write_csv(path, header, blocks) -> None:
    """One header row plus data rows, LF endings, 17 significant digits.

    blocks is an iterable of column tuples: each yields equal-length columns
    (arrays or sequences) whose rows are written in order. Each column's
    dtype picks its format: "%d" for integers and bools (1/0), "%.17g" for
    floats (the same bytes as f"{x:.17g}"), "%s" otherwise. At most
    _CSV_BLOCK rows are formatted by one % operation.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            columns = [np.asarray(col) for col in columns]
            row = ",".join(_CSV_FORMATS.get(col.dtype.kind, "%s") for col in columns) + "\n"
            width = len(columns)
            for start in range(0, len(columns[0]), _CSV_BLOCK):
                parts = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
                flat = [None] * (len(parts[0]) * width)
                for j, part in enumerate(parts):
                    flat[j::width] = part
                fh.write((row * len(parts[0])) % tuple(flat))


@dataclass(frozen=True)
class VoiTable:
    x: np.ndarray
    v_fb: np.ndarray
    v_sb: np.ndarray
    voi: np.ndarray


def value_of_information(params: ModelParams, x_grid, solution) -> VoiTable:
    """Full-information value minus second-best value on x_grid.

    The second-best value is linearly interpolated from the supplied
    solution on its own grid; the full-information value is solved point by
    point. x_grid must stay inside both solvers' domains.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    grid = solution.grid
    hi = min(continuation_boundary(params), grid.x_max)
    if x_grid.size == 0:
        raise ValueError("x_grid is empty")
    if np.any(x_grid < 0.0) or np.any(x_grid > hi):
        raise ValueError(f"x_grid must lie within [0, {hi:.6g}]")
    v_fb = np.array([principal_value_fb(params, float(x)).value for x in x_grid])
    v_sb = np.interp(x_grid, grid.x, solution.w)
    return VoiTable(x=x_grid, v_fb=v_fb, v_sb=v_sb, voi=v_fb - v_sb)


def sigma_sweep(params: ModelParams, sigmas, *, grid: Grid | None = None,
                tol: float = 1e-9, max_iter: int = 200):
    """One second-best solve per sigma on a shared grid.

    Returns (solved, failures): solved is a list of (sigma, solution) in
    input order, failures a list of (sigma, message). A failed sigma does
    not abort the sweep.
    """
    import dataclasses

    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("sigma_sweep needs at least one sigma")
    if grid is None:
        grid = Grid.make()
    solved, failures = [], []
    for sg in sigmas:
        try:
            if not sg > 0.0:
                raise ValueError("sigma must be > 0")
            sol = howard_solve(dataclasses.replace(params, sigma=float(sg)),
                               grid, tol=tol, max_iter=max_iter)
            solved.append((float(sg), sol))
        except (ValueError, NoConvergence) as exc:
            failures.append((float(sg), f"{type(exc).__name__}: {exc}"))
    return solved, failures


def _grid(cfg: RunConfig) -> Grid:
    return Grid.make(x_max=cfg.grid_x_max, n=cfg.grid_n)


def _solve_sb(cfg: RunConfig):
    return howard_solve(cfg.params, _grid(cfg), tol=cfg.howard_tol,
                        max_iter=cfg.howard_max_iter)


def _run_first_best(cfg: RunConfig, outdir, timings):
    t0 = time.perf_counter()
    xs = np.linspace(cfg.fb_x_min, cfg.fb_x_max, cfg.fb_x_n)
    sols = [principal_value_fb(cfg.params, float(x)) for x in xs]
    write_csv(os.path.join(outdir, "fb_value.csv"),
              ("x", "lambda_lag", "tau_star", "value"),
              [(xs, [s.lambda_lag for s in sols], [s.tau_star.value for s in sols],
                [s.value for s in sols])])

    anchor = principal_value_fb(cfg.params, cfg.params.x_reserve)
    ts = np.linspace(0.0, cfg.fb_t_max, cfg.fb_t_n)
    write_csv(os.path.join(outdir, "fb_schedule.csv"),
              ("t", "rent", "effort", "H"),
              [(ts, [anchor.rent(t) for t in ts], [anchor.effort(t) for t in ts],
                [anchor.h_profile(t) for t in ts])])
    diag = {
        "schedule_x": cfg.params.x_reserve,
        "schedule_lambda_lag": anchor.lambda_lag,
    }
    timings["fb_seconds"] = time.perf_counter() - t0
    return ["fb_value.csv", "fb_schedule.csv"], diag


def _run_second_best(cfg: RunConfig, outdir, timings, solution=None):
    t0 = time.perf_counter()
    sol = solution if solution is not None else _solve_sb(cfg)
    g = sol.grid
    write_csv(os.path.join(outdir, "sb_solution.csv"),
              ("x", "w", "r_star", "a_star", "stop"),
              [(g.x, sol.w, sol.r_star, sol.a_star, sol.stop)])
    diag = {
        "b_hat": sol.b_hat,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "k_growth": sol.k_growth,
        "effort_convex_nodes": sol.effort_convex_nodes,
    }
    timings["sb_seconds"] = time.perf_counter() - t0
    return ["sb_solution.csv"], diag, sol


def _run_simulate(cfg: RunConfig, outdir, timings, solution=None):
    t0 = time.perf_counter()
    sol = solution if solution is not None else _solve_sb(cfg)
    if not (0.0 < cfg.sim_x0 < sol.b_hat):
        raise ConfigError(
            f"sim.x0 = {cfg.sim_x0:.6g} must lie strictly inside (0, b_hat = {sol.b_hat:.6g})")
    if in_stop_region(sol, cfg.sim_x0):
        raise ConfigError(f"sim.x0 = {cfg.sim_x0:.6g} rounds to a stopped grid node "
                          f"(within dx/2 of b_hat = {sol.b_hat:.6g})")
    sim_cfg = SimConfig(dt=cfg.sim_dt, horizon=cfg.sim_horizon,
                        n_paths=cfg.sim_n_paths, seed=cfg.sim_seed)
    bundles = simulate_paths(cfg.params, sol, cfg.sim_x0, sim_cfg)
    # every path's times are a prefix of the longest path's: format them once
    longest = max(bundles, key=lambda b: b.times.size).times
    times = np.array(["%.17g" % t for t in longest.tolist()], dtype=object)

    def blocks():
        for b in bundles:
            n = b.w_increments.size
            stopped = np.zeros(n + 1, dtype=int)
            stopped[n] = not b.censored  # ended before the horizon: stop region or floor
            yield (np.full(n + 1, b.path_id), times[:n + 1], b.j_path, b.x_path,
                   np.concatenate(([0.0], b.w_increments)), stopped)

    write_csv(os.path.join(outdir, "paths.csv"),
              ("path_id", "t", "j", "x", "dw", "stopped"), blocks())
    mc = summarize_paths(cfg.params, sol, sim_cfg, bundles)
    diag = {
        "x0": cfg.sim_x0,
        "n_paths": mc.n_paths,
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "n_floor": mc.n_floor,
        "n_censored": mc.n_censored,
        "censoring_bias_bound": mc.censoring_bias_bound,
    }
    timings["sim_seconds"] = time.perf_counter() - t0
    return ["paths.csv"], diag, sol


def _run_voi(cfg: RunConfig, outdir, timings, solution=None):
    t0 = time.perf_counter()
    sol = solution if solution is not None else _solve_sb(cfg)
    xs = np.linspace(0.0, cfg.voi_x_max, cfg.voi_x_n)
    try:
        table = value_of_information(cfg.params, xs, sol)
    except ValueError as exc:
        # config keeps xs <= grid.x_max; the first-best boundary is known only once solved
        raise ConfigError(f"voi.x_max = {cfg.voi_x_max:.6g}: {exc}") from None
    write_csv(os.path.join(outdir, "voi.csv"),
              ("x", "v_fb", "v_sb", "voi"),
              [(table.x, table.v_fb, table.v_sb, table.voi)])
    diag = {"voi_min": float(table.voi.min())}
    timings["voi_seconds"] = time.perf_counter() - t0
    return ["voi.csv"], diag, sol


def _run_sweep(cfg: RunConfig, outdir, timings, solution=None):
    t0 = time.perf_counter()
    if not cfg.sweep_sigmas:
        raise ConfigError("sweep.sigmas must list at least one sigma")
    # a solve of cfg itself (same grid, tol and max_iter) stands in for the
    # sweep's solve at cfg's own sigma
    reused = {cfg.params.sigma: solution} if solution is not None else {}
    rest = [sg for sg in cfg.sweep_sigmas if sg not in reused]
    solved, failures = [], []
    if rest:
        solved, failures = sigma_sweep(cfg.params, rest, grid=_grid(cfg),
                                       tol=cfg.howard_tol, max_iter=cfg.howard_max_iter)
    done = {**dict(solved), **reused}
    solved = [(sg, done[sg]) for sg in cfg.sweep_sigmas if sg in done]

    write_csv(os.path.join(outdir, "sweep.csv"), ("sigma", "x", "w"),
              [(np.full(sol.grid.n, sg), sol.grid.x, sol.w) for sg, sol in solved])
    diag = {
        "sweep_sigmas": list(cfg.sweep_sigmas),
        "sweep_failures": [f"{sg}: {msg}" for sg, msg in failures],
    }
    timings["sweep_seconds"] = time.perf_counter() - t0
    return ["sweep.csv"], diag


def _run_report(cfg: RunConfig, outdir, timings):
    files, diag = _run_first_best(cfg, outdir, timings)
    sb_files, sb_diag, sol = _run_second_best(cfg, outdir, timings)
    voi_files, voi_diag, _ = _run_voi(cfg, outdir, timings, solution=sol)
    sweep_files, sweep_diag = _run_sweep(cfg, outdir, timings, solution=sol)
    sim_files, sim_diag, _ = _run_simulate(cfg, outdir, timings, solution=sol)
    for d in (sb_diag, voi_diag, sweep_diag, sim_diag):
        diag.update(d)
    return files + sb_files + voi_files + sweep_files + sim_files, diag


def _parse_argv(argv):
    if not argv:
        raise ConfigError("missing subcommand")
    sub = argv[0]
    if sub in ("-h", "--help", "help"):
        return None, None, None, None
    if sub not in ("first-best", "second-best", "simulate", "voi", "sweep", "report"):
        raise ConfigError(f"unknown subcommand {sub!r}")
    config_path = None
    out_dir = None
    overrides = []
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag in ("--config", "--out", "--set"):
            if i + 1 >= len(argv):
                raise ConfigError(f"{flag} needs a value")
            value = argv[i + 1]
            i += 2
        else:
            raise ConfigError(f"unknown argument {flag!r}")
        if flag == "--config":
            config_path = value
        elif flag == "--out":
            out_dir = value
        else:
            overrides.append(value)
    return sub, config_path, out_dir, overrides


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    t_start = time.perf_counter()
    try:
        sub, config_path, out_dir, overrides = _parse_argv(list(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr, end="")
        return 1
    if sub is None:
        print(_USAGE, end="")
        return 0

    out_dir = os.environ.get("CONTRACT_SOLVE_OUT") or out_dir or "out"
    try:
        cfg = load(config_path, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    timings = {}
    runners = {
        "first-best": lambda: _run_first_best(cfg, out_dir, timings),
        "second-best": lambda: _run_second_best(cfg, out_dir, timings)[:2],
        "simulate": lambda: _run_simulate(cfg, out_dir, timings)[:2],
        "voi": lambda: _run_voi(cfg, out_dir, timings)[:2],
        "sweep": lambda: _run_sweep(cfg, out_dir, timings),
        "report": lambda: _run_report(cfg, out_dir, timings),
    }
    try:
        files, diag = runners[sub]()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoConvergence, NonMonotoneScheme, BracketFailure, PolicyOutOfRange) as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "tool_version": __version__,
        "subcommand": sub,
        "config": cfg.snapshot,
        "files": sorted(files + ["manifest.json"]),
        "diagnostics": diag,
        "timings": {**timings, "total_seconds": time.perf_counter() - t_start},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in manifest["files"]:
        print(os.path.join(out_dir, name))
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
