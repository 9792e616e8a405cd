"""Command line front end: solves both regimes and emits CSV datasets.

Each subcommand writes its tables plus a manifest.json into the output
directory. CSVs are the figure-reproduction interface: comma separated,
floats as "%.17g", LF line endings, one header row. Identical config
and seed give byte-identical CSVs, so the files double as regression
fixtures. paths.csv holds the first _RECORDED_PATHS paths of the run (all
of them when sim.n_paths is smaller), while the manifest's Monte Carlo
estimate and counts cover every path.

_SUBCOMMANDS maps each subcommand to its stages, run in order over one
per-run dict of second-best solutions by sigma; report is the five stages
together. Before the first stage, one sigma_sweep call solves each
distinct sigma the run's stages need (cfg's own, and sweep.sigmas for the
sweep), and a run with the simulation stage checks sim.x0 against cfg's
own solution (check_start). When report's simulation would run as one
shard on more than one CPU (simulate._shard_count, _cpu_count), that call
solves cfg's own sigma alone; report then runs its simulation stage in a
forked child while this process solves the other sigmas in one more
sigma_sweep call and runs the other four stages. Files, diagnostics and
timings merge in stage order, and an error of the other stages wins over
one of the simulation, as when the stages run in order. The stages write
into a staging directory in the output directory, and only a run whose
every stage succeeded moves the files out of it, the manifest last: a run
that fails writes nothing (a killed one can leave its .contract-solve-*
staging directory behind).

Exit codes: 0 success, 1 validation problem (bad flag, unknown key, value
out of range, output directory not writable), 2 solver failure. A closed
stdout does not change them: the list of files written is dropped.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load
from .first_best import BracketFailure, continuation_boundary, principal_value_fb, schedules
from . import hjbvi
from .hjbvi import Grid
from .model import ModelParams
from .simulate import (InvalidStart, PolicyOutOfRange, _cpu_count, _run_forked, _shard_count,
                       check_start, simulate_paths, summarize_paths)

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


_CSV_BLOCK = 4096  # rows per chunk; bounds the text held in memory at once
_RECORDED_PATHS = 100  # paths written to paths.csv, the first by id
_RESIDUAL_BOUND = 1e-8  # acceptance criterion 05's bound on the solve's defect
_UNQUOTABLE = frozenset("\0,\r\n")  # characters a CSV field would need quoted
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}  # by dtype kind; "%s" otherwise


def _csv_rows(columns) -> bytes:
    """CSV rows of equal-length columns, each led by "\\n", UTF-8 encoded:
    one %-format of the row format repeated per row over the columns'
    values interleaved row by row. Caller text only fills "%s" fields."""
    width = len(columns)
    row = "\n" + ",".join(_FORMATS.get(col.dtype.kind, "%s") for col in columns)
    values = [None] * (len(columns[0]) * width)
    for j, col in enumerate(columns):
        values[j::width] = col.tolist()
    return ((row * len(columns[0])) % tuple(values)).encode()


def _unquotable(texts, what):
    """Raise ValueError at the first of texts that holds NUL, ",", CR or LF:
    the writer does not quote, so such a text would change the table."""
    for text in texts:
        if not _UNQUOTABLE.isdisjoint(text):
            raise ValueError(f"{what} {text!r} holds NUL, ',', CR or LF, which CSV "
                             f"needs quoted; write_csv does not quote")


def write_csv(path, header, columns) -> None:
    """One header row plus data rows, LF endings, floats as "%.17g".

    columns is one table of equal-length 1-D columns (arrays or sequences),
    one per header name, written row by row; a column count other than the
    header's, a column of another shape, columns that differ in length, or
    a header name or text value holding NUL, ",", CR or LF raise ValueError
    before the file is opened. A table of zero rows (or no columns) gives
    the header alone. Each column's dtype picks its format: "%d" for
    integers and bools (1/0), "%.17g" for floats, "%s" otherwise.

    The rows are formatted _CSV_BLOCK rows at a time, one %-format per
    block, and written into a new file beside path, which then replaces
    path (os.replace); a write that fails removes it, leaving path as it
    was.
    """
    columns = [np.asarray(col) for col in columns]
    if columns and len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if any(col.ndim != 1 for col in columns):
        raise ValueError(f"columns must be 1-D, not of shapes {[col.shape for col in columns]}")
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    _unquotable(header, "header name")
    for col in columns:
        if col.dtype.kind not in "biuf":
            _unquotable(map(str, col.tolist()), "text value")
    directory, base = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{base}.{os.urandom(6).hex()}.tmp")
    # a new file, with the permissions open(path, "wb") would give one
    fh = os.fdopen(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with fh:
            fh.write(",".join(header).encode())
            for start in range(0, rows, _CSV_BLOCK):
                fh.write(_csv_rows([col[start:start + _CSV_BLOCK] for col in columns]))
            fh.write(b"\n")
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


@dataclasses.dataclass(frozen=True)
class VoiTable:
    x: np.ndarray
    v_fb: np.ndarray
    v_sb: np.ndarray
    voi: np.ndarray


def value_of_information(params: ModelParams, x_grid, solution) -> VoiTable:
    """Full-information value minus second-best value on x_grid.

    The second-best value is linearly interpolated from the supplied
    solution on its own grid; the full-information value is solved point by
    point. x_grid must be non-empty and inside both solvers' domains,
    [0, min(continuation_boundary, grid.x_max)], or ValueError is raised.
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


def sigma_sweep(params: ModelParams, sigmas, *, grid: Grid,
                tol: float = hjbvi.DEFAULT_TOL, max_iter: int = hjbvi.DEFAULT_MAX_ITER):
    """Second-best solves of every sigma on a shared grid, in one
    howard_solve_many batch. The CLI solves through it, each distinct sigma
    once: with one call, or, when report's simulation runs beside its other
    stages, one for the simulated sigma and one for the rest.

    Returns a dict from each distinct sigma, in input order, to its
    solution or to the exception that failed it, as howard_solve_many
    returns them: ValueError for a sigma <= 0, NoConvergence or
    NonMonotoneScheme. A failed sigma does not abort the sweep, and the
    other sigmas keep their bitwise solutions. A max_iter below 1 or not an
    integer, or a tol that is not finite and > 0, raises howard_solve_many's
    ValueError.
    """
    sigmas = list(dict.fromkeys(float(sg) for sg in sigmas))
    if not sigmas:
        raise ValueError("sigma_sweep needs at least one sigma")
    return dict(zip(sigmas, hjbvi.howard_solve_many(params, sigmas, grid, tol=tol,
                                                    max_iter=max_iter)))


# A stage is (cfg, outdir, solved) -> (files, diagnostics). solved maps
# each sigma the stage needs to sigma_sweep's result; cfg's own sigma is a
# solution whenever a stage reads it.


def _first_best(cfg: RunConfig, outdir, solved):
    xs = np.linspace(cfg.fb_x_min, cfg.fb_x_max, cfg.fb_x_n)
    sols = [principal_value_fb(cfg.params, float(x)) for x in xs]
    write_csv(os.path.join(outdir, "fb_value.csv"),
              ("x", "lambda_lag", "tau_star", "value"),
              (xs, [s.lambda_lag for s in sols], [s.tau_star.value for s in sols],
               [s.value for s in sols]))

    anchor = principal_value_fb(cfg.params, cfg.params.x_reserve)
    ts = np.linspace(0.0, cfg.fb_t_max, cfg.fb_t_n)
    write_csv(os.path.join(outdir, "fb_schedule.csv"), ("t", "rent", "effort", "H"),
              (ts, *schedules(cfg.params, anchor.lambda_lag, ts)))
    diag = {
        "schedule_x": cfg.params.x_reserve,
        "schedule_lambda_lag": anchor.lambda_lag,
    }
    return ["fb_value.csv", "fb_schedule.csv"], diag


def _second_best(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    g = sol.grid
    write_csv(os.path.join(outdir, "sb_solution.csv"),
              ("x", "w", "r_star", "a_star", "stop"),
              (g.x, sol.w, sol.r_star, sol.a_star, sol.stop))
    diag = {
        "b_hat": sol.b_hat,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "residual_within_bound": sol.residual <= _RESIDUAL_BOUND,
        "k_growth": sol.k_growth,
        "effort_convex_nodes": sol.effort_convex_nodes,
        "level_sweeps": [list(level) for level in sol.level_sweeps],
    }
    if not diag["residual_within_bound"]:
        print(f"warning: residual {sol.residual:.3e} is above criterion 05's bound of "
              f"{_RESIDUAL_BOUND:g} (howard.tol = {cfg.howard_tol:g})", file=sys.stderr)
    return ["sb_solution.csv"], diag


def _simulate(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    table = simulate_paths(cfg.params, sol, cfg.sim_x0, cfg.sim,
                           n_recorded=min(_RECORDED_PATHS, cfg.sim.n_paths))
    names = ("path_id", "t", "j", "x", "dw", "stopped")
    write_csv(os.path.join(outdir, "paths.csv"), names, [getattr(table, k) for k in names])
    mc = summarize_paths(cfg.params, sol, cfg.sim, table)
    diag = {
        "x0": cfg.sim_x0,
        "n_paths": mc.n_paths,
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "n_floor": mc.n_floor,
        "n_stopped": mc.n_paths - mc.n_floor - mc.n_censored,
        "n_censored": mc.n_censored,
        "path_steps": int(table.steps.sum()),
        "censoring_bias_bound": mc.censoring_bias_bound,
    }
    return ["paths.csv"], diag


def _voi(cfg: RunConfig, outdir, solved):
    sol = solved[cfg.params.sigma]
    try:
        table = value_of_information(cfg.params, np.linspace(0.0, cfg.voi_x_max, cfg.voi_x_n), sol)
    except ValueError as exc:  # past grid.x_max or the first-best boundary
        raise ConfigError(f"voi.x_max = {cfg.voi_x_max:.6g}: {exc}") from None
    write_csv(os.path.join(outdir, "voi.csv"),
              ("x", "v_fb", "v_sb", "voi"),
              (table.x, table.v_fb, table.v_sb, table.voi))
    diag = {"voi_min": float(table.voi.min())}
    return ["voi.csv"], diag


def _sweep(cfg: RunConfig, outdir, solved):
    failed = [sg for sg in cfg.sweep_sigmas if isinstance(solved[sg], Exception)]
    per_sigma = [(np.full(solved[sg].grid.n, sg), solved[sg].grid.x, solved[sg].w)
                 for sg in cfg.sweep_sigmas if sg not in failed]
    write_csv(os.path.join(outdir, "sweep.csv"), ("sigma", "x", "w"),
              [np.concatenate(col) for col in zip(*per_sigma)])
    diag = {
        "sweep_sigmas": list(cfg.sweep_sigmas),
        "sweep_failures": [f"{sg}: {type(solved[sg]).__name__}: {solved[sg]}" for sg in failed],
    }
    # the sweep's own solutions are freed with this stage
    for sg in cfg.sweep_sigmas:
        if sg != cfg.params.sigma:
            solved.pop(sg, None)
    return ["sweep.csv"], diag


def _own_sigma(cfg: RunConfig):
    return (cfg.params.sigma,)


# (timings key prefix, stage, the sigmas it needs solved) in run order
_FB, _SB, _VOI, _SWEEP, _SIM = (("fb", _first_best, lambda cfg: ()),
                                ("sb", _second_best, _own_sigma),
                                ("voi", _voi, _own_sigma),
                                ("sweep", _sweep, lambda cfg: cfg.sweep_sigmas),
                                ("sim", _simulate, _own_sigma))
_SUBCOMMANDS = {
    "first-best": (_FB,),
    "second-best": (_SB,),
    "simulate": (_SIM,),
    "voi": (_VOI,),
    "sweep": (_SWEEP,),
    "report": (_FB, _SB, _VOI, _SWEEP, _SIM),
}


def _solve(cfg: RunConfig, stages, solved) -> dict:
    """Solve the sigmas stages need that solved lacks, in one sigma_sweep
    call, into solved; returns {"solve_seconds": its time}, or {} if none
    was missing."""
    missing = [sg for _, _, need in stages for sg in need(cfg) if sg not in solved]
    if not missing:
        return {}
    t0 = time.perf_counter()
    # no other reference to a solution outlives solved, so the sweep stage frees its own
    solved.update(sigma_sweep(cfg.params, missing, grid=cfg.grid, tol=cfg.howard_tol,
                              max_iter=cfg.howard_max_iter))
    return {"solve_seconds": time.perf_counter() - t0}


def _run_group(cfg: RunConfig, outdir, solved, stages):
    """(files, diagnostics, timings) of stages run in order, once _solve has
    solved what they need."""
    files, diag, timings = [], {}, _solve(cfg, stages, solved)
    for key, stage, _ in stages:
        t0 = time.perf_counter()
        stage_files, stage_diag = stage(cfg, outdir, solved)
        timings[f"{key}_seconds"] = time.perf_counter() - t0
        files += stage_files
        diag.update(stage_diag)
    return files, diag, timings


def _parse_argv(argv):
    if not argv:
        raise ConfigError("missing subcommand")
    sub = argv[0]
    if sub in ("-h", "--help", "help"):
        return None, None, None, None
    if sub not in _SUBCOMMANDS:
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
        _print_out(_USAGE)
        return 0

    out_dir = os.environ.get("CONTRACT_SOLVE_OUT") or out_dir or "out"
    try:
        cfg = load(config_path, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stages = _SUBCOMMANDS[sub]
    sim = tuple(st for st in stages if st[0] == "sim")
    rest = tuple(st for st in stages if st[0] != "sim")  # report's last stage is sim
    # a simulation of one shard leaves the other CPUs idle, so with another
    # CPU it runs in a child beside the other stages, its sigma solved
    # first; one that shards itself forks its own and runs last, in process
    beside = bool(sim and rest) and _cpu_count() > 1 and _shard_count(cfg.sim.n_paths) == 1
    files, diag = [], {}
    staging = None
    try:
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".contract-solve-", dir=out_dir)
        solved = {}
        timings = _solve(cfg, sim if beside else stages, solved)
        own = solved.get(cfg.params.sigma)
        if isinstance(own, Exception) and any(need is _own_sigma for _, _, need in stages):
            print(f"solver failure: {type(own).__name__}: {own}", file=sys.stderr)
            return 2
        if sim:
            check_start(own, cfg.sim_x0)  # a bad sim.x0 fails the run before any stage
        # beside: the other stages' error, raised first, wins over the child's
        parts = (_run_forked(lambda i: _run_group(cfg, staging, solved, (rest, sim)[i]), 2)
                 if beside else [_run_group(cfg, staging, solved, stages)])
        for group_files, group_diag, group_timings in parts:
            files += group_files
            diag.update(group_diag)
            for key, seconds in group_timings.items():
                timings[key] = timings.get(key, 0.0) + seconds
        manifest = {
            "tool_version": __version__,
            "subcommand": sub,
            "config": cfg.snapshot,
            "files": sorted(files + ["manifest.json"]),
            "diagnostics": diag,
            "timings": {**timings, "total_seconds": time.perf_counter() - t_start},
        }
        with open(os.path.join(staging, "manifest.json"), "w", encoding="utf-8",
                  newline="") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        names = files + ["manifest.json"]  # the manifest last: it marks a whole run
        for name in names:  # a directory in a file's place fails the run before any move
            target = os.path.join(out_dir, name)
            if os.path.isdir(target) and not os.path.islink(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidStart as exc:  # a bad sim.x0, not a solver failure
        print(f"error: sim.{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1
    except (BracketFailure, PolicyOutOfRange) as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    _print_out("".join(os.path.join(out_dir, name) + "\n" for name in manifest["files"]))
    return 0


def _print_out(text: str) -> None:
    """Write text to stdout. A reader that closed it (a pipe into head) is
    not an error: stdout then goes to the null device, so neither this write
    nor the interpreter's flush at exit raises."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
