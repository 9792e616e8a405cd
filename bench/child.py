"""One benchmark repetition, run by bench/run.py in a fresh process.

usage: python3 bench/child.py WORKLOAD SEED TRACE RESULT_JSON T_SPAWN

Sets the workload up, times its measured part, then checks the outputs and
records their deterministic diagnostics apart from the timings. T_SPAWN is
the parent's CLOCK_MONOTONIC reading just before it started this process,
so setup_s covers interpreter start, imports, config and any solve the
workload needs before it is ready. Every operation is checked; a failed
check or an exception counts that operation as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import contract_solve as cs  # noqa: E402
from spans import Tracer  # noqa: E402

HJB_SIGMAS = (1.5, 1.7, 1.85, 2.0, 2.2)
HJB_FINE = (1.85, 4001)
MC_X0 = (0.05, 0.1, 0.2)
REPORT_FILES = {"fb_value.csv", "fb_schedule.csv", "sb_solution.csv", "voi.csv",
                "sweep.csv", "paths.csv", "manifest.json"}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Report:
    """`contract-solve report` at the default config with 2000 paths."""

    def __init__(self, seed: int, scratch: Path):
        self.out = Path(tempfile.mkdtemp(prefix="report-", dir=scratch))
        self.argv = ["report", "--out", str(self.out),
                     "--set", "sim.n_paths=2000", "--set", f"sim.seed={seed}"]

    def measure(self):
        try:
            return cs.cli_dispatch(self.argv)
        except Exception as exc:  # an escaped exception is a failed run
            return exc

    def verify(self, rc):
        try:
            if isinstance(rc, Exception):
                return [{"op": "report", "ok": False, "error": _error(rc)}], {}
            if rc != 0:
                return [{"op": "report", "ok": False, "error": f"exit code {rc}"}], {}
            manifest = json.loads((self.out / "manifest.json").read_text())
            listed = set(manifest["files"])
            present = {name for name in listed if (self.out / name).is_file()}
            ok = listed == REPORT_FILES == present
            diag = {
                "sha256": {name: _sha256(self.out / name)
                           for name in sorted(present - {"manifest.json"})},
                "manifest": {k: v for k, v in manifest["diagnostics"].items()
                             if not k.endswith("_seconds")},
            }
            op = {"op": "report", "ok": ok}
            if not ok:
                op["error"] = f"manifest lists {sorted(listed)}, present {sorted(present)}"
            return [op], diag
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


class HjbLadder:
    """howard_solve over a sigma ladder on 2001 nodes, then sigma=1.85 on 4001."""

    def __init__(self, seed: int, scratch: Path):
        cfg = cs.load(None, [])
        self.tol = cfg.howard_tol
        base = cfg.params
        self.cases = [(dataclasses.replace(base, sigma=s), cs.Grid.make(cfg.grid_x_max, cfg.grid_n))
                      for s in HJB_SIGMAS]
        sigma, n = HJB_FINE
        self.cases.append((dataclasses.replace(base, sigma=sigma), cs.Grid.make(cfg.grid_x_max, n)))

    def measure(self):
        out = []
        for params, grid in self.cases:
            try:
                sol = cs.howard_solve(params, grid, tol=self.tol)
                out.append((sol, cs.residual_check(sol, params, grid)))
            except Exception as exc:
                out.append(exc)
        return out

    def verify(self, results):
        ops, solves = [], []
        for (params, grid), res in zip(self.cases, results):
            tag = f"sigma={params.sigma} n={grid.n}"
            if isinstance(res, Exception):
                ops.append({"op": tag, "ok": False, "error": _error(res)})
                continue
            sol, resid = res
            ok = resid <= 10.0 * self.tol
            ops.append({"op": tag, "ok": ok} if ok else
                       {"op": tag, "ok": False, "error": f"residual_check {resid:.3e}"})
            solves.append({"sigma": params.sigma, "n": grid.n, "b_hat": sol.b_hat,
                           "sweeps": sol.iterations, "residual": sol.residual,
                           "residual_check": resid})
        return ops, {"solves": solves}


class McLadder:
    """mc_principal_value at three starting values under the default policy."""

    def __init__(self, seed: int, scratch: Path):
        cfg = cs.load(None, [])
        self.params = cfg.params
        self.solution = cs.howard_solve(self.params, cs.Grid.make(cfg.grid_x_max, cfg.grid_n),
                                        tol=cfg.howard_tol, max_iter=cfg.howard_max_iter)
        self.sim = cs.SimConfig(seed=seed)

    def measure(self):
        out = []
        for x0 in MC_X0:
            try:
                out.append(cs.mc_principal_value(self.params, self.solution, x0, self.sim))
            except Exception as exc:
                out.append(exc)
        return out

    def verify(self, results):
        sol = self.solution
        ops, estimates = [], []
        for x0, mc in zip(MC_X0, results):
            if isinstance(mc, Exception):
                ops.append({"op": f"x0={x0}", "ok": False, "error": _error(mc)})
                continue
            pde = float(np.interp(x0, sol.grid.x, sol.w))
            gap, bound = abs(mc.estimate - pde), 3.0 * mc.std_error + 0.05
            ok = gap <= bound
            ops.append({"op": f"x0={x0}", "ok": ok} if ok else
                       {"op": f"x0={x0}", "ok": False, "error": f"gap {gap:.4g} > {bound:.4g}"})
            estimates.append({"x0": x0, "estimate": mc.estimate, "std_error": mc.std_error,
                              "pde": pde, "gap_se": gap / mc.std_error,
                              "n_floor": mc.n_floor, "n_censored": mc.n_censored})
        diag = {"b_hat": sol.b_hat, "sweeps": sol.iterations, "residual": sol.residual,
                "estimates": estimates}
        if estimates:
            diag["mc_gap_se"] = max(e["gap_se"] for e in estimates)
        return ops, diag


WORKLOADS = {"report": Report, "hjb-ladder": HjbLadder, "mc-ladder": McLadder}


def main(argv) -> int:
    name, seed, traced, result_path, t_spawn = argv
    seed, traced, t_spawn = int(seed), traced == "1", float(t_spawn)
    result_path = Path(result_path)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(cs)
        root = tracer.begin("bench.setup")
    workload = WORKLOADS[name](seed, result_path.parent)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn
    if traced:
        tracer.end(root)
        root = tracer.begin("bench.measure")
    t0 = time.perf_counter()
    raw = workload.measure()
    wall_s = time.perf_counter() - t0
    if traced:
        tracer.end(root)
    ops, diagnostics = workload.verify(raw)
    result = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops, "diagnostics": diagnostics, "numpy": np.__version__,
        "trace": tracer.summary() if traced else None,
    }
    if traced:
        tracer.write(result_path.with_suffix(".spans.jsonl"))
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
