"""contract-solve benchmark: three closed-loop workloads, one per solver layer.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the checkout's own src/.
Each repetition runs in a fresh child process (bench/child.py), one at a
time, with BLAS/OpenMP threads pinned to 1. Repetitions start until S
seconds have passed (at least one, at least two when traced), each one
setting up, running the workload once and checking its outputs. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details, including each
repetition, the deterministic diagnostics and the machine, go to
bench/results/<workload>-seed<N>-trace<T>/result.json.

Workloads (why each one is here):
  report      `contract-solve report` at the default config, sim.n_paths=2000,
              sim.seed=N, a fresh output directory per repetition. The tool
              users run; its time is spread over every layer, and it is the
              only workload that runs first_best or write_csv.
  hjb-ladder  howard_solve on 2001 nodes for sigma in 1.5..2.2, then
              sigma=1.85 on 4001 nodes, residual_check after each. Sweep and
              library use: nearly all time is in hjbvi; sigma moves b_hat and
              the sweep count, 4001 nodes adds a cascade level.
  mc-ladder   the default policy solved in set-up, then mc_principal_value
              at x0 in {0.05, 0.1, 0.2} with the default SimConfig (10,000
              paths, dt=1e-3, seed=N). The estimation use of simulate: no
              recording, no CSV; report covers the recording use.

BENCHMARK.json lists report and mc-ladder only. hjb-ladder stays runnable
for paired comparisons of hjbvi changes, but its wall_s is too unsteady to
bound: on a 2-core shared VM its median over ten 36 s runs spread by 16%
(IQR over median), because howard_solve streams multi-MB temporaries and
slows by about 30% whenever a neighbour streams memory. report still covers
hjbvi (about 40% of its time) and mc-ladder covers it in set-up.

End-to-end metrics (--trace 0), medians over the repetitions of one run:
  wall_s       time of the measured part
  setup_s      process start to workload ready (imports, config, and the
               policy solve for mc-ladder)
  peak_rss_mb  peak resident memory of the repetition's process
Also printed, not bounded: failed_frac (failed operations over attempted;
an operation is one CLI run, one howard_solve or one MC estimate) and, for
mc-ladder, mc_gap_se = max over x0 of |MC - PDE| / SE, which is fixed by
the seed rather than measured.

Per-layer metrics (--trace 1) come from the traced repetitions, which
alternate with untraced ones so that the tracing overhead (traced minus
untraced wall_s) is measured in the same run. Spans wrap the public
functions of hjbvi, first_best, simulate and report_cli (see spans.py),
over set-up and measured part alike, so hjbvi shows on mc-ladder through
its set-up solve. Which end-to-end metric each should move:
  hjbvi.*            wall_s on hjb-ladder and report; setup_s on mc-ladder
  first_best.*       wall_s on report only
  simulate.mc_*, simulate.paths*   wall_s on mc-ladder
  simulate.simulate_paths_s, simulate.path_steps*   wall_s, peak_rss_mb on report
  report_cli.*       wall_s on report only
A layer's metric reads 0 on a workload that never calls it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report", "hjb-ladder", "mc-ladder")
OPS_PER_REP = {"report": 1, "hjb-ladder": 6, "mc-ladder": 3}
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# printed with the end-to-end metrics but not bounded (see module docstring)
UNBOUNDED = {"samples": "count", "failed_frac": "ratio", "mc_gap_se": "SE"}
# per-layer metric -> unit; times are inclusive of nested spans
PER_LAYER = {
    "hjbvi.howard_solve_s": "s", "hjbvi.howard_solve_calls": "count",
    "hjbvi.sweeps": "count", "hjbvi.s_per_sweep": "s",
    "hjbvi.residual_check_s": "s", "hjbvi.self_s": "s",
    "first_best.principal_value_fb_s": "s", "first_best.principal_value_fb_calls": "count",
    "first_best.solve_lagrange_s": "s", "first_best.solve_lagrange_calls": "count",
    "first_best.G_evals": "count", "first_best.G_evals_per_solve": "count",
    "first_best.continuation_boundary_s": "s", "first_best.self_s": "s",
    "simulate.mc_principal_value_s": "s", "simulate.paths": "count",
    "simulate.paths_per_s": "1/s", "simulate.simulate_paths_s": "s",
    "simulate.path_steps": "count", "simulate.path_steps_per_s": "1/s",
    "simulate.self_s": "s",
    "report_cli.write_csv_s": "s", "report_cli.write_csv_calls": "count",
    "report_cli.csv_bytes": "B", "report_cli.csv_MB_per_s": "MB/s",
    "report_cli.value_of_information_s": "s", "report_cli.sigma_sweep_s": "s",
    "report_cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer values from one traced repetition's summary."""
    t, n, c = trace["time_s"], trace["calls"], trace["counts"]
    g = lambda d, k: d.get(k, 0)  # noqa: E731
    out = {
        "hjbvi.howard_solve_s": g(t, "hjbvi.howard_solve"),
        "hjbvi.howard_solve_calls": g(n, "hjbvi.howard_solve"),
        "hjbvi.sweeps": g(c, "hjbvi.sweeps"),
        "hjbvi.residual_check_s": g(t, "hjbvi.residual_check"),
        "first_best.principal_value_fb_s": g(t, "first_best.principal_value_fb"),
        "first_best.principal_value_fb_calls": g(n, "first_best.principal_value_fb"),
        "first_best.solve_lagrange_s": g(t, "first_best.solve_lagrange"),
        "first_best.solve_lagrange_calls": g(n, "first_best.solve_lagrange"),
        "first_best.G_evals": g(n, "first_best.reservation_integral"),
        "first_best.continuation_boundary_s": g(t, "first_best.continuation_boundary"),
        "simulate.mc_principal_value_s": g(t, "simulate.mc_principal_value"),
        "simulate.paths": g(c, "simulate.paths"),
        "simulate.simulate_paths_s": g(t, "simulate.simulate_paths"),
        "simulate.path_steps": g(c, "simulate.path_steps"),
        "report_cli.write_csv_s": g(t, "report_cli.write_csv"),
        "report_cli.write_csv_calls": g(n, "report_cli.write_csv"),
        "report_cli.csv_bytes": g(c, "report_cli.csv_bytes"),
        "report_cli.value_of_information_s": g(t, "report_cli.value_of_information"),
        "report_cli.sigma_sweep_s": g(t, "report_cli.sigma_sweep"),
    }
    out["trace.spans"] = sum(n.values())
    for layer in ("hjbvi", "first_best", "simulate", "report_cli"):
        out[f"{layer}.self_s"] = g(trace["self_s"], layer)
    out["hjbvi.s_per_sweep"] = _ratio(out["hjbvi.howard_solve_s"], out["hjbvi.sweeps"])
    out["first_best.G_evals_per_solve"] = _ratio(out["first_best.G_evals"],
                                                 out["first_best.solve_lagrange_calls"])
    out["simulate.paths_per_s"] = _ratio(out["simulate.paths"],
                                         out["simulate.mc_principal_value_s"])
    out["simulate.path_steps_per_s"] = _ratio(out["simulate.path_steps"],
                                              out["simulate.simulate_paths_s"])
    out["report_cli.csv_MB_per_s"] = _ratio(out["report_cli.csv_bytes"] / 1e6,
                                            out["report_cli.write_csv_s"])
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # the benchmark may run from an export with no .git
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def run_rep(workload: str, seed: int, traced: bool, path: Path) -> dict | None:
    """One repetition in a fresh child process; None when it crashed or hung."""
    env = {k: v for k, v in os.environ.items() if k != "CONTRACT_SOLVE_OUT"}
    env.update({var: "1" for var in THREAD_VARS})
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           "1" if traced else "0", str(path), repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"repetition timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not path.is_file():
        print(f"repetition exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(path.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = BENCH / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reps, crashed = [], 0
    min_reps = 2 if trace else 1
    start = time.perf_counter()
    k = 0
    while k < min_reps or time.perf_counter() - start < seconds:
        rep = run_rep(workload, seed, trace and k % 2 == 1, out_dir / f"rep{k}.json")
        k += 1
        if rep is None:
            crashed += 1
            break  # a crashed child would likely crash again; stop the run
        reps.append(rep)

    attempted = crashed * OPS_PER_REP[workload] + sum(len(r["ops"]) for r in reps)
    failed = crashed * OPS_PER_REP[workload] + sum(not op["ok"] for r in reps for op in r["ops"])
    diagnostics = [r["diagnostics"] for r in reps]
    deterministic = all(d == diagnostics[0] for d in diagnostics)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    med = lambda rs, key: statistics.median(r[key] for r in rs) if rs else None  # noqa: E731
    summary = {
        "wall_s": med(plain, "wall_s"), "setup_s": med(plain, "setup_s"),
        "peak_rss_mb": med(plain, "peak_rss_mb"), "samples": len(plain),
        "failed_frac": failed / attempted,
    }
    if diagnostics and "mc_gap_se" in diagnostics[0]:
        summary["mc_gap_se"] = diagnostics[0]["mc_gap_se"]

    if trace:
        if traced and plain:
            per_rep = [layer_metrics(r["trace"]) for r in traced]
            values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
            values["trace.overhead_s"] = med(traced, "wall_s") - summary["wall_s"]
            values["trace.overhead_frac"] = _ratio(values["trace.overhead_s"], summary["wall_s"])
        else:
            values = {}
        units = PER_LAYER
    else:
        values, units = summary, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if values.get(name) is not None}
    line = {"correct": failed == 0 and not crashed and deterministic and len(metrics) == len(units),
            "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": {**machine(), "numpy": reps[0]["numpy"] if reps else None},
              "summary": summary, "deterministic": deterministic,
              "diagnostics": diagnostics[0] if diagnostics else None,
              "reps": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "ops")}
                       for r in reps],
              "result": line}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    for rep in out_dir.glob("rep*.json"):
        rep.unlink()

    print(f"{workload} seed={seed} reps={len(reps)} ({len(plain)} untraced) "
          f"attempted={attempted} failed={failed} deterministic={deterministic}")
    for name, value in summary.items():
        print(f"  {name:<12} {value if value is None else f'{value:.6g}'} "
              f"{(END_TO_END | UNBOUNDED)[name]}")
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 bits (it is the simulation seed)")
    if not (ROOT / "src" / "contract_solve" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once so no repetition pays for it in setup_s
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(BENCH, maxlevels=0, quiet=2)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
