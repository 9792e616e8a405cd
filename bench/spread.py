"""Run bench/run.py once per seed and print each metric's median and spread.

usage: python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles(values, n=4)) as a share of their
median; BENCHMARK.json's bounds are compared against it. The per-seed
values and the summary go to bench/results/spread-<workload>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default="50")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)

    runs = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True)
        runs[seed] = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: round(v["value"], 4) for k, v in runs[seed]["metrics"].items()}
        print(f"seed {seed}: correct={runs[seed]['correct']} {values}", flush=True)

    summary = {}
    for name in next(iter(runs.values()))["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else float("nan")}
        print(f"{name:<40} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    out = BENCH / "results" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
