"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 10] [--first-seed 1]
                               [--trace 0] [--out perfbench/results.json]

Each run is ``run.py`` in its own process, one after another, for
``run_seconds`` from BENCHMARK.json. For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound. ``--out`` writes every run's
result line, output digest and environment, plus the summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    record = json.loads((ROOT / ".perfbench_work" / workload / "result.json").read_text())
    return {"seed": seed, "result": json.loads(completed.stdout.strip().splitlines()[-1]),
            "iterations": record["iterations"], "output_digest": record["output_digest"],
            "environment": record["environment"]}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "bound": bounds.get(name),
                         "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return summary


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("quartiles need at least 2 seeds")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in runs[-1]["result"]["metrics"].items()),
                flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{bound}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
