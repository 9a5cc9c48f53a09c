"""scenkit benchmark: compile time, memory and suite size, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; scenkit is imported from its ``src``.
Every iteration runs the workload's CLI invocations in a fresh worker
process, one at a time, and its outputs are checked against references the
benchmark computes itself (``reference.py``). With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` traced and
untraced iterations alternate and it reports the per-layer metrics.
Times are scaled to a reference host speed (see KERNEL_REFERENCE_S).
Human-readable lines, the output digest and the environment go to stderr and
to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_RUNS = 15  # fresh processes timed for setup_s; set-up is ~0.1 s and noisy
# The host's speed drifts by a quarter within a minute, so every reported time
# is scaled to the speed at which worker.speed_kernel takes this long: each
# timed piece of work is multiplied by KERNEL_REFERENCE_S over the mean of the
# kernel times measured just before and just after it.
KERNEL_REFERENCE_S = 0.085
WORKER_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "suite_size": "count"}

# per-layer metric -> (unit, where it comes from). "self" is a traced span's
# self time, "calls" its call count, "counter" a count taken from a traced
# function's result, "fact" a number the reference computes from the outputs.
PER_LAYER = {
    "concretize.pairwise_s": ("s", "self", "concretize.pairwise"),
    "concretize.coverage_s": ("s", "self", "concretize.coverage"),
    "concretize.sample_s": ("s", "self", "concretize.sample"),
    "concretize.suite_io_s": ("s", "self", "concretize.suite_io"),
    "concretize.level_rows": ("count", "fact", "level_rows"),
    "concretize.lower_bound": ("count", "fact", "lower_bound"),
    "concretize.suite_size": ("count", "fact", "suite_size"),
    "concretize.suite_over_bound": ("ratio", "ratio", ("suite_size", "lower_bound")),
    "expressions.parse_calls": ("count", "calls", "expressions.parse"),
    "expressions.parse_s": ("s", "self", "expressions.parse"),
    "canonical.dumps_calls": ("count", "calls", "canonical.dumps"),
    "canonical.dumps_s": ("s", "self", "canonical.dumps"),
    "testcase.traces_s": ("s", "self", "testcase.traces"),
    "testcase.assemble_s": ("s", "self", "testcase.assemble"),
    "testcase.export_s": ("s", "self", "testcase.export"),
    "testcase.files_written": ("count", "fact", "case_files"),
    "testcase.bytes_written": ("bytes", "fact", "case_bytes"),
    "testcase.samples": ("count", "counter", "testcase.samples"),
    "logical.deserialize_s": ("s", "self", "logical.deserialize"),
    "logical.serialize_s": ("s", "self", "logical.serialize"),
    "logical.validate_s": ("s", "self", "logical.validate"),
    "logical.parameters": ("count", "counter", "logical.parameters"),
    "logical.constraints": ("count", "counter", "logical.constraints"),
    "vocabulary.load_s": ("s", "self", "vocabulary.load"),
    "lowering.catalog_s": ("s", "self", "lowering.catalog"),
    "lowering.lower_s": ("s", "self", "lowering.lower"),
    "functional.parse_s": ("s", "self", "functional.parse"),
    "functional.consistency_s": ("s", "self", "functional.consistency"),
    "trace.wall_s": ("s", "traced_wall", None),
    "trace.overhead_s": ("s", "overhead", None),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def call_worker(spec: dict) -> dict:
    """Run one worker process to completion and return its JSON result."""
    completed = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                               capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {completed.returncode}: "
                           f"{completed.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.catalog = json.loads((ROOT / workloads.DATA / "catalog.json").read_text())
        self.files = workloads.data_files(ROOT)
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spec(self, **fields) -> dict:
        return {"src": str(ROOT / "src"), "files": self.files, **fields}

    def setup_times(self, runs: int) -> list[float]:
        """Set-up times of fresh processes, in reference-speed seconds."""
        results = [call_worker(self.spec(mode="setup")) for _ in range(runs)]
        return [r["setup_s"] * speed_factor(*r["kernel_s"]) for r in results]

    def iterate(self, index: int, trace: bool) -> dict:
        """One fresh-process run of every invocation, then the output checks."""
        out = self.work / f"iter-{index}"
        operations = self.workload.operations
        spec = self.spec(mode="run", trace=trace, invocations=self.workload.invocations(out))
        bad: dict[int, list[str]] = {}
        facts: list[dict] = []
        try:
            result = call_worker(spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            result = None
            bad = {i: [f"worker failed: {exc}"] for i in range(len(operations))}
        if result is not None:
            kernel = result["kernel_s"]
            scaled = sum(elapsed * speed_factor(kernel[j], kernel[j + 1])
                         for j, (_, _, elapsed, _) in enumerate(result["results"]))
            result["factor"] = scaled / result["wall_s"] if result["wall_s"] else 1.0
            for op, code, _, error in result["results"]:
                if code != 0:
                    bad.setdefault(op, []).append(f"{operations[op].name}: {error}")
            for op, operation in enumerate(operations):
                if op in bad:
                    continue
                try:
                    problems, op_facts = reference.check_operation(operation, out, self.catalog)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems, op_facts = [f"{operation.name}: unreadable output: {exc!r}"], {}
                if problems:
                    bad[op] = problems
                facts.append(op_facts)
            self.digests.add(reference.tree_digest(out))
            if len(self.digests) > 1:
                bad.setdefault(0, []).append("output tree differs from an earlier iteration")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(operations)
        self.failed += len(bad)
        for problems in bad.values():
            self.problems += problems[:5]
        totals = {key: sum(f.get(key, 0) for f in facts) for key in
                  ("suite_size", "level_rows", "lower_bound", "case_files", "case_bytes")}
        return {"trace": trace, "result": result, "facts": totals}

    def loop(self, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
        """Iterate until another iteration would overrun ``seconds`` by more
        than half its length. With tracing, untraced and traced iterations
        alternate and both kinds run at least once. Without, set-up samples
        are taken between iterations, spread over the run in proportion to
        elapsed time, because the host's speed drifts over seconds."""
        start = time.perf_counter()
        done: list[dict] = []
        setup: list[float] = []
        while True:
            began = time.perf_counter()
            done.append(self.iterate(len(done), trace and len(done) % 2 == 1))
            last = time.perf_counter() - began
            elapsed = time.perf_counter() - start
            finished = elapsed + last / 2 > seconds and len({d["trace"] for d in done}) == 1 + trace
            if not trace:
                due = SETUP_RUNS if finished else math.ceil(SETUP_RUNS * elapsed / seconds)
                setup += self.setup_times(min(due, SETUP_RUNS) - len(setup))
            if finished:
                return done, setup


def speed_factor(before: float, after: float) -> float:
    return KERNEL_REFERENCE_S / ((before + after) / 2)


def median_of(iterations: list[dict], pick) -> float:
    values = [pick(d) for d in iterations if d["result"] is not None]
    return statistics.median(values) if values else 0.0  # every iteration failed


def scaled_wall(d: dict) -> float:
    return d["result"]["wall_s"] * d["result"]["factor"]


def end_to_end(iterations: list[dict], setup: list[float]) -> dict:
    values = {
        "wall_s": median_of(iterations, scaled_wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": median_of(iterations, lambda d: d["result"]["peak_rss_mb"]),
        "suite_size": iterations[0]["facts"]["suite_size"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(iterations: list[dict]) -> dict:
    traced = [d for d in iterations if d["trace"]]
    untraced = [d for d in iterations if not d["trace"]]
    facts = iterations[0]["facts"]
    traced_wall = median_of(traced, scaled_wall)

    def value(kind, key):
        if kind == "fact":
            return facts[key]
        if kind == "ratio":
            numerator, base = key
            return facts[numerator] / facts[base] if facts[base] else 0.0
        if kind == "traced_wall":
            return traced_wall
        if kind == "overhead":
            return traced_wall - median_of(untraced, scaled_wall)
        if kind == "counter":
            return median_of(traced, lambda d: d["result"]["trace"]["counters"].get(key, 0))
        if kind == "calls":
            return median_of(traced, lambda d: d["result"]["trace"]["spans"]
                             .get(key, {}).get("calls", 0))
        return median_of(traced, lambda d: d["result"]["trace"]["spans"]
                         .get(key, {}).get("self_s", 0) * d["result"]["factor"])

    return {name: {"value": value(kind, key), "unit": unit}
            for name, (unit, kind, key) in PER_LAYER.items()}


def environment() -> dict:
    sources = sorted((ROOT / "src" / "scenkit").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(), "host": platform.platform(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "scenkit_commit": commit, "scenkit_src_sha256": digest.hexdigest()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "scenkit" / "cli.py", ROOT / workloads.WORKED_EXAMPLE,
              ROOT / workloads.GOLDEN_LOGICAL]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        log(f"error: run from a scenkit checkout; missing {', '.join(missing)}")
        return 2

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, ROOT, args.seed, work / "inputs")
    bench = Bench(workload, work)
    call_worker(bench.spec(mode="setup"))  # compiles bytecode; not measured
    iterations, setup = bench.loop(args.seconds, bool(args.trace))

    metrics = per_layer(iterations) if args.trace else end_to_end(iterations, setup)
    unscaled_wall = median_of(iterations, lambda d: d["result"]["wall_s"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "iterations": len(iterations),
              "attempted": bench.attempted, "failed": bench.failed,
              "error_rate": bench.failed / bench.attempted,
              "output_digest": sorted(bench.digests), "problems": bench.problems,
              "unscaled_wall_s": unscaled_wall,
              "iteration_wall_s": [scaled_wall(d) for d in iterations if d["result"]],
              "iteration_factors": [d["result"]["factor"] for d in iterations if d["result"]],
              "iteration_user_sys_s": [[d["result"]["user_s"], d["result"]["sys_s"]]
                                       for d in iterations if d["result"]],
              "environment": environment(), "metrics": metrics}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    log(f"{args.workload} seed {args.seed}: {len(iterations)} iterations, "
        f"{bench.attempted} operations, error_rate {record['error_rate']:.4f} ratio, "
        f"unscaled wall {unscaled_wall:.6g} s")
    for name, metric in metrics.items():
        log(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    log(f"  output digest {', '.join(record['output_digest'])}")
    log(f"  environment {json.dumps(record['environment'])}")
    for problem in bench.problems[:20]:
        log(f"  FAILED {problem}")

    correct = bench.failed == 0 and len(bench.digests) == 1
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
