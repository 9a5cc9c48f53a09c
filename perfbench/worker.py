"""One fresh-process unit of benchmark work; the last stdout line is JSON.

    python3 worker.py SPEC_JSON

``mode: "setup"`` times importing scenkit and loading the vocabulary, catalog
and expected-behaviour files. ``mode: "run"`` calls ``scenkit.cli.main`` for
each invocation and reports per-invocation exit codes and times, the wall
time of all of them, and the process's peak resident memory. With ``trace``
it first wraps, from outside the package, the public functions the CLI calls
and reports their self time, call counts and a few counters. Both modes also
time `speed_kernel` before and after each piece of timed work, so the host's
speed at that moment can be factored out.
"""

import contextlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def speed_kernel() -> float:
    """Seconds for a fixed pure-Python workload of the kinds scenkit spends
    its time on: tuples and sets of pairs, and indented JSON encoding."""
    start = time.perf_counter()
    rows = list(itertools.product(range(4), repeat=6))
    pair_sets = [{((i, row[i]), (j, row[j])) for i, j in itertools.combinations(range(6), 2)}
                 for row in rows]
    covered = set()
    for pairs in pair_sets:
        covered |= pairs
    document = [{"name": f"p{i}", "value": i * 0.1, "samples": [i / 7.0] * 40}
                for i in range(400)]
    json.dumps(document, sort_keys=True, indent=2)
    return time.perf_counter() - start


class Recorder:
    """Aggregated spans: per name, calls, inclusive time and self time."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._stack = []  # [start, time covered by child spans]

    def wrap(self, name, function, count=None):
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
            if count is not None:
                for key, value in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result
        return traced

    def report(self):
        return {"spans": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in self.spans.items()},
                "counters": self.counters}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``scenkit.cli``, whose only
    use of it is reading a concrete suite back in ``export``."""

    def __init__(self, module, loads):
        self._module = module
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._module, name)


def _logical_counts(logical):
    return {"logical.parameters": len(logical.parameters),
            "logical.constraints": len(logical.constraints)}


def _sample_counts(traces):
    return {"testcase.samples": sum(len(t.samples) for t in traces)}


def install_tracing(recorder):
    """Replace each traced function wherever a scenkit module binds it."""
    import scenkit.canonical
    import scenkit.cli
    import scenkit.concretize as cz
    import scenkit.expressions
    import scenkit.functional as functional
    import scenkit.logical as logical
    import scenkit.lowering as lowering
    import scenkit.testcase as tc
    import scenkit.vocabulary as vocabulary

    targets = [
        (vocabulary.load_vocabulary, "vocabulary.load", None),
        (lowering.load_parameter_catalog, "lowering.catalog", None),
        (functional.parse_functional, "functional.parse", None),
        (functional.check_consistency, "functional.consistency", None),
        (lowering.lower_to_logical, "lowering.lower", _logical_counts),
        (logical.validate_logical, "logical.validate", None),
        (logical.serialize_logical, "logical.serialize", None),
        (logical.deserialize_logical, "logical.deserialize", None),
        (cz.pairwise_cover, "concretize.pairwise", None),
        (cz.sample_random, "concretize.sample", None),
        (cz.coverage_metrics, "concretize.coverage", None),
        (cz.suite_to_dict, "concretize.suite_io", None),
        (cz.concrete_from_dict, "concretize.suite_io", None),
        (tc.synthesize_traces, "testcase.traces", _sample_counts),
        (tc.assemble_test_case, "testcase.assemble", None),
        (tc.export_suite, "testcase.export", None),
        (scenkit.expressions.parse_expression, "expressions.parse", None),
        (scenkit.canonical.dumps_canonical, "canonical.dumps", None),
    ]
    modules = [m for n, m in sys.modules.items() if n == "scenkit" or n.startswith("scenkit.")]
    for original, name, count in targets:
        traced = recorder.wrap(name, original, count)
        bound = 0
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: function not bound in any scenkit module")
    scenkit.cli.json = _JsonProxy(scenkit.cli.json,
                                  recorder.wrap("concretize.suite_io", json.loads))


def _import_scenkit(src):
    sys.path.insert(0, src)
    import scenkit.cli

    if not Path(scenkit.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"scenkit imported from {scenkit.cli.__file__}, not {src}")
    return scenkit.cli


def measure_setup(spec):
    kernel = [speed_kernel()]
    start = time.perf_counter()
    _import_scenkit(spec["src"])
    from scenkit.lowering import load_parameter_catalog
    from scenkit.testcase import load_expected
    from scenkit.vocabulary import load_vocabulary

    files = spec["files"]
    vocabulary = load_vocabulary(Path(files["vocab"]).read_text(encoding="utf-8"))
    load_parameter_catalog(Path(files["catalog"]).read_text(encoding="utf-8"), vocabulary)
    load_expected(Path(files["expected"]).read_text(encoding="utf-8"))
    setup = time.perf_counter() - start
    kernel.append(speed_kernel())
    return {"setup_s": setup, "kernel_s": kernel}


def run_invocations(spec):
    cli = _import_scenkit(spec["src"])
    recorder = Recorder() if spec["trace"] else None
    if recorder is not None:
        install_tracing(recorder)
    results = []
    failed_ops = set()
    wall = 0.0
    kernel = []
    for op, argv in spec["invocations"]:
        kernel.append(speed_kernel())
        if op in failed_ops:
            results.append([op, None, 0.0, "skipped after an earlier failure"])
            continue
        error = None
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crashed run
            code = None
            error = "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        wall += elapsed
        if code != 0:
            failed_ops.add(op)
            error = error or f"exit code {code}: {sink.getvalue().strip()[-500:]}"
        results.append([op, code, elapsed, error])
    kernel.append(speed_kernel())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"results": results, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
            "kernel_s": kernel,
            "trace": recorder.report() if recorder is not None else None}


def main():
    spec = json.loads(sys.argv[1])
    result = measure_setup(spec) if spec["mode"] == "setup" else run_invocations(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
