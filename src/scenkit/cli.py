"""Command line front end for the scenario pipeline.

Subcommands mirror the development phases: ``validate`` (functional),
``lower`` (functional -> logical), ``concretize`` (logical -> concrete),
``export`` (concrete -> test cases), and ``pipeline`` (everything). All
randomness flows from ``--seed``; no environment entropy is consulted.

Exit codes: 0 ok, 1 findings, 2 I/O, 3 syntax, 4 infeasible, 5 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import concretize as cz
from . import testcase as tc
from .canonical import dumps_canonical, json_syntax_error
from .errors import ScenarioError
from .functional import check_consistency, parse_functional
from .logical import LogicalScenario, deserialize_logical, serialize_logical, validate_logical
from .lowering import load_parameter_catalog, lower_to_logical
from .vocabulary import load_vocabulary

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_IO = 2
EXIT_SYNTAX = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def generate_suite(scenario: LogicalScenario, method: str, k: int, n: int, seed: int):
    """Build a concrete suite; returns (scenarios, levels used for coverage)."""
    boundary = {p.name: cz.boundary_values(p) for p in scenario.parameters}
    if method == "random":
        return cz.sample_random(scenario, n, seed), boundary
    if method == "boundary":
        levels = boundary
    elif method == "equivalence":
        levels = {p.name: cz.equivalence_classes(p, k) for p in scenario.parameters}
    elif method == "pairwise":
        levels = {p.name: sorted(set(boundary[p.name])
                                 | set(cz.equivalence_classes(p, k)))
                  for p in scenario.parameters}
    else:
        raise ScenarioError(f"unknown method {method!r}")
    return cz.pairwise_cover(scenario, levels, method), levels


def _write(target: Path, text: str) -> None:
    """Write ``text`` to ``target``, making its directory on the first write
    into it, so a run that stops before writing leaves no empty directories."""
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _write_suite(logical: LogicalScenario, args, seed: int, target: Path):
    """Build the suite, measure its coverage and write both to ``target``."""
    scenarios, levels = generate_suite(logical, args.method, args.k, args.n, seed)
    coverage = cz.coverage_metrics(logical, levels, scenarios)
    _write(target, dumps_canonical(cz.suite_to_dict(scenarios, coverage)))
    return scenarios, coverage


def _emit_findings(path, findings, as_json):
    if as_json:
        print(dumps_canonical({
            "path": str(path),
            "findings": [{"code": f.code, "message": f.message, "elements": list(f.elements)}
                         for f in findings],
        }), end="")
    else:
        status = "OK" if not findings else f"{len(findings)} finding(s)"
        print(f"{path}: {status}")
        for finding in findings:
            print(f"  [{finding.code}] {finding.message}")


def cmd_validate(args) -> int:
    vocabulary = load_vocabulary(_read(args.vocab))
    status = EXIT_OK
    for path in args.scenarios:
        scenario = parse_functional(_read(path), vocabulary)
        report = check_consistency(scenario, vocabulary)
        _emit_findings(path, report.findings, args.json)
        if report.findings:
            status = EXIT_FINDINGS
    return status


def _gate(path, logical: LogicalScenario, args) -> int:
    """Validate a logical scenario, report its findings and return the exit
    status: 4 if a constraint is infeasible, 1 for other findings, else 0."""
    findings = validate_logical(logical).findings
    if not findings:
        return EXIT_OK
    _emit_findings(path, findings, args.json)
    if any(f.code == "INTERVAL_INFEASIBLE" for f in findings):
        return EXIT_INFEASIBLE
    return EXIT_FINDINGS


def _lower_one(path, vocabulary, catalog, args):
    """Parse, check and lower one DSL file; returns (logical or None, status)."""
    scenario = parse_functional(_read(path), vocabulary)
    findings = check_consistency(scenario, vocabulary).findings
    if findings:
        _emit_findings(path, findings, args.json)
        return None, EXIT_FINDINGS
    logical = lower_to_logical(scenario, catalog)
    return logical, _gate(path, logical, args)


def cmd_lower(args) -> int:
    vocabulary = load_vocabulary(_read(args.vocab))
    catalog = load_parameter_catalog(_read(args.catalog), vocabulary)
    out = Path(args.out)
    worst = EXIT_OK
    for path in args.scenarios:
        logical, status = _lower_one(path, vocabulary, catalog, args)
        worst = max(worst, status)
        if status != EXIT_OK:
            continue
        target = out / f"{logical.scenario_id}.logical.json"
        _write(target, serialize_logical(logical))
        print(f"{path} -> {target}")
    return worst


def cmd_concretize(args) -> int:
    out = Path(args.out)
    for index, path in enumerate(args.scenarios):
        logical = deserialize_logical(_read(path))
        status = _gate(path, logical, args)
        if status != EXIT_OK:
            return status
        target = out / f"{logical.scenario_id}.suite.json"
        scenarios, coverage = _write_suite(logical, args, cz.derive_seed(args.seed, index), target)
        print(f"{path} -> {target} ({len(scenarios)} scenarios, "
              f"pair coverage {coverage.pair_coverage:.3f})")
    return EXIT_OK


def _export_inputs(args):
    """Check the timing and load the expected behaviour before anything is
    written; returns ``(expected, meta)``."""
    tc.check_timing(args.dt, args.duration)
    expected = tc.load_expected(_read(args.expected))
    meta = {
        "work_product_ref": args.work_product,
        "preconditions": args.preconditions,
        "configuration": args.configuration,
    }
    return expected, meta


def _export_cases(logical, scenarios, args, inputs, destination) -> dict:
    """Stream one test case per concrete scenario into ``destination``."""
    expected, meta = inputs
    cases = (tc.assemble_test_case(
                 concrete, tc.synthesize_traces(logical, concrete, args.duration, args.dt),
                 meta, expected)
             for concrete in scenarios)
    return tc.export_suite(cases, destination)


def cmd_export(args) -> int:
    inputs = _export_inputs(args)
    logical = deserialize_logical(_read(args.logical))
    try:
        document = json.loads(_read(args.suite))
    except json.JSONDecodeError as exc:
        raise json_syntax_error(exc) from exc
    scenarios = cz.suite_from_dict(document)
    manifest = _export_cases(logical, scenarios, args, inputs, args.out)
    print(f"{args.suite} -> {args.out} ({manifest['case_count']} test cases)")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    vocabulary = load_vocabulary(_read(args.vocab))
    catalog = load_parameter_catalog(_read(args.catalog), vocabulary)
    inputs = _export_inputs(args)
    out = Path(args.out)
    summary = []
    for index, path in enumerate(args.scenarios):
        logical, status = _lower_one(path, vocabulary, catalog, args)
        if status != EXIT_OK:
            return status

        logical_path = out / "logical" / f"{logical.scenario_id}.logical.json"
        _write(logical_path, serialize_logical(logical))

        suite_path = out / "concrete" / f"{logical.scenario_id}.suite.json"
        scenarios, coverage = _write_suite(logical, args, cz.derive_seed(args.seed, index),
                                           suite_path)

        cases_dir = out / "cases" / logical.scenario_id
        manifest = _export_cases(logical, scenarios, args, inputs, cases_dir)
        summary.append({
            "scenario_id": logical.scenario_id,
            "logical": str(logical_path),
            "suite": str(suite_path),
            "cases": str(cases_dir),
            "case_count": manifest["case_count"],
            "pair_coverage": coverage.pair_coverage,
        })
    if args.json:
        print(dumps_canonical({"scenarios": summary}), end="")
    else:
        for entry in summary:
            print(f"{entry['scenario_id']}: {entry['case_count']} test cases, "
                  f"pair coverage {entry['pair_coverage']:.3f} -> {entry['cases']}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="machine-readable reports")


def _add_method(parser):
    parser.add_argument("--method", default="pairwise",
                        choices=["boundary", "equivalence", "pairwise", "random"])
    parser.add_argument("--k", type=int, default=2, help="equivalence classes per parameter")
    parser.add_argument("--n", type=int, default=10, help="sample count for --method random")
    parser.add_argument("--seed", type=int, default=0)


def _add_export(parser):
    parser.add_argument("--expected", required=True, help="authored expected-behavior JSON")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--work-product", dest="work_product", required=True,
                        help="reference to the work product under verification")
    parser.add_argument("--preconditions", default="nominal start, all systems ready")
    parser.add_argument("--configuration", default="default")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenkit",
                                     description="functional/logical/concrete scenario pipeline")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("validate", help="parse and consistency-check functional scenarios")
    p.add_argument("--vocab", required=True)
    p.add_argument("scenarios", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subparsers.add_parser("lower", help="lower functional scenarios to logical scenarios")
    p.add_argument("--vocab", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("scenarios", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_lower)

    p = subparsers.add_parser("concretize", help="derive concrete suites from logical scenarios")
    p.add_argument("--out", required=True)
    p.add_argument("scenarios", nargs="+")
    _add_method(p)
    _add_common(p)
    p.set_defaults(func=cmd_concretize)

    p = subparsers.add_parser("export", help="turn a concrete suite into test case files")
    p.add_argument("--logical", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("suite")
    _add_export(p)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = subparsers.add_parser("pipeline", help="run the whole chain end to end")
    p.add_argument("--vocab", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("scenarios", nargs="+")
    _add_method(p)
    _add_export(p)
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
