"""Command line front end for the scenario pipeline.

Subcommands mirror the development phases: ``validate`` (functional),
``lower`` (functional -> logical), ``concretize`` (logical -> concrete),
``export`` (concrete -> test cases), and ``pipeline`` (everything). All
randomness flows from ``--seed``; no environment entropy is consulted. The
stages' rules live in their modules (``concretize.generate_suite`` chooses
and measures every suite); this one reads and writes files and reports.
With ``--json``, each stdout line is one JSON object.

Exit codes: 0 ok, 1 findings, 2 I/O, 3 syntax, 4 infeasible, 5 internal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import concretize as cz
from . import testcase as tc
from .canonical import load_json
from .errors import ScenarioError, ScenarioSyntaxError, SchemaViolation
from .functional import check_consistency, parse_functional
from .logical import LogicalScenario, deserialize_logical, serialize_logical, validate_logical
from .lowering import load_parameter_catalog, lower_to_logical
from .vocabulary import load_vocabulary

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 4


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioSyntaxError(f"{path}: not UTF-8 text at byte {exc.start}") from exc


def _write(target: Path, text: str) -> None:
    """Write ``text`` to ``target``, making its directory on the first write
    into it, so a run that stops before writing leaves no empty directories.
    The text goes to ``<name>.tmp`` first and then replaces ``target``, so a
    failed write leaves the previous file as it was."""
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(target.name + ".tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _claim(seen: dict, scenario_id: str, path) -> None:
    """Record that ``path`` holds ``scenario_id``: a second file of the same id
    in one run would overwrite the first one's outputs."""
    if scenario_id in seen:
        raise SchemaViolation(f"{path}: scenario {scenario_id!r} was already read from "
                              f"{seen[scenario_id]}")
    seen[scenario_id] = path


def _build_suite(logical: LogicalScenario, args, seed: int):
    """Build the suite and measure its coverage; returns (scenarios, coverage,
    the suite file's text)."""
    scenarios, coverage = cz.generate_suite(logical, args.method, args.k, args.n, seed)
    return scenarios, coverage, cz.SUITE.dumps((scenarios, coverage))


def _emit_findings(path, findings, as_json):
    if as_json:
        print(json.dumps({
            "path": str(path),
            "findings": [{"code": f.code, "message": f.message, "elements": list(f.elements)}
                         for f in findings],
        }, sort_keys=True))
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


def _lower_one(path, vocabulary, catalog, args, seen: dict):
    """Parse, check and lower one DSL file; returns (logical or None, status)."""
    scenario = parse_functional(_read(path), vocabulary)
    _claim(seen, scenario.scenario_id, path)
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
    seen: dict = {}
    for path in args.scenarios:
        logical, status = _lower_one(path, vocabulary, catalog, args, seen)
        worst = max(worst, status)
        if status != EXIT_OK:
            continue
        target = out / f"{logical.scenario_id}.logical.json"
        _write(target, serialize_logical(logical))
        if not args.json:
            print(f"{path} -> {target}")
    return worst


def cmd_concretize(args) -> int:
    out = Path(args.out)
    seen: dict = {}
    for index, path in enumerate(args.scenarios):
        logical = deserialize_logical(_read(path))
        _claim(seen, logical.scenario_id, path)
        status = _gate(path, logical, args)
        if status != EXIT_OK:
            return status
        target = out / f"{logical.scenario_id}.suite.json"
        scenarios, coverage, text = _build_suite(logical, args, cz.derive_seed(args.seed, index))
        _write(target, text)
        if not args.json:
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
    if not scenarios:
        raise SchemaViolation(f"scenario {logical.scenario_id!r}: no concrete scenario to export")
    expected, meta = inputs
    export = tc.Export(logical, scenarios, args.duration, args.dt, meta, expected)
    return tc.export_suite(map(export.render, scenarios), destination)


def cmd_export(args) -> int:
    inputs = _export_inputs(args)
    logical = deserialize_logical(_read(args.logical))
    scenarios = cz.suite_from_dict(load_json(_read(args.suite), json.loads))
    status = EXIT_OK
    for concrete in scenarios:  # each must be a concrete scenario of the logical one
        findings = cz.check_concrete(logical, concrete)
        if findings:
            _emit_findings(f"{args.suite}#{concrete.scenario_id}", findings, args.json)
            status = EXIT_FINDINGS
    if status != EXIT_OK:
        return status
    manifest = _export_cases(logical, scenarios, args, inputs, args.out)
    if not args.json:
        print(f"{args.suite} -> {args.out} ({manifest['case_count']} test cases)")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    vocabulary = load_vocabulary(_read(args.vocab))
    catalog = load_parameter_catalog(_read(args.catalog), vocabulary)
    inputs = _export_inputs(args)
    out = Path(args.out)
    summary = []
    seen: dict = {}
    for index, path in enumerate(args.scenarios):
        logical, status = _lower_one(path, vocabulary, catalog, args, seen)
        if status != EXIT_OK:
            return status

        # a scenario's files are written only once its cases are, so an
        # export error leaves no half-written scenario behind
        logical_text = serialize_logical(logical)
        scenarios, coverage, suite_text = _build_suite(logical, args,
                                                       cz.derive_seed(args.seed, index))
        cases_dir = out / "cases" / logical.scenario_id
        manifest = _export_cases(logical, scenarios, args, inputs, cases_dir)
        logical_path = out / "logical" / f"{logical.scenario_id}.logical.json"
        _write(logical_path, logical_text)
        suite_path = out / "concrete" / f"{logical.scenario_id}.suite.json"
        _write(suite_path, suite_text)
        summary.append({
            "scenario_id": logical.scenario_id,
            "logical": str(logical_path),
            "suite": str(suite_path),
            "cases": str(cases_dir),
            "case_count": manifest["case_count"],
            "pair_coverage": coverage.pair_coverage,
        })
    if args.json:
        print(json.dumps({"scenarios": summary}, sort_keys=True))
    else:
        for entry in summary:
            print(f"{entry['scenario_id']}: {entry['case_count']} test cases, "
                  f"pair coverage {entry['pair_coverage']:.3f} -> {entry['cases']}")
    return EXIT_OK


def _add_method(parser):
    parser.add_argument("--method", default="pairwise", choices=cz.METHODS)
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


def _validate_arguments(parser):
    parser.add_argument("--vocab", required=True)
    parser.add_argument("scenarios", nargs="+")


def _lower_arguments(parser):
    parser.add_argument("--vocab", required=True)
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("scenarios", nargs="+")


def _concretize_arguments(parser):
    parser.add_argument("--out", required=True)
    parser.add_argument("scenarios", nargs="+")
    _add_method(parser)


def _export_arguments(parser):
    parser.add_argument("--logical", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("suite")
    _add_export(parser)


def _pipeline_arguments(parser):
    _lower_arguments(parser)
    _add_method(parser)
    _add_export(parser)


# name: (help line, command, adds its arguments but --json)
COMMANDS = {
    "validate": ("parse and consistency-check functional scenarios", cmd_validate,
                 _validate_arguments),
    "lower": ("lower functional scenarios to logical scenarios", cmd_lower, _lower_arguments),
    "concretize": ("derive concrete suites from logical scenarios", cmd_concretize,
                   _concretize_arguments),
    "export": ("turn a concrete suite into test case files", cmd_export, _export_arguments),
    "pipeline": ("run the whole chain end to end", cmd_pipeline, _pipeline_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all five subcommands without one
    (for ``--help`` and for an unknown name): a run parses one subcommand, and
    adding all five took about 1 ms, near a tenth of a small run."""
    parser = argparse.ArgumentParser(prog="scenkit",
                                     description="functional/logical/concrete scenario pipeline")
    subparsers = parser.add_subparsers(dest="command", required=True)
    chosen = {command: COMMANDS[command]} if command in COMMANDS else COMMANDS
    for name, (summary, func, add_arguments) in chosen.items():
        subparser = subparsers.add_parser(name, help=summary)
        add_arguments(subparser)
        subparser.add_argument("--json", action="store_true", help="machine-readable reports")
        subparser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a subcommand is the first argument: the top-level parser's only option is -h,
    # and with anything else first it lists all five subcommands
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
