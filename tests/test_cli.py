import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from scenkit import expressions
from scenkit.cli import generate_suite, main
from scenkit.logical import deserialize_logical

from conftest import DATA, make_logical, replaced

ROOT = DATA.parent.parent

VOCAB = str(DATA / "vocabulary.json")
CATALOG = str(DATA / "catalog.json")
SCENARIO = str(DATA / "fig_car_follows_truck.scn")
EXPECTED = str(DATA / "expected.json")

WORKED_SUITE_SHA256 = "6c5bc47c22555e99c52e3104f05585f2bfa2fa2b8ecbd13f49bdb1974657a1a9"

EXPORT_ARGS = ["--expected", EXPECTED, "--work-product", "req-keep-distance-001",
               "--duration", "2", "--dt", "1"]


def _deep(value):
    """``value`` inside 500 nested arrays: the decoder accepts it, the encoder
    would need about 1,000 Python frames."""
    for _ in range(500):
        value = [value]
    return value


def test_validate_ok(capsys):
    assert main(["validate", "--vocab", VOCAB, SCENARIO]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_findings(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario s9\nroad r1 is two-lane-motorway\n")
    assert main(["validate", "--vocab", VOCAB, str(bad)]) == 1
    assert "MISSING_REQUIRED_ATTRIBUTE" in capsys.readouterr().out


def test_validate_json_report(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario s9\nroad r1 is two-lane-motorway\n")
    assert main(["validate", "--vocab", VOCAB, "--json", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["findings"][0]["code"] == "MISSING_REQUIRED_ATTRIBUTE"


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario s9\ncar c1\nc1 folows t1\n")
    assert main(["validate", "--vocab", VOCAB, str(bad)]) == 3
    assert "folows" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["validate", "--vocab", VOCAB, "/nonexistent/file.scn"]) == 2


def test_lower_writes_logical(tmp_path, capsys):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical = deserialize_logical((tmp_path / "s1.logical.json").read_text())
    assert len(logical.parameters) == 7


def test_concretize_methods(tmp_path, capsys):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical_path = str(tmp_path / "s1.logical.json")
    for method in ("boundary", "equivalence", "pairwise", "random"):
        out = tmp_path / method
        assert main(["concretize", "--out", str(out), "--method", method,
                     "--seed", "7", logical_path]) == 0
        suite = json.loads((out / "s1.suite.json").read_text())
        assert suite["scenarios"], method
        assert all(s["method"] == method for s in suite["scenarios"])


def test_export_from_suite(tmp_path, capsys):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical_path = str(tmp_path / "s1.logical.json")
    assert main(["concretize", "--out", str(tmp_path), "--method", "boundary",
                 logical_path]) == 0
    out = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(out),
                 str(tmp_path / "s1.suite.json")] + EXPORT_ARGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["case_count"] > 0


def test_pipeline_end_to_end(tmp_path, capsys):
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path / "run"), "--method", "pairwise", "--seed", "42",
                 SCENARIO] + EXPORT_ARGS) == 0
    assert (tmp_path / "run" / "logical" / "s1.logical.json").exists()
    assert (tmp_path / "run" / "concrete" / "s1.suite.json").exists()
    manifest = json.loads(
        (tmp_path / "run" / "cases" / "s1" / "manifest.json").read_text())
    assert manifest["case_count"] > 0


def test_pipeline_infeasible_exit_code(tmp_path, capsys):
    doc = json.loads((DATA / "catalog.json").read_text())
    doc["entities"]["truck"][0]["range"] = [0.0, 10.0]
    doc["entities"]["car"][0]["range"] = [50.0, 60.0]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", str(catalog),
                 "--out", str(tmp_path / "run"), SCENARIO] + EXPORT_ARGS) == 4
    assert "INTERVAL_INFEASIBLE" in capsys.readouterr().out


def test_random_suites_differ_by_seed(tmp_path, capsys):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical_path = str(tmp_path / "s1.logical.json")
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["concretize", "--out", str(out), "--method", "random",
                     "--n", "5", "--seed", seed, logical_path]) == 0
        texts.append((out / "s1.suite.json").read_text())
    assert texts[0] != texts[1]


@pytest.mark.parametrize("text", ["{\"format\": \"concrete-suite/1\", ", '{"format": "concrete-suite/1"}'],
                         ids=["malformed-json", "missing-scenarios"])
def test_export_rejects_bad_suite(tmp_path, capsys, text):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    suite = tmp_path / "bad.suite.json"
    suite.write_text(text)
    assert main(["export", "--logical", str(tmp_path / "s1.logical.json"),
                 "--out", str(tmp_path / "cases"), str(suite)] + EXPORT_ARGS) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_boundary_ids_keep_scenario_id():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 2)], scenario_id="cut-pairwise-x")
    suite, _ = generate_suite(scenario, "boundary", k=2, n=1, seed=0)
    assert suite
    assert all(c.scenario_id.startswith("cut-pairwise-x-boundary-") for c in suite)
    assert all(c.method == "boundary" for c in suite)


def test_lower_continues_after_infeasible_file(tmp_path, capsys):
    doc = json.loads((DATA / "catalog.json").read_text())
    doc["entities"]["truck"][0]["range"] = [0.0, 10.0]
    doc["entities"]["car"][0]["range"] = [50.0, 60.0]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    infeasible = tmp_path / "a.scn"
    infeasible.write_text("scenario s1 / car c1 / truck t1 / c1 follows t1\n")
    feasible = tmp_path / "b.scn"
    feasible.write_text("scenario s2 / car c1 / truck t1 / t1 follows c1\n")
    out = tmp_path / "out"
    assert main(["lower", "--vocab", VOCAB, "--catalog", str(catalog), "--out", str(out),
                 str(infeasible), str(feasible)]) == 4
    assert "INTERVAL_INFEASIBLE" in capsys.readouterr().out
    assert not (out / "s1.logical.json").exists()
    assert (out / "s2.logical.json").exists()


README_PIPELINE = ["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, "--method", "pairwise",
                   "--seed", "42", SCENARIO] + EXPORT_ARGS


def test_pinned_worked_example_suite_bytes(tmp_path, capsys):
    assert main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    suite = (tmp_path / "concrete" / "s1.suite.json").read_bytes()
    assert hashlib.sha256(suite).hexdigest() == WORKED_SUITE_SHA256


def test_pipeline_parses_expressions_at_most_ten_times(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(text):
        calls.append(text)
        return original(text)

    original = expressions.parse_expression
    for name, module in list(sys.modules.items()):
        if name == "scenkit" or name.startswith("scenkit."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
    assert main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    assert 0 < len(calls) <= 10


@pytest.mark.parametrize("field, value", [
    ("assignments", []),
    ("assignments", {"c1.s0": "12.5"}),
    ("source_ref", "s1"),
    ("provenance", {"x": _deep(0)}),
    ("scenario_id", ["s1"]),
    ("method", 5),
    ("seed", "42"),
    ("seed", 1.5),
    ("provenance", {"default_uniform": 5}),
], ids=["assignments-list", "assignment-string", "source-ref-string", "deep-provenance",
        "scenario-id-list", "method-number", "seed-string", "seed-float",
        "default-uniform-number"])
def test_export_rejects_mistyped_scenario(tmp_path, capsys, field, value):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical_path = str(tmp_path / "s1.logical.json")
    assert main(["concretize", "--out", str(tmp_path), "--method", "boundary",
                 logical_path]) == 0
    document = json.loads((tmp_path / "s1.suite.json").read_text())
    document["scenarios"][0][field] = value
    suite = tmp_path / "bad.suite.json"
    suite.write_text(json.dumps(document))
    assert main(["export", "--logical", logical_path, "--out", str(tmp_path / "cases"),
                 str(suite)] + EXPORT_ARGS) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_concretize_rejects_mistyped_source_ref(tmp_path, capsys):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    document = json.loads((tmp_path / "s1.logical.json").read_text())
    document["source_ref"] = "s1"
    logical = tmp_path / "bad.logical.json"
    logical.write_text(json.dumps(document))
    assert main(["concretize", "--out", str(tmp_path / "out"), str(logical)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def _lowered_boundary_suite(tmp_path):
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG,
                 "--out", str(tmp_path), SCENARIO]) == 0
    logical_path = str(tmp_path / "s1.logical.json")
    assert main(["concretize", "--out", str(tmp_path), "--method", "boundary",
                 logical_path]) == 0
    return logical_path, str(tmp_path / "s1.suite.json")


CHECK = {"signal": "gap.c1.t1", "comparator": ">=", "bound": 10.0, "tolerance": 0.5}


@pytest.mark.parametrize("checks", [
    5, [{"signal": "gap.c1.t1"}], "gap",
    [dict(CHECK, bound=float("nan"))], [dict(CHECK, tolerance="1e999")],
    [dict(CHECK, comparator="~~")], [dict(CHECK, signal=5)],
], ids=["number", "record-without-fields", "string",
        "bound-nan", "tolerance-string", "comparator", "signal-number"])
def test_export_rejects_mistyped_expected(tmp_path, capsys, checks):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    document = json.loads((DATA / "expected.json").read_text())
    document["checks"] = checks
    expected = tmp_path / "bad.expected.json"
    expected.write_text(json.dumps(document))
    args = list(EXPORT_ARGS)
    args[args.index(EXPECTED)] = str(expected)
    out = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(out), suite] + args) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "cases.staging").exists()


BAD_TIMING = [["--dt", "nan"], ["--duration", "inf"], ["--dt", "0"], ["--dt=-inf"],
              ["--dt", "3", "--duration", "2"]]
TIMING_IDS = ["dt-nan", "duration-inf", "dt-zero", "dt-minus-inf", "dt-over-duration"]


@pytest.mark.parametrize("timing", BAD_TIMING, ids=TIMING_IDS)
def test_export_rejects_bad_timing_before_writing(tmp_path, capsys, timing):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    out = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(out), suite]
                + EXPORT_ARGS + timing) == 3
    assert "dt" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "cases.staging").exists()


@pytest.mark.parametrize("timing", BAD_TIMING, ids=TIMING_IDS)
def test_pipeline_rejects_bad_timing_before_writing(tmp_path, capsys, timing):
    out = tmp_path / "run"
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(out),
                 SCENARIO] + EXPORT_ARGS + timing) == 3
    assert "dt" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_reexport_into_the_same_out_leaves_only_listed_cases(tmp_path, capsys):
    out = tmp_path / "run"
    pipeline = ["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(out), SCENARIO]
    assert main(pipeline + ["--method", "pairwise"] + EXPORT_ARGS) == 0
    assert len(list((out / "cases" / "s1").iterdir())) > 4
    assert main(pipeline + ["--method", "random", "--n", "3"] + EXPORT_ARGS) == 0
    cases = out / "cases" / "s1"
    listed = json.loads((cases / "manifest.json").read_text())["cases"]
    assert sorted(p.name for p in cases.iterdir()) == sorted(
        [entry["file"] for entry in listed] + ["manifest.json"])
    assert len(listed) == 3


@pytest.mark.parametrize("command", ["pipeline", "lower"])
def test_findings_leave_no_output_directory(tmp_path, capsys, command):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario s9\nroad r1 is two-lane-motorway\n")
    out = tmp_path / "run"
    argv = [command, "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(out), str(bad)]
    assert main(argv + (EXPORT_ARGS if command == "pipeline" else [])) == 1
    assert "MISSING_REQUIRED_ATTRIBUTE" in capsys.readouterr().out
    assert not out.exists()


# Runs the CLI and prints how long main() took. The parent caps the child's
# address space, so a missing sample cap fails the test instead of
# exhausting the machine's memory.
TIMED_MAIN = """\
import sys, time
from scenkit.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def _run_capped(argv):
    import resource
    import subprocess

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", TIMED_MAIN] + argv, capture_output=True,
                          text=True, timeout=60, env=env, preexec_fn=cap_memory)


def test_export_and_pipeline_reject_too_many_samples(tmp_path, capsys):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    timing = ["--dt", "1e-9", "--duration", "10"]
    runs = {
        tmp_path / "cases": ["export", "--logical", logical_path, suite],
        tmp_path / "run": ["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, SCENARIO],
    }
    for out, argv in runs.items():
        completed = _run_capped(argv + ["--out", str(out)] + EXPORT_ARGS + timing)
        assert completed.returncode == 3, completed.stderr
        assert "samples per signal" in completed.stderr
        assert float(completed.stdout) < 1.0
        assert not out.exists() and not out.with_name(out.name + ".staging").exists()


CURVE_RADIUS = '"range": [\n        400.0,\n        5000.0\n      ]'


def _golden_logical(tmp_path, old, new):
    """The worked example's golden logical scenario with ``old`` replaced."""
    text = (DATA / "golden" / "s1.logical.json").read_text()
    assert text.count(old) == 1
    path = tmp_path / "s1.logical.json"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("bounds", ["400.0, 1e309", "NaN, 5000.0", "400.0, 1" + "0" * 400],
                         ids=["inf", "nan", "integer-beyond-float"])
@pytest.mark.parametrize("method", ["random", "boundary", "pairwise"])
def test_concretize_rejects_non_finite_range(tmp_path, capsys, bounds, method):
    logical_path = _golden_logical(tmp_path, CURVE_RADIUS, f'"range": [{bounds}]')
    out = tmp_path / "out"
    assert main(["concretize", "--method", method, "--out", str(out), logical_path]) == 1
    assert "NON_FINITE_RANGE" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e309", "-Infinity", "NaN"])
def test_export_rejects_non_finite_assignment(tmp_path, capsys, value):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    document = json.loads((tmp_path / "s1.suite.json").read_text())
    name, number = next(iter(document["scenarios"][0]["assignments"].items()))
    text = json.dumps(document)
    assert f'"{name}": {number!r}' in text
    bad = tmp_path / "bad.suite.json"
    bad.write_text(text.replace(f'"{name}": {number!r}', f'"{name}": {value}', 1))
    out = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(out), str(bad)]
                + EXPORT_ARGS) == 3
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lhs", [
    "(" * 3000 + "t1.s0" + ")" * 3000,
    "-" * 3000 + "t1.s0",
    "+".join(["t1.s0"] * 5000),
], ids=["parentheses", "unary-minus", "long-sum"])
def test_concretize_rejects_deep_expression(tmp_path, capsys, lhs):
    logical_path = _golden_logical(tmp_path, '"lhs": "t1.s0"', json.dumps({"lhs": lhs})[1:-1])
    out = tmp_path / "out"
    assert main(["concretize", "--method", "pairwise", "--out", str(out), logical_path]) == 3
    assert f"nested deeper than {expressions.MAX_DEPTH} levels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, value", [
    (("entities",), []),
    (("entities", "car"), 5),
    (("attributes", "geometry"), []),
    (("attributes", "geometry", "straight"), 5),
    (("attributes", "geometry", "straight", "override"), []),
    (("attributes", "geometry", "straight", "remove"), 5),
    (("relations", "follows", 0), 5),
    (("relations", "follows", 0, "expr"), 5),
    (("entities", "car", 0, "name"), 5),
], ids=["entities-list", "entity-records-number", "attribute-values-list",
        "attribute-record-number", "override-list", "remove-number", "relation-record-number",
        "expr-number", "template-name-number"])
def test_lower_rejects_malformed_catalog(tmp_path, capsys, path, value):
    document = json.loads((DATA / "catalog.json").read_text())
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(replaced(document, path, value)))
    out = tmp_path / "out"
    assert main(["lower", "--vocab", VOCAB, "--catalog", str(catalog), "--out", str(out),
                 SCENARIO]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _edited_golden(tmp_path, edit):
    """The worked example's golden logical scenario, edited as a document."""
    document = json.loads((DATA / "golden" / "s1.logical.json").read_text())
    edit(document)
    path = tmp_path / "s1.logical.json"
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["constraints"].append({
        "id": "c001", "kind": "correlation", "target": "c1.v0", "source": "t1.v0",
        "slope": 1.0, "intercept": 0.0, "tolerance": float("nan"), "provenance": {}}),
     "'tolerance' is not finite"),
    (lambda d: d["constraints"][0].update(lhs="t1.s0 - 1e999"), "'1e999' is not finite"),
    (lambda d: d["parameters"][0].update(kind="scalar-dynamic"), "bad kind 'scalar-dynamic'"),
    (lambda d: d["parameters"][0].update(name=5), "'name' must be a string"),
    (lambda d: d["source_ref"].update(x=_deep(0)), "nested too deeply to encode"),
    (lambda d: d["parameters"][0]["provenance"].update(x=_deep("p")),
     "nested too deeply to encode"),
    (lambda d: d["parameters"][2].update(range=["0", True]), "'range' is not a number"),
    (lambda d: d["parameters"][2].update(range=[400.0]), "range must be an array [lo, hi]"),
    (lambda d: d["parameters"][4]["distribution"].update(mean="3.5", stddev=True),
     "'mean' is not a number"),
    (lambda d: d["parameters"][4]["distribution"].update(stddev=True), "'stddev' is not a number"),
    (lambda d: d["parameters"][0]["provenance"].update(instance=5),
     "'instance' must be a string"),
    (lambda d: d["constraints"][0]["provenance"].update(instance=5),
     "'instance' must be a string"),
    (lambda d: d["source_ref"].update(hash=5), "'hash' must be a string"),
], ids=["correlation-tolerance-nan", "literal-1e999", "parameter-kind", "parameter-name-number",
        "deep-source-ref", "deep-provenance", "range-string-and-bool", "range-one-bound",
        "mean-string", "stddev-bool", "parameter-provenance-number",
        "constraint-provenance-number", "source-hash-number"])
def test_concretize_rejects_malformed_logical_records(tmp_path, capsys, edit, message):
    logical_path = _edited_golden(tmp_path, edit)
    out = tmp_path / "out"
    for method in ("pairwise", "random"):
        assert main(["concretize", "--method", method, "--out", str(out), logical_path]) == 3
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_samples_that_overflow_are_not_written(tmp_path, capsys):
    """A car whose position overflows to infinity at t = 2 has no JSON
    spelling: ``export`` and ``pipeline`` exit 3 and leave neither the
    destination nor its staging directory."""
    def widen(parameters):  # the car's s0 and v0, in a logical file or a catalog
        for parameter in parameters:
            if parameter["name"] in ("c1.s0", "c1.v0", "s0", "v0"):
                parameter["range"] = [0.0, 1.5e308]

    def unconstrained_wide_car(document):
        widen(document["parameters"])
        document["constraints"] = []

    logical_path = _edited_golden(tmp_path, unconstrained_wide_car)
    assert main(["concretize", "--method", "boundary", "--out", str(tmp_path),
                 logical_path]) == 0
    cases = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(cases),
                 str(tmp_path / "s1.suite.json")] + EXPORT_ARGS) == 3
    assert "not finite" in capsys.readouterr().err
    assert not cases.exists() and not (tmp_path / "cases.staging").exists()

    catalog = json.loads((DATA / "catalog.json").read_text())
    widen(catalog["entities"]["car"])
    (tmp_path / "catalog.json").write_text(json.dumps(catalog))
    out = tmp_path / "run"
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", str(tmp_path / "catalog.json"),
                 "--out", str(out), SCENARIO] + EXPORT_ARGS) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_deeply_nested_json_is_a_syntax_error(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    out = tmp_path / "out"
    assert main(["concretize", "--out", str(out), str(nested)]) == 3
    assert "nested too deeply" in capsys.readouterr().err
    logical_path, _ = _lowered_boundary_suite(tmp_path)
    assert main(["export", "--logical", logical_path, "--out", str(out), str(nested)]
                + EXPORT_ARGS) == 3
    assert "nested too deeply" in capsys.readouterr().err
    assert not out.exists()


def test_export_with_another_scenarios_logical_file(tmp_path, capsys):
    _, suite = _lowered_boundary_suite(tmp_path)
    other = tmp_path / "other.scn"
    other.write_text("scenario s2 / road r1 is two-lane-motorway / r1 geometry straight\n")
    assert main(["lower", "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(tmp_path),
                 str(other)]) == 0
    out = tmp_path / "cases"
    assert main(["export", "--logical", str(tmp_path / "s2.logical.json"), "--out", str(out),
                 suite] + EXPORT_ARGS) == 3
    assert "'s1', not 's2'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario_id", ["../escaped", 5, "", "a/b", ".hidden"],
                         ids=["parent-path", "number", "empty", "sub-path", "hidden"])
def test_unsafe_scenario_id_writes_nothing(tmp_path, capsys, scenario_id):
    logical_path = _edited_golden(tmp_path, lambda d: d.update(scenario_id=scenario_id))
    out = tmp_path / "run" / "out"
    assert main(["concretize", "--method", "boundary", "--out", str(out), logical_path]) == 3
    assert "bad scenario id" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s1.logical.json"]


# the vocabulary's terms[3] is the relation "follows", terms[4] the attribute "layout"
@pytest.mark.parametrize("path, value, message", [
    (("terms", 3, "applies_to"), 5, "'applies_to' must be an array of strings"),
    (("terms", 3, "applies_to"), [5], "'applies_to' must be an array of strings"),
    (("terms", 4, "allowed_values"), [5], "'allowed_values' must be an array of strings"),
    (("exclusions",), 5, "'exclusions' must be an array"),
    (("exclusions", 0, "first", "args"), ["X", 5], "'args' must be an array of strings"),
    (("terms", 3, "arity"), True, "arity must be an integer"),
    (("terms", 4, "required"), "no", "'required' must be a boolean"),
    (("terms", 4, "description"), 5, "'description' must be a string"),
], ids=["applies-to-number", "applies-to-numbers", "allowed-values-numbers",
        "exclusions-number", "exclusion-args-numbers", "arity-bool", "required-string",
        "description-number"])
def test_validate_rejects_malformed_vocabulary(tmp_path, capsys, path, value, message):
    document = json.loads((DATA / "vocabulary.json").read_text())
    vocabulary = tmp_path / "vocabulary.json"
    vocabulary.write_text(json.dumps(replaced(document, path, value)))
    assert main(["validate", "--vocab", str(vocabulary), SCENARIO]) == 3
    assert message in capsys.readouterr().err


def test_export_rejects_another_revision_of_the_logical_file(tmp_path, capsys):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    document = json.loads((tmp_path / "s1.logical.json").read_text())
    (speed,) = [p for p in document["parameters"] if p["name"] == "c1.v0"]
    speed["range"] = [1.0, 2.0]
    narrowed = tmp_path / "narrowed.logical.json"
    narrowed.write_text(json.dumps(document))
    out = tmp_path / "cases"
    assert main(["export", "--logical", str(narrowed), "--out", str(out), suite]
                + EXPORT_ARGS) == 3
    assert "different revision" in capsys.readouterr().err
    assert not out.exists()


def test_road_only_scenario_has_no_input_data(tmp_path, capsys):
    scenario = tmp_path / "road.scn"
    scenario.write_text("scenario s2 / road r1 is two-lane-motorway / r1 geometry straight\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(out),
                 str(scenario)] + EXPORT_ARGS) == 3
    assert "mandatory test case field is empty: input_data" in capsys.readouterr().err
    assert not (out / "cases").exists()


def test_cases_carry_each_assignment_once(tmp_path, capsys):
    assert main(README_PIPELINE + ["--out", str(tmp_path)]) == 0
    suite = json.loads((tmp_path / "concrete" / "s1.suite.json").read_text())
    by_id = {s["scenario_id"]: s["assignments"] for s in suite["scenarios"]}
    cases = sorted((tmp_path / "cases" / "s1").glob("tc-*.json"))
    assert len(cases) == len(by_id)
    for path in cases:
        case = json.loads(path.read_text())
        assert case["format"] == "testcase/2"
        assignments = by_id[case["source_ref"]["scenario_id"]]
        assert [t["parameter"] for t in case["input_data"]] == ["c1.s", "c1.v", "t1.s", "t1.v"]
        assert case["environmental_conditions"] == {
            name: value for name, value in assignments.items()
            if name not in ("c1.s0", "c1.v0", "t1.s0", "t1.v0")}


def test_export_rejects_a_suite_listing_a_scenario_twice(tmp_path, capsys):
    logical_path, suite = _lowered_boundary_suite(tmp_path)
    document = json.loads(Path(suite).read_text())
    document["scenarios"].append(document["scenarios"][0])
    twice = tmp_path / "twice.suite.json"
    twice.write_text(json.dumps(document))
    out = tmp_path / "cases"
    assert main(["export", "--logical", logical_path, "--out", str(out), str(twice)]
                + EXPORT_ARGS) == 3
    assert "listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_export_error_leaves_no_half_written_scenario(tmp_path, capsys):
    scenario = tmp_path / "road.scn"
    scenario.write_text("scenario s2 / road r1 is two-lane-motorway / r1 geometry straight\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--vocab", VOCAB, "--catalog", CATALOG, "--out", str(out),
                 str(scenario)] + EXPORT_ARGS) == 3
    assert "input_data" in capsys.readouterr().err
    assert not out.exists()
