import hashlib
import json
import os
import sys

import pytest

from scenkit import expressions
from scenkit.cli import generate_suite, main
from scenkit.logical import deserialize_logical

from conftest import DATA, make_logical

ROOT = DATA.parent.parent

VOCAB = str(DATA / "vocabulary.json")
CATALOG = str(DATA / "catalog.json")
SCENARIO = str(DATA / "fig_car_follows_truck.scn")
EXPECTED = str(DATA / "expected.json")

WORKED_SUITE_SHA256 = "6c5bc47c22555e99c52e3104f05585f2bfa2fa2b8ecbd13f49bdb1974657a1a9"

EXPORT_ARGS = ["--expected", EXPECTED, "--work-product", "req-keep-distance-001",
               "--duration", "2", "--dt", "1"]


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
], ids=["assignments-list", "assignment-string", "source-ref-string"])
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


@pytest.mark.parametrize("checks", [5, [{"signal": "gap.c1.t1"}], "gap"],
                         ids=["number", "record-without-fields", "string"])
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
