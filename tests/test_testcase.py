import json
import math

import pytest

from scenkit.concretize import ConcreteScenario
from scenkit.errors import (
    BadTiming,
    DuplicateId,
    IncompleteField,
    MissingKinematicInputs,
    SchemaViolation,
    SourceMismatch,
    TraceMismatch,
)
from scenkit.logical import LogicalScenario, Parameter
from scenkit import testcase as tcmod
from scenkit.testcase import (
    ExpectedBehavior,
    assemble_test_case,
    deserialize_testcase,
    export_suite,
    load_expected,
    recover_assignments,
    serialize_testcase,
    synthesize_traces,
)

from conftest import DATA, source_ref_for

META = {
    "work_product_ref": "req-keep-distance-001",
    "preconditions": "dry road, daylight",
    "configuration": "default sensor set",
}

EXPECTED = ExpectedBehavior(description="keeps a safe gap")


def kinematic_scenario():
    return LogicalScenario(
        scenario_id="kin",
        parameters=(
            Parameter("c1.s0", "m", 0.0, 200.0, kind="scalar-initial"),
            Parameter("c1.v0", "m/s", 0.0, 40.0, kind="scalar-initial"),
            Parameter("r1.lane_width", "m", 2.5, 4.25),
        ),
    )


def concrete_for(scenario, assignments):
    return ConcreteScenario(scenario_id=f"{scenario.scenario_id}-random-0000",
                            source_ref=source_ref_for(scenario),
                            assignments=assignments, method="random", seed=0)


def test_synthesize_constant_velocity():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = {t.parameter: t for t in synthesize_traces(scenario, concrete, 2.0, 1.0)}
    assert traces["c1.s"].samples == (0.0, 25.0, 50.0)
    assert traces["c1.v"].samples == (25.0, 25.0, 25.0)
    assert traces["r1.lane_width"].samples == (3.5, 3.5, 3.5)
    assert traces["c1.s"].unit == "m" and traces["c1.v"].unit == "m/s"


def test_synthesize_sample_count():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 1.0, "c1.v0": 2.0, "r1.lane_width": 3.0})
    traces = synthesize_traces(scenario, concrete, 1.0, 0.25)
    assert all(len(t.samples) == 5 for t in traces)


def test_synthesize_bad_timing():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 1.0, "r1.lane_width": 3.0})
    for duration, dt in ((0.0, 0.1), (1.0, 0.0), (1.0, 2.0), (1.0, -0.1)):
        with pytest.raises(BadTiming):
            synthesize_traces(scenario, concrete, duration, dt)


def test_synthesize_requires_both_kinematic_inputs():
    scenario = LogicalScenario(
        scenario_id="kin",
        parameters=(Parameter("c1.s0", "m", 0.0, 10.0, kind="scalar-initial"),))
    concrete = concrete_for(scenario, {"c1.s0": 1.0})
    with pytest.raises(MissingKinematicInputs):
        synthesize_traces(scenario, concrete, 1.0, 0.5)


def test_synthesize_source_checked():
    scenario = kinematic_scenario()
    concrete = ConcreteScenario(scenario_id="x", source_ref={"scenario_id": "other"},
                                assignments={})
    with pytest.raises(SourceMismatch):
        synthesize_traces(scenario, concrete, 1.0, 0.5)


def test_recover_assignments_inverts_synthesis():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 7.0, "c1.v0": 3.0, "r1.lane_width": 4.0})
    traces = synthesize_traces(scenario, concrete, 2.0, 0.5)
    assert recover_assignments(concrete, traces) == concrete.assignments


def test_assemble_has_six_fields():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = synthesize_traces(scenario, concrete, 2.0, 1.0)
    case = assemble_test_case(concrete, traces, META, EXPECTED)
    assert case.unique_id.startswith("tc-")
    assert case.work_product_ref == META["work_product_ref"]
    assert case.preconditions and case.configuration
    assert case.environmental_conditions["r1.lane_width"] == 3.5
    assert len(case.input_data) == 3
    assert case.expected.description


def test_assemble_id_is_content_derived():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = synthesize_traces(scenario, concrete, 2.0, 1.0)
    first = assemble_test_case(concrete, traces, META, EXPECTED)
    second = assemble_test_case(concrete, traces, META, EXPECTED)
    assert first.unique_id == second.unique_id
    other = assemble_test_case(concrete, traces, dict(META, configuration="alt"), EXPECTED)
    assert other.unique_id != first.unique_id


def test_assemble_rejects_empty_fields():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = synthesize_traces(scenario, concrete, 2.0, 1.0)
    for missing in ("work_product_ref", "preconditions", "configuration"):
        with pytest.raises(IncompleteField) as excinfo:
            assemble_test_case(concrete, traces, dict(META, **{missing: ""}), EXPECTED)
        assert excinfo.value.field == missing
    with pytest.raises(IncompleteField):
        assemble_test_case(concrete, traces, META, ExpectedBehavior(description=""))
    with pytest.raises(IncompleteField):
        assemble_test_case(concrete, [], META, EXPECTED)


def test_assemble_detects_trace_mismatch():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = synthesize_traces(scenario, concrete, 2.0, 1.0)
    tampered = concrete_for(scenario, {"c1.s0": 5.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    with pytest.raises(TraceMismatch):
        assemble_test_case(tampered, traces, META, EXPECTED)


def test_expected_behavior_loading():
    expected = load_expected((DATA / "expected.json").read_text())
    assert expected.checks[0].signal == "gap.c1.t1"
    assert expected.checks[0].tolerance == 0.5
    with pytest.raises(SchemaViolation):
        load_expected('{"checks": []}')
    with pytest.raises(SchemaViolation):
        load_expected('{"description": "x", "checks": [{"signal": "s"}]}')


def build_case(position=0.0):
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": position, "c1.v0": 25.0,
                                       "r1.lane_width": 3.5})
    traces = synthesize_traces(scenario, concrete, 2.0, 1.0)
    return assemble_test_case(concrete, traces, META, EXPECTED)


def test_serialize_round_trip():
    case = build_case()
    text = serialize_testcase(case)
    again = deserialize_testcase(text)
    assert again == case
    assert serialize_testcase(again) == text


def test_to_dict_field_names():
    document = tcmod.testcase_to_dict(build_case())
    assert document["format"] == "testcase/1"
    for key in ("unique_id", "work_product_ref", "preconditions", "environmental_conditions",
                "input_data", "expected_behavior", "source_ref"):
        assert key in document
    assert tcmod.testcase_from_dict(document) == build_case()


def test_export_suite(tmp_path):
    cases = [build_case(float(i)) for i in range(3)]
    manifest = export_suite(cases, tmp_path / "out")
    assert manifest["case_count"] == 3
    assert sorted(e["unique_id"] for e in manifest["cases"]) == [e["unique_id"]
                                                                for e in manifest["cases"]]
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "manifest.json" in files
    assert len(files) == 4
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert written == manifest
    assert not (tmp_path / "out.staging").exists()


def test_export_is_reproducible(tmp_path):
    cases = [build_case(float(i)) for i in range(2)]
    export_suite(cases, tmp_path / "a")
    export_suite(cases, tmp_path / "b")
    for name in ("manifest.json", f"{cases[0].unique_id}.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_rejects_duplicate_ids(tmp_path):
    case = build_case()
    with pytest.raises(DuplicateId):
        export_suite([case, case], tmp_path / "out")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_export_empty_suite(tmp_path):
    manifest = export_suite([], tmp_path / "out")
    assert manifest["case_count"] == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["cases"] == []


@pytest.mark.parametrize("field, value", [
    ("preconditions", "nominal"),
    ("environmental_conditions", []),
    ("environmental_conditions", {"c1.s0": "30"}),
    ("input_data", [["c1.s", "m"]]),
    ("source_ref", "s1"),
])
def test_from_dict_rejects_mistyped_fields(field, value):
    document = tcmod.testcase_to_dict(build_case())
    document[field] = value
    with pytest.raises(SchemaViolation):
        tcmod.testcase_from_dict(document)


@pytest.mark.parametrize("checks", [5, None, {"signal": "s"}, ["s"]],
                         ids=["number", "null", "object", "string-record"])
def test_expected_rejects_mistyped_checks(checks):
    with pytest.raises(SchemaViolation):
        tcmod.expected_from_dict({"description": "x", "checks": checks})


@pytest.mark.parametrize("dt, duration", [
    (math.nan, 1.0), (0.1, math.nan), (math.inf, math.inf), (0.1, math.inf), (-math.inf, 1.0),
])
def test_check_timing_rejects(dt, duration):
    with pytest.raises(BadTiming):
        tcmod.check_timing(dt, duration)


def test_check_timing_accepts_dt_equal_to_duration():
    tcmod.check_timing(1.0, 1.0)


def test_export_streams_a_generator(tmp_path):
    cases = [build_case(float(i)) for i in range(3)]
    listed = export_suite(cases, tmp_path / "a")
    streamed = export_suite((case for case in cases), tmp_path / "b")
    assert streamed == listed
    for path in (tmp_path / "a").iterdir():
        assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()


def _failing_stream(kind):
    """Two good cases, then a repeated id or an exception."""
    first, second = build_case(1.0), build_case(2.0)
    yield first
    yield second
    if kind == "duplicate-id":
        yield first
    else:
        raise TraceMismatch("generator failed mid-stream")


FAILURES = {"duplicate-id": DuplicateId, "generator-raises": TraceMismatch}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_stream_leaves_no_trace(tmp_path, kind):
    with pytest.raises(FAILURES[kind]):
        export_suite(_failing_stream(kind), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_stream_removes_created_parents(tmp_path, kind):
    with pytest.raises(FAILURES[kind]):
        export_suite(_failing_stream(kind), tmp_path / "a" / "b" / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_stream_keeps_existing_destination(tmp_path, kind):
    destination = tmp_path / "out"
    export_suite([build_case(float(i)) for i in range(3)], destination)
    before = {p.name: p.read_bytes() for p in destination.iterdir()}
    with pytest.raises(FAILURES[kind]):
        export_suite(_failing_stream(kind), destination)
    assert {p.name: p.read_bytes() for p in destination.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_export_onto_a_file_removes_staging(tmp_path):
    (tmp_path / "out").write_text("not a directory")
    with pytest.raises(OSError):
        export_suite([build_case()], tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
