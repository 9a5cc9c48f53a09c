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
    Export,
    assemble_test_case,
    deserialize_testcase,
    export_suite,
    load_expected,
    serialize_testcase,
    synthesize_traces,
)

from conftest import DATA, replaced, source_ref_for

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


def compiled(scenario, duration, dt, meta=META, expected=EXPECTED):
    """The compiled form of an export of ``scenario``, with no suite."""
    return Export(scenario, [], duration, dt, meta, expected)


def rendered(cases):
    """The ``(unique_id, text)`` pair of each test case, its text from
    ``serialize_testcase``, the byte reference of every case file."""
    return ((case.unique_id, serialize_testcase(case)) for case in cases)


def concrete_for(scenario, assignments):
    return ConcreteScenario(scenario_id=f"{scenario.scenario_id}-random-0000",
                            source_ref=source_ref_for(scenario),
                            assignments=assignments, method="random", seed=0)


def test_synthesize_constant_velocity():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    traces = {t.parameter: t for t in synthesize_traces(compiled(scenario, 2.0, 1.0), concrete)}
    assert traces["c1.s"].samples == (0.0, 25.0, 50.0)
    assert traces["c1.v"].samples == (25.0, 25.0, 25.0)
    assert set(traces) == {"c1.s", "c1.v"}  # a static value is no signal
    assert traces["c1.s"].unit == "m" and traces["c1.v"].unit == "m/s"


def test_synthesize_sample_count():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 1.0, "c1.v0": 2.0, "r1.lane_width": 3.0})
    traces = synthesize_traces(compiled(scenario, 1.0, 0.25), concrete)
    assert all(len(t.samples) == 5 for t in traces)


def test_synthesize_bad_timing():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 1.0, "r1.lane_width": 3.0})
    for duration, dt in ((0.0, 0.1), (1.0, 0.0), (1.0, 2.0), (1.0, -0.1)):
        with pytest.raises(BadTiming):
            synthesize_traces(compiled(scenario, duration, dt), concrete)


def test_synthesize_requires_both_kinematic_inputs():
    scenario = LogicalScenario(
        scenario_id="kin",
        parameters=(Parameter("c1.s0", "m", 0.0, 10.0, kind="scalar-initial"),))
    concrete = concrete_for(scenario, {"c1.s0": 1.0})
    with pytest.raises(MissingKinematicInputs):
        synthesize_traces(compiled(scenario, 1.0, 0.5), concrete)


def test_synthesize_source_checked():
    scenario = kinematic_scenario()
    concrete = ConcreteScenario(scenario_id="x", source_ref={"scenario_id": "other"},
                                assignments={})
    with pytest.raises(SourceMismatch):
        synthesize_traces(compiled(scenario, 1.0, 0.5), concrete)


def test_synthesize_rejects_a_stale_revision():
    scenario = kinematic_scenario()
    concrete = ConcreteScenario(scenario_id="x", source_ref={"scenario_id": "kin",
                                                             "hash": "0" * 64},
                                assignments={"c1.s0": 0.0, "c1.v0": 1.0, "r1.lane_width": 3.0})
    with pytest.raises(SourceMismatch, match="different revision"):
        synthesize_traces(compiled(scenario, 1.0, 0.5), concrete)


@pytest.mark.parametrize("missing", ["c1.s0", "c1.v0"])
def test_synthesize_requires_kinematic_assignments(missing):
    scenario = kinematic_scenario()
    assignments = {"c1.s0": 0.0, "c1.v0": 1.0, "r1.lane_width": 3.0}
    del assignments[missing]
    with pytest.raises(MissingKinematicInputs):
        synthesize_traces(compiled(scenario, 1.0, 0.5), concrete_for(scenario, assignments))


def test_static_scenario_has_no_input_data():
    scenario = LogicalScenario(scenario_id="road", parameters=(
        Parameter("r1.lane_width", "m", 2.5, 4.25),
        Parameter("r1.curve_radius", "m", 400.0, 5000.0)))
    concrete = concrete_for(scenario, {"r1.lane_width": 3.0, "r1.curve_radius": 900.0})
    export = compiled(scenario, 1.0, 0.5)
    assert synthesize_traces(export, concrete) == []
    with pytest.raises(IncompleteField) as excinfo:
        assemble_test_case(export, concrete, [])
    assert excinfo.value.field == "input_data"


def test_other_initial_values_are_environmental_conditions():
    scenario = LogicalScenario(scenario_id="kin", parameters=kinematic_scenario().parameters + (
        Parameter("c1.a0", "m/s^2", -3.0, 3.0, kind="scalar-initial"),))
    assignments = {"c1.s0": 1.0, "c1.v0": 2.0, "r1.lane_width": 3.0, "c1.a0": -1.5}
    concrete = concrete_for(scenario, assignments)
    export = compiled(scenario, 1.0, 0.5)
    traces = synthesize_traces(export, concrete)
    assert [t.parameter for t in traces] == ["c1.s", "c1.v"]
    case = assemble_test_case(export, concrete, traces)
    assert case.environmental_conditions == {"r1.lane_width": 3.0, "c1.a0": -1.5}


def test_each_signal_starts_at_its_source_assignment():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 7.0, "c1.v0": 3.0, "r1.lane_width": 4.0})
    export = compiled(scenario, 2.0, 0.5)
    assert export.sources == {"c1.s": "c1.s0", "c1.v": "c1.v0"}
    for trace in synthesize_traces(export, concrete):
        assert trace.samples[0] == concrete.assignments[export.sources[trace.parameter]]


def test_export_rejects_missing_v0_before_rendering_a_case():
    scenario = LogicalScenario(scenario_id="kin", parameters=(
        Parameter("c1.s0", "m", 0.0, 10.0, kind="scalar-initial"),
        Parameter("r1.lane_width", "m", 2.5, 4.25)))
    suite = [concrete_for(scenario, {"c1.s0": 1.0, "r1.lane_width": 3.0})]
    with pytest.raises(MissingKinematicInputs, match="'c1' needs both s0 and v0"):
        Export(scenario, suite, 2.0, 1.0, META, EXPECTED)


def test_assemble_has_six_fields():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    export = compiled(scenario, 2.0, 1.0)
    case = assemble_test_case(export, concrete, synthesize_traces(export, concrete))
    assert case.unique_id.startswith("tc-")
    assert case.work_product_ref == META["work_product_ref"]
    assert case.preconditions and case.configuration
    assert case.environmental_conditions == {"r1.lane_width": 3.5}
    assert [t.parameter for t in case.input_data] == ["c1.s", "c1.v"]
    assert case.expected.description


def test_assemble_id_is_content_derived():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    export = compiled(scenario, 2.0, 1.0)
    traces = synthesize_traces(export, concrete)
    first = assemble_test_case(export, concrete, traces)
    second = assemble_test_case(export, concrete, traces)
    assert first.unique_id == second.unique_id
    other = assemble_test_case(compiled(scenario, 2.0, 1.0, dict(META, configuration="alt")),
                               concrete, traces)
    assert other.unique_id != first.unique_id


def test_assemble_rejects_empty_fields():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    for missing in ("work_product_ref", "preconditions", "configuration"):
        with pytest.raises(IncompleteField) as excinfo:
            compiled(scenario, 2.0, 1.0, dict(META, **{missing: ""}))
        assert excinfo.value.field == missing
    with pytest.raises(IncompleteField):
        compiled(scenario, 2.0, 1.0, META, ExpectedBehavior(description=""))
    with pytest.raises(IncompleteField):
        assemble_test_case(compiled(scenario, 2.0, 1.0), concrete, [])


def test_assemble_detects_trace_mismatch():
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": 0.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    export = compiled(scenario, 2.0, 1.0)
    traces = synthesize_traces(export, concrete)
    tampered = concrete_for(scenario, {"c1.s0": 5.0, "c1.v0": 25.0, "r1.lane_width": 3.5})
    with pytest.raises(TraceMismatch):
        assemble_test_case(export, tampered, traces)


def test_expected_behavior_loading():
    expected = load_expected((DATA / "expected.json").read_text())
    assert expected.checks[0].signal == "gap.c1.t1"
    assert expected.checks[0].tolerance == 0.5
    with pytest.raises(SchemaViolation):
        load_expected('{"checks": []}')
    with pytest.raises(SchemaViolation):
        load_expected('{"description": "x", "checks": [{"signal": "s"}]}')
    with pytest.raises(SchemaViolation, match="'description' must be a string"):
        load_expected('{"description": 5}')


def build_case(position=0.0):
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": position, "c1.v0": 25.0,
                                       "r1.lane_width": 3.5})
    return compiled(scenario, 2.0, 1.0).case(concrete)


def test_serialize_round_trip():
    case = build_case()
    text = serialize_testcase(case)
    again = deserialize_testcase(text)
    assert again == case
    assert serialize_testcase(again) == text


def test_to_dict_field_names():
    document = tcmod.testcase_to_dict(build_case())
    assert document["format"] == "testcase/2"
    for key in ("unique_id", "work_product_ref", "preconditions", "environmental_conditions",
                "input_data", "expected_behavior", "source_ref"):
        assert key in document
    assert tcmod.testcase_from_dict(document) == build_case()


def test_export_suite(tmp_path):
    cases = [build_case(float(i)) for i in range(3)]
    manifest = export_suite(rendered(cases), tmp_path / "out")
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
    export_suite(rendered(cases), tmp_path / "a")
    export_suite(rendered(cases), tmp_path / "b")
    for name in ("manifest.json", f"{cases[0].unique_id}.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_rejects_duplicate_ids(tmp_path):
    case = build_case()
    with pytest.raises(DuplicateId):
        export_suite(rendered([case, case]), tmp_path / "out")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_export_renders_repeated_traces_once_and_tells_signed_zeros_apart(tmp_path):
    """Each file equals ``serialize_testcase`` of its case. With ``v0 = -0.0``
    the position samples are ``s0 + -0.0``, so ``s0 = 0.0`` and ``s0 = -0.0``
    write ``0.0`` and ``-0.0``: rendered traces are keyed on float bits."""
    scenario = kinematic_scenario()
    rows = [(0.0, -0.0, 3.0), (-0.0, -0.0, 3.0), (0.0, -0.0, 3.5), (-0.0, -0.0, 3.5),
            (5.0, 2.0, 3.0), (5.0, 2.0, 4.0), (7.0, 2.0, 4.0)]
    suite = [concrete_for(scenario, {"c1.s0": s0, "c1.v0": v0, "r1.lane_width": width})
             ._replace(scenario_id=f"kin-{n}") for n, (s0, v0, width) in enumerate(rows)]
    export = Export(scenario, suite, 2.0, 1.0, META, EXPECTED)
    # positions (0.0, -0.0), (-0.0, -0.0) and (5.0, 2.0); speeds -0.0 and 2.0
    assert len(export.repeats) == 5
    manifest = export_suite(map(export.render, suite), tmp_path / "out")
    assert export.repeats == {}  # each text is dropped after its last use
    files = {}
    for concrete in suite:
        case = compiled(scenario, 2.0, 1.0).case(concrete)
        text = (tmp_path / "out" / f"{case.unique_id}.json").read_text(encoding="utf-8")
        assert text == serialize_testcase(case)
        files[concrete.scenario_id] = text
    assert manifest["case_count"] == len(rows)
    for n in range(4):  # rows 0 and 2 start at 0.0, rows 1 and 3 at -0.0
        assert f'"samples": [\n        {("0.0", "-0.0")[n % 2]},' in files[f"kin-{n}"]
    assert Export(scenario, suite[1:5:3], 2.0, 1.0, META, EXPECTED).repeats == {}


def test_export_empty_suite(tmp_path):
    manifest = export_suite(rendered([]), tmp_path / "out")
    assert manifest["case_count"] == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["cases"] == []


@pytest.mark.parametrize("field, value", [
    ("preconditions", "nominal"),
    ("environmental_conditions", []),
    ("environmental_conditions", {"c1.s0": "30"}),
    ("input_data", [["c1.s", "m"]]),
    ("source_ref", "s1"),
    pytest.param(("input_data", 0, "dt"), "1", id="dt-string"),
    pytest.param(("input_data", 0, "dt"), True, id="dt-bool"),
    pytest.param(("input_data", 0, "dt"), math.nan, id="dt-nan"),
    pytest.param(("input_data", 0, "samples", 1), "7", id="sample-string"),
    pytest.param(("input_data", 0, "samples", 1), math.nan, id="sample-nan"),
    pytest.param(("input_data", 0, "samples", 1), 10**400, id="sample-beyond-float"),
    pytest.param(("input_data", 0, "samples"), "0.0", id="samples-string"),
    pytest.param(("input_data", 0, "parameter"), 5, id="parameter-number"),
    pytest.param(("input_data", 0, "unit"), None, id="unit-null"),
    pytest.param(("unique_id",), 5, id="unique-id-number"),
    pytest.param(("work_product_ref",), ["req"], id="work-product-ref-list"),
    pytest.param(("preconditions", "text"), 5, id="preconditions-text-number"),
    pytest.param(("preconditions", "configuration"), None, id="configuration-null"),
    pytest.param(("preconditions",), {"text": "nominal"}, id="configuration-missing"),
    pytest.param(("expected_behavior", "description"), 5, id="description-number"),
])
def test_from_dict_rejects_mistyped_fields(field, value):
    document = tcmod.testcase_to_dict(build_case())
    document = replaced(document, field if isinstance(field, tuple) else (field,), value)
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
    listed = export_suite(list(rendered(cases)), tmp_path / "a")
    streamed = export_suite(rendered(case for case in cases), tmp_path / "b")
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
        export_suite(rendered(_failing_stream(kind)), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_stream_removes_created_parents(tmp_path, kind):
    with pytest.raises(FAILURES[kind]):
        export_suite(rendered(_failing_stream(kind)), tmp_path / "a" / "b" / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_stream_keeps_existing_destination(tmp_path, kind):
    destination = tmp_path / "out"
    export_suite(rendered([build_case(float(i)) for i in range(3)]), destination)
    before = {p.name: p.read_bytes() for p in destination.iterdir()}
    with pytest.raises(FAILURES[kind]):
        export_suite(rendered(_failing_stream(kind)), destination)
    assert {p.name: p.read_bytes() for p in destination.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_export_onto_a_file_removes_staging(tmp_path):
    (tmp_path / "out").write_text("not a directory")
    with pytest.raises(OSError):
        export_suite(rendered([build_case()]), tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _leave_staging(tmp_path):
    """What an export killed after staging a file leaves behind."""
    (tmp_path / "out.staging").mkdir()
    (tmp_path / "out.staging" / "old.json").write_text("{}")


def test_leftover_staging_is_not_carried_into_a_new_destination(tmp_path):
    _leave_staging(tmp_path)
    case = build_case()
    export_suite(rendered([case]), tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        [f"{case.unique_id}.json", "manifest.json"])


def test_leftover_staging_does_not_fail_a_reexport(tmp_path):
    old, new = build_case(0.0), build_case(1.0)
    export_suite(rendered([old]), tmp_path / "out")
    _leave_staging(tmp_path)
    export_suite(rendered([new]), tmp_path / "out")  # deletes the file only the old manifest lists
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        [f"{new.unique_id}.json", "manifest.json"])


def test_check_timing_caps_samples_per_signal():
    limit = tcmod.MAX_SAMPLES
    tcmod.check_timing(1.0, limit - 1.0)  # exactly MAX_SAMPLES samples
    for dt, duration in ((1.0, float(limit)), (1e-9, 10.0), (5e-324, 10.0)):
        with pytest.raises(BadTiming):
            tcmod.check_timing(dt, duration)


def long_case(position):
    """About 0.7 MB of case file: three signals of 15,001 samples each."""
    scenario = kinematic_scenario()
    concrete = concrete_for(scenario, {"c1.s0": position, "c1.v0": 25.0,
                                       "r1.lane_width": 3.5})
    return compiled(scenario, 1500.0, 0.1).case(concrete)


@pytest.fixture
def writers(monkeypatch):
    """Every writer process an export starts."""
    import subprocess

    started = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", record)
    return started


def test_large_export_through_the_writer_is_byte_identical(tmp_path, monkeypatch, writers):
    cases = [long_case(float(i)) for i in range(4)]
    handed_off = export_suite(rendered(cases), tmp_path / "writer")
    assert [writer.returncode for writer in writers] == [0]
    monkeypatch.setattr(tcmod, "HANDOFF_BYTES", math.inf)
    in_process = export_suite(rendered(cases), tmp_path / "in-process")
    assert len(writers) == 1
    assert handed_off == in_process
    files = {p.name: p.read_bytes() for p in (tmp_path / "writer").iterdir()}
    assert len(files) == 5
    assert files == {p.name: p.read_bytes() for p in (tmp_path / "in-process").iterdir()}
    assert sorted(tmp_path.iterdir()) == [tmp_path / "in-process", tmp_path / "writer"]


@pytest.mark.parametrize("source", [
    "import sys; sys.exit(1)",
    "import sys; sys.stdin.buffer.read(); sys.exit(1)",
], ids=["exits-at-once", "exits-after-reading"])
def test_failed_writer_raises_and_leaves_no_trace(tmp_path, monkeypatch, writers, source):
    monkeypatch.setattr(tcmod, "_WRITER_SOURCE", source)
    with pytest.raises(OSError):
        export_suite(rendered([long_case(float(i)) for i in range(4)]),
                     tmp_path / "a" / "b" / "out")
    assert [writer.returncode for writer in writers] == [1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [TraceMismatch, KeyboardInterrupt])
def test_exception_after_the_handoff_reaps_the_writer(tmp_path, writers, error):
    def stream():
        for i in range(3):
            yield long_case(float(i))
        raise error("generator failed after the hand-off")

    with pytest.raises(error):
        export_suite(rendered(stream()), tmp_path / "a" / "out")
    assert len(writers) == 1 and writers[0].returncode is not None
    assert list(tmp_path.iterdir()) == []


def test_small_export_starts_no_process(tmp_path, monkeypatch):
    import subprocess

    def refuse(*args, **kwargs):
        raise OSError("a small export started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert export_suite(rendered([build_case(float(i)) for i in range(3)]), tmp_path / "out")[
        "case_count"] == 3


def test_large_export_without_an_interpreter_path_writes_in_process(tmp_path, monkeypatch,
                                                                    writers):
    monkeypatch.setattr(tcmod.sys, "executable", "")
    assert export_suite(rendered([long_case(float(i)) for i in range(3)]), tmp_path / "out")[
        "case_count"] == 3
    assert writers == []


def test_reexport_deletes_the_files_only_the_old_manifest_lists(tmp_path):
    destination = tmp_path / "out"
    old = [build_case(float(i)) for i in range(3)]
    export_suite(rendered(old), destination)
    (destination / "notes.json").write_text("{}")
    new = [old[0], build_case(9.0)]
    export_suite(rendered(new), destination)
    assert sorted(p.name for p in destination.iterdir()) == sorted(
        [f"{case.unique_id}.json" for case in new] + ["manifest.json", "notes.json"])


@pytest.mark.parametrize("manifest", [
    "not json",
    '{"format": "manifest/2", "cases": [{"file": "x.json"}]}',
    '{"format": "manifest/1", "cases": {"file": "x.json"}}',
    '{"format": "manifest/1", "cases": [{"file": "../x.json"}, {"file": "sub/x.json"},'
    ' {"file": "x.txt"}, {"file": 5}, "x.json", {"file": "manifest.json"}]}',
], ids=["malformed", "other-format", "cases-not-array", "not-plain-names"])
def test_reexport_keeps_files_no_valid_manifest_lists(tmp_path, manifest):
    destination = tmp_path / "out"
    (destination / "sub").mkdir(parents=True)
    for path in (destination / "x.json", destination / "x.txt", destination / "sub" / "x.json",
                 tmp_path / "x.json"):
        path.write_text("{}")
    (destination / "manifest.json").write_text(manifest)
    case = build_case()
    export_suite(rendered([case]), destination)
    assert sorted(p.name for p in destination.iterdir()) == sorted(
        [f"{case.unique_id}.json", "manifest.json", "sub", "x.json", "x.txt"])
    assert (destination / "sub" / "x.json").exists() and (tmp_path / "x.json").exists()
