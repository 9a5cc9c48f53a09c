import json

import pytest
from hypothesis import example, given, settings, strategies as st

from scenkit.errors import (
    BadDistribution,
    BadRange,
    ConstraintInstantiationError,
    MissingTemplate,
    OverrideWidensRange,
    ScenarioError,
    ScenarioSyntaxError,
    SchemaViolation,
    UnboundConstraintParameter,
    UnknownTerm,
    VocabularyMismatch,
)
from scenkit.canonical import dumps_canonical
from scenkit.concretize import (
    boundary_values,
    check_concrete,
    compile_levels,
    coverage_metrics,
    pairwise_cover,
    suite_from_dict,
    suite_to_dict,
)
from scenkit.functional import (
    check_consistency,
    deserialize_functional,
    parse_functional,
    serialize_functional,
)
from scenkit.logical import (
    Correlation,
    Inequality,
    Parameter,
    deserialize_logical,
    serialize_logical,
    validate_logical,
)
from scenkit.lowering import load_parameter_catalog, lower_to_logical
from scenkit.testcase import (
    Export,
    assemble_test_case,
    deserialize_testcase,
    load_expected,
    serialize_testcase,
    synthesize_traces,
)
from scenkit.vocabulary import load_vocabulary, serialize_vocabulary

from conftest import DATA, json_paths, replaced


def catalog_doc():
    return json.loads((DATA / "catalog.json").read_text())


def test_catalog_loads(catalog):
    assert set(catalog.entity_templates) == {"road", "car", "truck"}
    assert ("geometry", "curve") in catalog.attribute_templates
    assert "follows" in catalog.relation_templates


def test_catalog_vocabulary_ref_checked(vocabulary):
    doc = catalog_doc()
    doc["vocabulary_ref"]["version"] = "2"
    with pytest.raises(VocabularyMismatch):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_unknown_entity(vocabulary):
    doc = catalog_doc()
    doc["entities"]["bus"] = []
    with pytest.raises(UnknownTerm):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_bad_range(vocabulary):
    doc = catalog_doc()
    doc["entities"]["car"][0]["range"] = [10.0, 5.0]
    with pytest.raises(BadRange):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_point_range_allowed(vocabulary):
    doc = catalog_doc()
    doc["entities"]["car"][0]["range"] = [5.0, 5.0]
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    template = catalog.entity_templates["car"][0]
    assert (template.lo, template.hi) == (5.0, 5.0)


def test_catalog_mean_outside_range(vocabulary):
    doc = catalog_doc()
    doc["entities"]["car"][1]["distribution"]["mean"] = 100.0
    with pytest.raises(BadDistribution):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_unbound_constraint_parameter(vocabulary):
    doc = catalog_doc()
    doc["relations"]["follows"] = [{"kind": "inequality", "expr": "B.mass > A.mass"}]
    with pytest.raises(UnboundConstraintParameter):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_slot_exceeds_arity(vocabulary):
    doc = catalog_doc()
    doc["relations"]["follows"] = [{"kind": "inequality", "expr": "C.s0 > A.s0"}]
    with pytest.raises(UnboundConstraintParameter):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_lower_example_parameters(logical_scenario):
    names = [p.name for p in logical_scenario.parameters]
    assert names == [
        "r1.lane_width_right", "r1.lane_width_left", "r1.curve_radius",
        "c1.s0", "c1.v0", "t1.s0", "t1.v0",
    ]
    radius = logical_scenario.parameter("r1.curve_radius")
    assert radius.range == (400.0, 5000.0)
    assert dict(radius.provenance)["attribute"] == "geometry=curve"


def test_lower_example_constraint(logical_scenario):
    assert len(logical_scenario.constraints) == 1
    constraint = logical_scenario.constraints[0]
    assert constraint.id == "c000"
    assert (constraint.lhs, constraint.op, constraint.rhs) == ("t1.s0", ">", "c1.s0")


def test_lower_example_distribution(logical_scenario):
    v0 = logical_scenario.parameter("c1.v0")
    assert v0.distribution.type == "truncated-gaussian"
    assert (v0.distribution.mean, v0.distribution.stddev) == (25.0, 4.0)
    assert v0.kind == "scalar-initial"
    assert logical_scenario.parameter("r1.lane_width_left").kind == "scalar-static"


def test_lower_source_ref_ties_back(car_follows_truck, logical_scenario):
    from scenkit.functional import functional_hash
    assert logical_scenario.source_ref["scenario_id"] == "s1"
    assert logical_scenario.source_ref["hash"] == functional_hash(car_follows_truck)


def test_lower_empty_scenario(vocabulary, catalog):
    scenario = parse_functional("scenario s0\n", vocabulary)
    logical = lower_to_logical(scenario, catalog)
    assert logical.parameters == () and logical.constraints == ()


def test_lower_straight_geometry_adds_nothing(vocabulary, catalog):
    text = ("scenario s2 / road r1 is two-lane-motorway / r1 geometry straight")
    logical = lower_to_logical(parse_functional(text, vocabulary), catalog)
    assert [p.name for p in logical.parameters] == ["r1.lane_width_right", "r1.lane_width_left"]


def test_lower_missing_template(vocabulary):
    doc = catalog_doc()
    del doc["entities"]["truck"]
    del doc["relations"]
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    text = ("scenario s3 / road r1 is two-lane-motorway / r1 geometry straight / truck t1")
    with pytest.raises(MissingTemplate):
        lower_to_logical(parse_functional(text, vocabulary), catalog)


def test_override_narrows_only(vocabulary):
    doc = catalog_doc()
    doc["attributes"]["geometry"]["straight"] = {
        "override": {"lane_width_right": [3.0, 3.5]}}
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    text = "scenario s4 / road r1 is two-lane-motorway / r1 geometry straight"
    logical = lower_to_logical(parse_functional(text, vocabulary), catalog)
    assert logical.parameter("r1.lane_width_right").range == (3.0, 3.5)

    doc["attributes"]["geometry"]["straight"]["override"]["lane_width_right"] = [2.0, 3.5]
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    with pytest.raises(OverrideWidensRange):
        lower_to_logical(parse_functional(text, vocabulary), catalog)


def test_remove_then_constraint_dangles(vocabulary):
    doc = catalog_doc()
    doc["attributes"]["lane"] = {"left": {"remove": ["s0"]}}
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    text = ("scenario s5 / road r1 is two-lane-motorway / r1 geometry curve\n"
            "car c1 / truck t1 / c1 lane left / c1 follows t1")
    with pytest.raises(ConstraintInstantiationError):
        lower_to_logical(parse_functional(text, vocabulary), catalog)


def test_lower_is_deterministic(car_follows_truck, catalog):
    first = serialize_logical(lower_to_logical(car_follows_truck, catalog))
    second = serialize_logical(lower_to_logical(car_follows_truck, catalog))
    assert first == second


CORRELATION = {"kind": "correlation", "target": "A.v0", "source": "B.v0",
               "slope": 1.0, "intercept": 0.0, "tolerance": 5.0}


@pytest.mark.parametrize("where, value, error", [
    ("range", [0.0, float("inf")], BadRange),
    ("range", [float("nan"), 5.0], BadRange),
    ("range", [-1e308, 1e308], BadRange),
    ("mean", float("nan"), BadDistribution),
    ("stddev", float("inf"), BadDistribution),
    ("slope", float("inf"), SchemaViolation),
    ("intercept", float("-inf"), SchemaViolation),
    ("tolerance", float("nan"), SchemaViolation),
    ("expr", "B.s0 > A.s0 + 1e999", ScenarioSyntaxError),
])
def test_catalog_non_finite_numbers(vocabulary, where, value, error):
    doc = catalog_doc()
    if where == "range":
        doc["entities"]["car"][0]["range"] = value
    elif where in ("mean", "stddev"):
        doc["entities"]["car"][1]["distribution"][where] = value
    elif where == "expr":
        doc["relations"]["follows"][0]["expr"] = value
    else:
        doc["relations"]["follows"].append({**CORRELATION, where: value})
    with pytest.raises(error, match="not finite"):
        load_parameter_catalog(json.dumps(doc), vocabulary)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["entities"]["car"][0].update(range=["0", 200.0]),
    lambda doc: doc["entities"]["car"][1]["distribution"].update(mean="25"),
    lambda doc: doc["entities"]["car"][1]["distribution"].update(stddev=True),
    lambda doc: doc["attributes"]["geometry"]["straight"].update(
        override={"lane_width_right": [3.0, True]}),
    lambda doc: doc["attributes"]["geometry"]["straight"].update(
        override={"lane_width_right": "34"}),
], ids=["range-string", "mean-string", "stddev-bool", "override-bool", "override-string"])
def test_catalog_range_numbers_must_be_numbers(vocabulary, edit):
    doc = catalog_doc()
    edit(doc)
    with pytest.raises(SchemaViolation, match="is not a number|must be an array"):
        load_parameter_catalog(json.dumps(doc), vocabulary)


@pytest.mark.parametrize("value", [True, "1.0", None])
def test_catalog_correlation_numbers_must_be_numbers(vocabulary, value):
    doc = catalog_doc()
    doc["relations"]["follows"].append({**CORRELATION, "slope": value})
    with pytest.raises(SchemaViolation):
        load_parameter_catalog(json.dumps(doc), vocabulary)


def test_catalog_templates_are_logical_records(catalog):
    s0 = catalog.entity_templates["car"][0]
    assert isinstance(s0, Parameter)
    assert (s0.name, s0.unit, s0.range, s0.kind, s0.provenance) == (
        "s0", "m", (0.0, 200.0), "scalar-initial", ())
    (follows,) = catalog.relation_templates["follows"]
    assert follows == Inequality(id="", lhs="B.s0", op=">", rhs="A.s0")


def test_lower_correlation_and_arithmetic_templates(vocabulary, car_follows_truck):
    doc = catalog_doc()
    doc["relations"]["follows"] = [
        {"kind": "inequality", "expr": "B.s0 - A.s0 >= 2*A.v0"},
        {**CORRELATION, "slope": 0.5, "intercept": 1.25, "tolerance": 3.0},
    ]
    catalog = load_parameter_catalog(json.dumps(doc), vocabulary)
    gap, speed = catalog.relation_templates["follows"]
    assert (gap.lhs, gap.op, gap.rhs) == ("B.s0 - A.s0", ">=", "2.0*A.v0")
    logical = lower_to_logical(car_follows_truck, catalog)
    provenance = (("arguments", "c1 t1"), ("relation", "follows"))
    assert logical.constraints == (
        Inequality(id="c000", lhs="t1.s0 - c1.s0", op=">=", rhs="2.0*c1.v0",
                   provenance=provenance),
        Correlation(id="c001", target="c1.v0", source="t1.v0", slope=0.5, intercept=1.25,
                    tolerance=3.0, provenance=provenance),
    )
    assert logical.constraints[0].variables() == {"t1.s0", "c1.s0", "c1.v0"}
    # lowering leaves the catalog's templates as they were
    assert catalog.relation_templates["follows"] == (gap, speed)
    assert (speed.id, speed.target, speed.source, speed.provenance) == ("", "A.v0", "B.v0", ())
    again = deserialize_logical(serialize_logical(logical))
    assert again == logical


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["s0", "A.s0", "B.s0 > A.s0", "t1.s0 < 1e999", "scalar-dynamic",
                       "uniform", "correlation", "inequality", "follows", "car", "X", "~~",
                       "c1.s0", "1e999", "../s1"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)
# the fixture documents, each with one correlation added
CATALOG_DOC = catalog_doc()
CATALOG_DOC["relations"]["follows"].append(CORRELATION)
GOLDEN_DOC = json.loads((DATA / "golden" / "s1.logical.json").read_text())
GOLDEN_DOC["constraints"].append({"id": "c001", "kind": "correlation", "target": "c1.v0",
                                  "source": "t1.v0", "slope": 1.0, "intercept": 0.0,
                                  "tolerance": 5.0, "provenance": {}})
# the documents of the export: two scenarios of the worked example's boundary
# suite, the expected behaviour and one test case
S1 = deserialize_logical((DATA / "golden" / "s1.logical.json").read_text())
FORM = compile_levels(S1, {p.name: boundary_values(p) for p in S1.parameters})
SUITE = pairwise_cover(S1, FORM, "boundary")[:2]
EXPECTED = load_expected((DATA / "expected.json").read_text())
META = {"work_product_ref": "req-001", "preconditions": "nominal", "configuration": "default"}
SCENARIO_TEXT = (DATA / "fig_car_follows_truck.scn").read_text()
VOCABULARY = load_vocabulary((DATA / "vocabulary.json").read_text())


def export_one(concrete, expected):
    """One concrete scenario through trace synthesis, assembly and encoding."""
    export = Export(S1, [], 2.0, 1.0, META, expected)
    traces = synthesize_traces(export, concrete)
    return serialize_testcase(assemble_test_case(export, concrete, traces))


DOCS = {
    "catalog": CATALOG_DOC,
    "logical": GOLDEN_DOC,
    "vocabulary": json.loads((DATA / "vocabulary.json").read_text()),
    "functional": json.loads(serialize_functional(parse_functional(SCENARIO_TEXT, VOCABULARY))),
    "expected": json.loads((DATA / "expected.json").read_text()),
    "suite": json.loads(dumps_canonical(suite_to_dict(SUITE))),
    "testcase": json.loads(export_one(SUITE[0], EXPECTED)),
}
FUZZ_CASES = [(which, path) for which, document in DOCS.items()
              for path in json_paths(document)]


def same_json(a, b) -> bool:
    """JSON equality that tells a bool or a string from a number."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_json(a[k], b[k])
                                                                   for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_json, a, b))
    if type(a) in (int, float) and type(b) in (int, float):
        return float(a) == float(b)
    return type(a) is type(b) and a == b


@settings(max_examples=500, derandomize=True, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=JSON_VALUES)
@example(case=("testcase", ("input_data", 0, "dt")), value="1")
@example(case=("testcase", ("input_data", 0, "dt")), value=True)
@example(case=("testcase", ("input_data", 0, "samples", 1)), value="7")
@example(case=("testcase", ("input_data", 0, "parameter")), value=5)
@example(case=("testcase", ("unique_id",)), value=5)
@example(case=("testcase", ("preconditions", "text")), value=5)
@example(case=("expected", ("description",)), value=5)
@example(case=("logical", ("parameters", 4, "distribution", "type")), value="uniform")
@example(case=("functional", ("instances", 0, "term")), value=5)
def test_loaders_raise_only_scenario_errors(vocabulary, catalog, car_follows_truck, case, value):
    """One path of a fixture document replaced by any JSON value: loading the
    document and using what it loads either works or raises a ``ScenarioError``.
    A logical scenario, suite, functional scenario, test case or expected
    behaviour that loads is written back as it was read: the loader coerces no
    value to another type. A vocabulary, which normalizes its names and sorts
    its terms, reads back as the vocabulary it wrote."""
    which, path = case
    text = json.dumps(replaced(DOCS[which], path, value))
    try:
        if which in ("catalog", "logical"):
            if which == "catalog":
                logical = lower_to_logical(car_follows_truck,
                                           load_parameter_catalog(text, vocabulary))
            else:
                logical = deserialize_logical(text)
            validate_logical(logical)
            logical.compiled
            if which == "logical":
                assert same_json(json.loads(serialize_logical(logical)), json.loads(text))
        elif which == "vocabulary":
            loaded = load_vocabulary(text)
            assert load_vocabulary(serialize_vocabulary(loaded)) == loaded
            check_consistency(parse_functional(SCENARIO_TEXT, loaded), loaded)
        elif which == "functional":
            scenario = deserialize_functional(text)
            assert same_json(json.loads(serialize_functional(scenario)), json.loads(text))
            if check_consistency(scenario, vocabulary).ok:
                lower_to_logical(scenario, catalog)
        elif which == "expected":
            written = json.loads(export_one(SUITE[0], load_expected(text)))
            assert same_json(written["expected_behavior"], json.loads(text))
        elif which == "suite":
            scenarios = suite_from_dict(json.loads(text))
            assert same_json(json.loads(dumps_canonical(suite_to_dict(scenarios))),
                             json.loads(text))
            coverage_metrics(S1, FORM, scenarios)
            for concrete in scenarios:
                check_concrete(S1, concrete)
                export_one(concrete, EXPECTED)
        else:
            assert same_json(json.loads(serialize_testcase(deserialize_testcase(text))),
                             json.loads(text))
    except ScenarioError:
        pass


LOADERS = {
    "catalog": lambda text: load_parameter_catalog(text, VOCABULARY),
    "logical": deserialize_logical,
    "vocabulary": load_vocabulary,
    "functional": deserialize_functional,
    "expected": load_expected,
    "suite": lambda text: suite_from_dict(json.loads(text)),
    "testcase": deserialize_testcase,
}


@pytest.mark.parametrize("which", sorted(DOCS))
def test_loaders_reject_an_undeclared_key(which):
    """Each fixture document loads, and with one key its format does not
    declare, such as a misspelled optional field, it is a ``SchemaViolation``."""
    LOADERS[which](json.dumps(DOCS[which]))
    with pytest.raises(SchemaViolation, match="undeclared key 'note'"):
        LOADERS[which](json.dumps({**DOCS[which], "note": "x"}))
