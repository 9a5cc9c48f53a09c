import json

import pytest
from hypothesis import given, settings, strategies as st

from scenkit.errors import (
    ArityMismatch,
    DuplicateInstance,
    IllegalApplication,
    IllegalAttributeValue,
    ScenarioError,
    ScenarioSyntaxError,
    SchemaViolation,
    UnknownTerm,
)
from scenkit.functional import (
    check_consistency,
    deserialize_functional,
    functional_from_dict,
    functional_hash,
    parse_functional,
    serialize_functional,
)

from conftest import DATA


def test_parse_example_counts(car_follows_truck):
    assert car_follows_truck.scenario_id == "s1"
    assert len(car_follows_truck.instances) == 3
    assert len(car_follows_truck.relations) == 1
    assert len(car_follows_truck.attributes) == 4


def test_classifier_sugar_resolves_attribute(car_follows_truck):
    layout = [a for a in car_follows_truck.attributes if a.attribute == "layout"]
    assert layout and layout[0].instance_id == "r1"
    assert layout[0].value == "two-lane-motorway"


def test_empty_scenario(vocabulary):
    scenario = parse_functional("scenario s0\n", vocabulary)
    assert scenario.instances == () and scenario.relations == () and scenario.attributes == ()


def test_slash_separated_statements(vocabulary):
    scenario = parse_functional("scenario s2 / car c1 / truck t1 / c1 follows t1", vocabulary)
    assert len(scenario.instances) == 2
    assert scenario.relations[0].arguments == ("c1", "t1")


def test_missing_scenario_statement(vocabulary):
    with pytest.raises(ScenarioSyntaxError):
        parse_functional("car c1\n", vocabulary)


def test_unknown_term_reports_line_and_hint(vocabulary):
    with pytest.raises(UnknownTerm) as excinfo:
        parse_functional("scenario s1\ncar c1\nc1 folows t1\n", vocabulary)
    assert excinfo.value.line == 3
    assert excinfo.value.hint == "follows"


def test_duplicate_declaration_rejected(vocabulary):
    with pytest.raises(DuplicateInstance):
        parse_functional("scenario s1 / car c1 / car c1", vocabulary)


def test_consistency_clean(car_follows_truck, vocabulary):
    assert check_consistency(car_follows_truck, vocabulary).ok


def test_mutual_exclusion_detected(vocabulary):
    text = ("scenario s1 / road r1 is two-lane-motorway / r1 geometry straight\n"
            "car c1 / truck t1 / c1 follows t1 / t1 follows c1")
    report = check_consistency(parse_functional(text, vocabulary), vocabulary)
    codes = [f.code for f in report.findings]
    assert codes == ["MUTUAL_EXCLUSION"]


def test_self_follow_not_excluded(vocabulary):
    # the exclusion binds X and Y to the same instance here; it still matches
    # distinct phrase indices only, so a single phrase never conflicts with itself
    text = ("scenario s1 / road r1 is two-lane-motorway / r1 geometry straight\n"
            "car c1 / c1 follows c1")
    report = check_consistency(parse_functional(text, vocabulary), vocabulary)
    assert report.ok


def test_missing_required_attribute(vocabulary):
    report = check_consistency(
        parse_functional("scenario s1 / road r1 is two-lane-motorway", vocabulary), vocabulary)
    codes = [f.code for f in report.findings]
    assert codes == ["MISSING_REQUIRED_ATTRIBUTE"]
    assert report.findings[0].elements == ("r1", "geometry")


def test_serialize_round_trip(car_follows_truck):
    text = serialize_functional(car_follows_truck)
    again = deserialize_functional(text)
    assert again == car_follows_truck
    assert functional_hash(again) == functional_hash(car_follows_truck)


def test_hash_changes_with_content(car_follows_truck, vocabulary):
    text = (DATA / "fig_car_follows_truck.scn").read_text()
    other = parse_functional(text.replace("c1 lane right", "c1 lane left"), vocabulary)
    assert functional_hash(other) != functional_hash(car_follows_truck)


@pytest.mark.parametrize("text, error, line", [
    ("scenario s1\ncar c1\ncar c1\n", DuplicateInstance, 3),
    ("scenario s1\nroad r1 is two-lane-motorway\nr1 geometry wiggly\n", IllegalAttributeValue, 3),
    ("scenario s1\nroad r1 is wiggly\n", IllegalAttributeValue, 2),
    ("scenario s1\ncar c1\nc1 is straight\n", IllegalAttributeValue, 3),
    ("scenario s1\ncar c1\nc1 geometry straight\n", IllegalApplication, 3),
    ("scenario s1\nroad r1\ncar c1\nc1 follows r1\n", IllegalApplication, 4),
    ("scenario s1\ncar c1\ntruck t1\nc1 follows t1 t1\n", ArityMismatch, 4),
    ("scenario s1\ncar c1\nc1 lane left\nc1 lane right\n", ScenarioSyntaxError, 4),
    ("scenario s1\nroad r1 is two-lane-motorway\nr1 layout three-lane-motorway\n",
     ScenarioSyntaxError, 3),
], ids=["duplicate-instance", "illegal-value", "illegal-value-sugar", "sugar-not-applicable",
        "attribute-not-applicable", "relation-not-applicable", "arity",
        "duplicate-assignment", "duplicate-assignment-sugar"])
def test_parser_rule_violations(vocabulary, text, error, line):
    with pytest.raises(ScenarioError) as excinfo:
        parse_functional(text, vocabulary)
    assert type(excinfo.value) is error
    assert isinstance(excinfo.value, ScenarioSyntaxError)
    assert excinfo.value.line == line
    assert f"line {line}:" in str(excinfo.value)


@pytest.mark.parametrize("field, value", [
    ("instances", 5),
    ("instances", [{"term": "car"}]),
    ("instances", ["c1"]),
    ("relations", {"relation": "follows"}),
    ("relations", [{"relation": "follows", "arguments": 5}]),
    ("attributes", [{"instance_id": "c1", "attribute": "lane"}]),
    ("scenario_id", 5),
    ("instances", [{"instance_id": "c1", "term": 5}]),
    ("relations", [{"relation": "follows", "arguments": [1, 2]}]),
    ("attributes", [{"instance_id": "c1", "attribute": "lane", "value": ["x"]}]),
    ("vocabulary_ref", {"domain_name": "motorway-traffic", "version": 2}),
], ids=["instances-number", "instance-without-id", "instance-string", "relations-object",
        "arguments-number", "attribute-without-value", "scenario-id-number", "term-number",
        "arguments-numbers", "value-list", "version-number"])
def test_from_dict_rejects_mistyped_records(car_follows_truck, field, value):
    document = json.loads(serialize_functional(car_follows_truck))
    document[field] = value
    with pytest.raises(SchemaViolation):
        functional_from_dict(document)


WORDS = st.sampled_from(["scenario", "s1", "..", "road", "car", "truck", "r1", "c1", "t1", "is",
                         "follows", "lane", "right", "geometry", "curve", "layout",
                         "two-lane-motorway", "/", "#"]) | st.text(max_size=3)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lines=st.lists(st.lists(WORDS, max_size=8), max_size=6))
def test_parse_raises_only_scenario_errors(vocabulary, lines):
    """Any sequence of words, vocabulary terms or not: parsing and checking
    either work or raise a ``ScenarioError``."""
    try:
        check_consistency(parse_functional("\n".join(map(" ".join, lines)), vocabulary),
                          vocabulary)
    except ScenarioError:
        pass


@pytest.mark.parametrize("scenario_id", ["..", ".hidden", "-x", "_", "s\u00e9"])
def test_scenario_id_must_be_a_plain_file_name(vocabulary, scenario_id):
    with pytest.raises(ScenarioSyntaxError, match="bad scenario id"):
        parse_functional(f"scenario {scenario_id}\nroad r1 is two-lane-motorway\n", vocabulary)
