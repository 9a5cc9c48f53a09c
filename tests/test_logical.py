import itertools
import json
import math
import random

import pytest

from scenkit.errors import SchemaViolation
from scenkit.logical import (
    Correlation,
    Distribution,
    Inequality,
    LogicalScenario,
    Parameter,
    deserialize_logical,
    logical_from_dict,
    logical_hash,
    logical_to_dict,
    serialize_logical,
    validate_logical,
)

from conftest import make_logical, random_logical


def test_validate_clean(logical_scenario):
    assert validate_logical(logical_scenario).ok


def test_duplicate_parameter():
    scenario = make_logical([("a.x", 0, 1), ("a.x", 0, 2)])
    codes = [f.code for f in validate_logical(scenario).findings]
    assert codes == ["DUPLICATE_PARAMETER"]


def test_empty_range():
    scenario = make_logical([("a.x", 5, 1)])
    codes = [f.code for f in validate_logical(scenario).findings]
    assert codes == ["EMPTY_RANGE"]


def test_bad_distribution_mean_and_stddev():
    parameter = Parameter(name="a.x", unit="m", lo=0.0, hi=1.0,
                          distribution=Distribution("truncated-gaussian", mean=5.0, stddev=-1.0))
    scenario = LogicalScenario(scenario_id="s", parameters=(parameter,))
    codes = [f.code for f in validate_logical(scenario).findings]
    assert codes == ["BAD_DISTRIBUTION", "BAD_DISTRIBUTION"]


def test_unknown_parameter_in_constraint():
    scenario = make_logical([("a.x", 0, 1)], [("a.x", "<", "b.y")])
    codes = [f.code for f in validate_logical(scenario).findings]
    assert codes == ["UNKNOWN_PARAMETER"]


def test_interval_infeasible_disjoint_ranges():
    scenario = make_logical([("t1.s0", 0, 10), ("c1.s0", 50, 60)],
                            [("t1.s0", ">", "c1.s0")])
    codes = [f.code for f in validate_logical(scenario).findings]
    assert codes == ["INTERVAL_INFEASIBLE"]


def test_interval_feasible_touching_ranges():
    scenario = make_logical([("t1.s0", 0, 50), ("c1.s0", 50, 60)],
                            [("t1.s0", ">=", "c1.s0")])
    assert validate_logical(scenario).ok


def test_correlation_band_feasibility():
    feasible = LogicalScenario(
        scenario_id="s",
        parameters=(Parameter("a.x", "m", 0.0, 10.0), Parameter("a.y", "m", 0.0, 25.0)),
        constraints=(Correlation(id="c0", target="a.y", source="a.x",
                                 slope=2.0, intercept=0.0, tolerance=1.0),))
    assert validate_logical(feasible).ok
    infeasible = LogicalScenario(
        scenario_id="s",
        parameters=(Parameter("a.x", "m", 0.0, 1.0), Parameter("a.y", "m", 10.0, 25.0)),
        constraints=(Correlation(id="c0", target="a.y", source="a.x",
                                 slope=2.0, intercept=0.0, tolerance=1.0),))
    codes = [f.code for f in validate_logical(infeasible).findings]
    assert codes == ["INTERVAL_INFEASIBLE"]


def correlation_scenario(target, source, slope, intercept, tolerance, ranges):
    return LogicalScenario(
        scenario_id="s", parameters=tuple(Parameter(name, "m", lo, hi) for name, lo, hi in ranges),
        constraints=(Correlation(id="c0", target=target, source=source, slope=slope,
                                 intercept=intercept, tolerance=tolerance),))


def test_correlation_with_its_own_source():
    # x = 2x +- 1 needs |x| <= 1, outside [5, 10]
    doubled = correlation_scenario("a.x", "a.x", 2.0, 0.0, 1.0, [("a.x", 5.0, 10.0)])
    assert [(f.code, f.elements) for f in validate_logical(doubled).findings] == [
        ("INTERVAL_INFEASIBLE", ("c0",))]
    # x = 1*x + 0 exactly holds everywhere
    assert validate_logical(
        correlation_scenario("a.x", "a.x", 1.0, 0.0, 0.0, [("a.x", 5.0, 10.0)])).ok


def test_an_overflowing_range_gives_no_finding():
    doubled = make_logical([("a.x", 0, 1)], [("1e308*a.x + 1e308*a.x", ">", "1")])
    assert validate_logical(doubled).ok
    steep = correlation_scenario("a.y", "a.x", 1e308, 0.0, 0.0,
                                 [("a.x", -10.0, 10.0), ("a.y", 0.0, 1.0)])
    assert validate_logical(steep).ok


def test_correlation_holds_is_its_literal_band():
    rng = random.Random(3)
    for _ in range(2000):
        slope, intercept = rng.uniform(-5, 5), rng.uniform(-50, 50)
        tolerance = rng.choice((0.0, rng.uniform(0, 3)))
        target = rng.choice(("a.y", "a.x"))
        constraint = Correlation(id="c0", target=target, source="a.x", slope=slope,
                                 intercept=intercept, tolerance=tolerance)
        check = constraint.compile({"a.x": 0, "a.y": 1})
        x = rng.uniform(-20, 20)
        center = slope * x + intercept
        for y in (center + tolerance, center - tolerance, center, center + rng.uniform(-4, 4)):
            env = {"a.x": x, "a.y": y}
            literal = abs(env[target] - (slope * env["a.x"] + intercept)) <= tolerance
            assert constraint.holds(env) == literal
            assert check((x, y)) == literal


def grid_feasible(scenario, steps=7):
    """Brute-force oracle: constraint satisfiable on a dense grid."""
    axes = []
    for p in scenario.parameters:
        axes.append([p.lo + (p.hi - p.lo) * i / (steps - 1) for i in range(steps)]
                    if p.lo < p.hi else [p.lo])
    names = [p.name for p in scenario.parameters]
    for point in itertools.product(*axes):
        env = dict(zip(names, point))
        if all(c.holds(env) for c in scenario.constraints):
            return True
    return False


def test_interval_check_is_sound():
    """INTERVAL_INFEASIBLE must never fire on a grid-satisfiable scenario."""
    rng = random.Random(11)
    for _ in range(200):
        scenario = random_logical(rng, max_parameters=3, max_constraints=2)
        report = validate_logical(scenario)
        flagged = any(f.code == "INTERVAL_INFEASIBLE" for f in report.findings)
        if grid_feasible(scenario):
            assert not flagged, scenario


def test_serialize_round_trip(logical_scenario):
    text = serialize_logical(logical_scenario)
    again = deserialize_logical(text)
    assert again == logical_scenario
    assert serialize_logical(again) == text
    assert logical_hash(again) == logical_hash(logical_scenario)


def test_key_order_does_not_change_canonical_form(logical_scenario):
    document = logical_to_dict(logical_scenario)
    reversed_doc = json.loads(json.dumps(
        {k: document[k] for k in reversed(list(document))}))
    assert serialize_logical(logical_from_dict(reversed_doc)) == serialize_logical(logical_scenario)


def test_missing_field_rejected(logical_scenario):
    document = logical_to_dict(logical_scenario)
    del document["parameters"]
    with pytest.raises(SchemaViolation):
        logical_from_dict(document)


def test_wrong_format_tag_rejected(logical_scenario):
    document = logical_to_dict(logical_scenario)
    document["format"] = "logical/2"
    with pytest.raises(SchemaViolation):
        logical_from_dict(document)


def test_bad_comparator_rejected(logical_scenario):
    document = logical_to_dict(logical_scenario)
    document["constraints"][0]["op"] = "!="
    with pytest.raises(SchemaViolation):
        logical_from_dict(document)


def test_inequality_holds_semantics():
    constraint = Inequality(id="c0", lhs="a.x + 1", op="<=", rhs="a.y * 2")
    assert constraint.holds({"a.x": 1.0, "a.y": 1.0})
    assert not constraint.holds({"a.x": 2.0, "a.y": 1.0})
    assert constraint.variables() == {"a.x", "a.y"}


def test_equality_comparator_is_exact():
    constraint = Inequality(id="c0", lhs="a.x", op="=", rhs="a.y")
    assert constraint.holds({"a.x": 0.5, "a.y": 0.5})
    assert not constraint.holds({"a.x": 0.5, "a.y": 0.5 + 1e-12})


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan), (-1e308, 1e308)])
def test_non_finite_range(lo, hi):
    # the constraint gets no interval check on a range already reported
    scenario = LogicalScenario(
        scenario_id="s", parameters=(Parameter("a.x", "m", lo, hi),),
        constraints=(Inequality(id="c0", lhs="a.x", op="<", rhs="-5"),))
    assert [f.code for f in validate_logical(scenario).findings] == ["NON_FINITE_RANGE"]


@pytest.mark.parametrize("mean, stddev, message", [
    (math.nan, 1.0, "mean is not finite"),
    (math.inf, 1.0, "mean is not finite"),
    (0.5, math.inf, "stddev is not finite"),
    (0.5, math.nan, "stddev is not finite"),
])
def test_non_finite_distribution(mean, stddev, message):
    parameter = Parameter(name="a.x", unit="m", lo=0.0, hi=1.0,
                          distribution=Distribution("truncated-gaussian", mean=mean, stddev=stddev))
    findings = validate_logical(LogicalScenario(scenario_id="s", parameters=(parameter,))).findings
    assert [(f.code, f.message) for f in findings] == [("BAD_DISTRIBUTION", f"a.x: {message}")]


@pytest.mark.parametrize("scenario_id", ["../escaped", 5, "", "a/b", ".hidden", "s1\n", None])
def test_logical_scenario_id_must_be_a_plain_file_name(scenario_id):
    document = logical_to_dict(make_logical([("a.x", 0, 1)]))
    document["scenario_id"] = scenario_id
    with pytest.raises(SchemaViolation, match="bad scenario id"):
        logical_from_dict(document)
    document["scenario_id"] = "s1.v-2_x"
    assert logical_from_dict(document).scenario_id == "s1.v-2_x"
