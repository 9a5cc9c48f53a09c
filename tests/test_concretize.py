import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scenkit.logical
from scenkit.concretize import (
    ConcreteScenario,
    boundary_values,
    check_concrete,
    concrete_from_dict,
    concrete_to_dict,
    coverage_metrics,
    derive_seed,
    deserialize_concrete,
    equivalence_classes,
    pairwise_cover,
    sample_random,
    serialize_concrete,
    suite_to_dict,
)
from scenkit.canonical import dumps_canonical
from scenkit.errors import (
    BadK,
    InfeasibleLevels,
    SamplingExhausted,
    SchemaViolation,
    SourceMismatch,
    UnboundConstraintParameter,
)
from scenkit.expressions import COMPARATORS
from scenkit.logical import Correlation, Inequality, LogicalScenario, Parameter

from conftest import make_logical, random_logical, source_ref_for


def test_boundary_values():
    assert boundary_values(Parameter("a.x", "m", 0.0, 10.0)) == [0.0, 10.0]
    assert boundary_values(Parameter("a.x", "m", 3.0, 3.0)) == [3.0]


def test_equivalence_classes():
    parameter = Parameter("a.x", "m", 0.0, 10.0)
    assert equivalence_classes(parameter, 2) == [2.5, 7.5]
    assert equivalence_classes(parameter, 1) == [5.0]
    assert equivalence_classes(Parameter("a.x", "m", 3.0, 3.0), 4) == [3.0]
    with pytest.raises(BadK):
        equivalence_classes(parameter, 0)


def test_check_concrete_clean_and_violations():
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    ok = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                          assignments={"t1.s0": 80.0, "c1.s0": 30.0})
    assert check_concrete(scenario, ok) == []

    equal = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                             assignments={"t1.s0": 30.0, "c1.s0": 30.0})
    assert [v.code for v in check_concrete(scenario, equal)] == ["CONSTRAINT"]

    out = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                           assignments={"t1.s0": 300.0, "c1.s0": 30.0})
    assert [v.code for v in check_concrete(scenario, out)] == ["RANGE"]

    partial = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                               assignments={"t1.s0": 80.0})
    assert [v.code for v in check_concrete(scenario, partial)] == ["MISSING_ASSIGNMENT"]


def test_check_concrete_source_mismatch():
    scenario = make_logical([("a.x", 0, 1)])
    wrong_id = ConcreteScenario(scenario_id="x",
                                source_ref={"scenario_id": "other"},
                                assignments={"a.x": 0.5})
    with pytest.raises(SourceMismatch):
        check_concrete(scenario, wrong_id)
    stale = ConcreteScenario(scenario_id="x",
                             source_ref={"scenario_id": "fixture", "hash": "0" * 64},
                             assignments={"a.x": 0.5})
    with pytest.raises(SourceMismatch):
        check_concrete(scenario, stale)


def suite_pairs(names, scenarios):
    covered = set()
    for concrete in scenarios:
        row = [concrete.assignments[n] for n in names]
        for i, j in itertools.combinations(range(len(names)), 2):
            covered.add(((i, row[i]), (j, row[j])))
    return covered


def test_pairwise_three_cubed_is_nine():
    scenario = make_logical([("a.x", 0, 2), ("a.y", 0, 2), ("a.z", 0, 2)])
    levels = {n: [0.0, 1.0, 2.0] for n in ("a.x", "a.y", "a.z")}
    suite = pairwise_cover(scenario, levels)
    assert len(suite) == 9
    assert len(suite_pairs(["a.x", "a.y", "a.z"], suite)) == 27


def test_pairwise_single_parameter():
    scenario = make_logical([("a.x", 0, 3)])
    suite = pairwise_cover(scenario, {"a.x": [0.0, 1.0, 2.0, 3.0]})
    assert [c.assignments["a.x"] for c in suite] == [0.0, 1.0, 2.0, 3.0]


def test_pairwise_constrained_drops_infeasible_pairs():
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    levels = {"t1.s0": [0.0, 200.0], "c1.s0": [0.0, 200.0]}
    suite = pairwise_cover(scenario, levels)
    assert all(check_concrete(scenario, c) == [] for c in suite)
    coverage = coverage_metrics(scenario, levels, suite)
    assert coverage.pair_coverage == 1.0
    assert coverage.infeasible_combination_count == 3


def test_pairwise_all_levels_infeasible():
    scenario = make_logical([("t1.s0", 0, 10), ("c1.s0", 0, 10)],
                            [("t1.s0", ">", "c1.s0")])
    with pytest.raises(InfeasibleLevels):
        pairwise_cover(scenario, {"t1.s0": [5.0], "c1.s0": [5.0]})


def test_pairwise_level_validation():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, {"a.x": [0.0]})
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, {"a.x": [], "a.y": [0.0]})
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, {"a.x": [2.0], "a.y": [0.0]})


def test_pairwise_deterministic():
    scenario = make_logical([("a.x", 0, 3), ("a.y", 0, 2), ("a.z", 0, 3)])
    levels = {"a.x": [0.0, 1.0, 2.0, 3.0], "a.y": [0.0, 1.0, 2.0], "a.z": [0.0, 2.0, 3.0]}
    first = [serialize_concrete(c) for c in pairwise_cover(scenario, levels)]
    second = [serialize_concrete(c) for c in pairwise_cover(scenario, levels)]
    assert first == second


def test_pairwise_covers_all_pairs_randomized():
    rng = random.Random(23)
    for _ in range(50):
        width = rng.randint(2, 5)
        names = [f"p{i}" for i in range(width)]
        scenario = make_logical([(n, 0, 10) for n in names])
        levels = {n: [float(v) for v in range(rng.randint(1, 4))] for n in names}
        suite = pairwise_cover(scenario, levels)
        expected = set()
        for combo in itertools.product(*(levels[n] for n in names)):
            for i, j in itertools.combinations(range(width), 2):
                expected.add(((i, combo[i]), (j, combo[j])))
        assert suite_pairs(names, suite) >= expected


def test_sample_random_deterministic_and_clean():
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    first = sample_random(scenario, 20, seed=42)
    second = sample_random(scenario, 20, seed=42)
    assert [serialize_concrete(c) for c in first] == [serialize_concrete(c) for c in second]
    assert all(check_concrete(scenario, c) == [] for c in first)
    assert sample_random(scenario, 0, seed=1) == []


def test_sample_random_hits_interior():
    scenario = make_logical([("a.x", 0, 1)])
    values = {c.assignments["a.x"] for c in sample_random(scenario, 50, seed=3)}
    assert len(values) == 50  # continuous range: repeats would be a generator bug


def test_sample_random_exhaustion():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)],
                            [("a.x", ">", "a.y + 0.9999")])
    with pytest.raises(SamplingExhausted):
        sample_random(scenario, 5, seed=0)


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_coverage_vacuous_is_one():
    scenario = make_logical([("a.x", 0, 1)])
    report = coverage_metrics(scenario, {"a.x": [0.0, 1.0]}, [])
    assert report.pair_coverage == 1.0
    assert report.boundary_coverage == 0.0
    assert report.scenario_count == 0


def test_coverage_partial():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    levels = {"a.x": [0.0, 1.0], "a.y": [0.0, 1.0]}
    one = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                           assignments={"a.x": 0.0, "a.y": 1.0})
    report = coverage_metrics(scenario, levels, [one])
    assert report.pair_coverage == 0.25
    assert report.boundary_coverage == 0.0
    full = pairwise_cover(scenario, levels)
    report = coverage_metrics(scenario, levels, full)
    assert report.pair_coverage == 1.0
    assert report.boundary_coverage == 1.0


def test_serialize_round_trip():
    scenario = make_logical([("a.x", 0, 1)])
    concrete = sample_random(scenario, 1, seed=9)[0]
    text = serialize_concrete(concrete)
    again = deserialize_concrete(text)
    assert again == concrete
    assert serialize_concrete(again) == text


def test_suite_to_dict_structure():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    levels = {"a.x": [0.0, 1.0], "a.y": [0.0, 1.0]}
    suite = pairwise_cover(scenario, levels)
    document = suite_to_dict(suite, coverage_metrics(scenario, levels, suite))
    assert document["format"] == "concrete-suite/1"
    assert len(document["scenarios"]) == len(suite)
    assert document["coverage"]["pair_coverage"] == 1.0
    assert concrete_from_dict(document["scenarios"][0]) == suite[0]


def test_generators_never_emit_violations():
    rng = random.Random(5)
    for _ in range(30):
        scenario = random_logical(rng, max_parameters=4, max_constraints=2)
        try:
            suite = sample_random(scenario, 5, seed=rng.randrange(2**32))
        except SamplingExhausted:
            continue
        assert all(check_concrete(scenario, c) == [] for c in suite)


def test_concrete_to_dict_is_plain_json():
    scenario = make_logical([("a.x", 0, 1)])
    concrete = sample_random(scenario, 1, seed=2)[0]
    document = concrete_to_dict(concrete)
    assert document["method"] == "random"
    assert document["seed"] == 2
    assert document["provenance"]["default_uniform"] == ["a.x"]


def test_coverage_counts_duplicate_levels_once():
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200), ("c1.v0", 0, 10)],
                            [("t1.s0", ">", "c1.s0")])
    levels = {"t1.s0": [0.0, 200.0, 200.0], "c1.s0": [0.0, 0.0, 200.0], "c1.v0": [5.0, 5.0]}
    suite = pairwise_cover(scenario, levels)
    coverage = coverage_metrics(scenario, levels, suite)
    all_pairs = set()
    feasible_pairs = set()
    for row in itertools.product(*levels.values()):
        pairs = {((i, row[i]), (j, row[j])) for i, j in itertools.combinations(range(3), 2)}
        all_pairs |= pairs
        if row[0] > row[1]:
            feasible_pairs |= pairs
    assert len(all_pairs) == 8
    assert coverage.infeasible_combination_count == len(all_pairs) - len(feasible_pairs) == 5
    assert coverage.pair_coverage == 1.0


PIN_NAMES = [f"p{i}" for i in range(8)]
PIN8_SHA256 = "7b0adc2aec9cb3b7cd132a90a8e9284916d07cf07468328bf3237cf33336d1e6"


def test_pinned_suite_bytes_eight_parameters():
    scenario = make_logical([(n, 0, 3) for n in PIN_NAMES],
                            [("p0", "<", "p1"), ("p2 + p3", "<=", "4")], scenario_id="pin8")
    levels = {n: [0.0, 1.0, 2.0, 3.0] for n in PIN_NAMES}
    suite = pairwise_cover(scenario, levels)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, levels, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PIN8_SHA256


def _suite_row(names, values, scenario):
    return ConcreteScenario(scenario_id="row", source_ref={"scenario_id": scenario.scenario_id},
                            assignments=dict(zip(names, values)))


def brute_force_coverage(scenario, levels, suite):
    """(pair coverage, infeasible pair count) from the full level product."""
    names = [p.name for p in scenario.parameters]
    all_pairs, feasible = set(), set()
    for row in itertools.product(*(levels[n] for n in names)):
        pairs = {((i, row[i]), (j, row[j])) for i, j in itertools.combinations(range(len(names)), 2)}
        all_pairs |= pairs
        if all(c.holds(dict(zip(names, row))) for c in scenario.constraints):
            feasible |= pairs
    covered = set()
    for concrete in suite:
        row = [concrete.assignments[n] for n in names]
        covered |= {((i, row[i]), (j, row[j]))
                    for i, j in itertools.combinations(range(len(names)), 2)} & feasible
    coverage = float(Fraction(len(covered), len(feasible))) if feasible else 1.0
    return coverage, len(all_pairs) - len(feasible)


def assert_coverage_matches_brute_force(scenario, levels, suite_rows):
    names = [p.name for p in scenario.parameters]
    suite = [_suite_row(names, row, scenario) for row in suite_rows]
    report = coverage_metrics(scenario, levels, suite)
    coverage, infeasible = brute_force_coverage(scenario, levels, suite)
    assert report.pair_coverage == coverage
    assert report.infeasible_combination_count == infeasible


LEVEL_VALUES = [0.0, 1.0, 2.0, 3.0]


@st.composite
def coverage_cases(draw):
    width = draw(st.integers(1, 5))
    names = [f"p{i}" for i in range(width)]
    levels = {n: draw(st.lists(st.sampled_from(LEVEL_VALUES), min_size=1, max_size=3))
              for n in names}
    constraints = []
    for i in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["inequality", "correlation", "constant"]))
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if kind == "inequality":
            rhs = draw(st.sampled_from([b, f"{b} + 1", f"2 * {b} - 3"]))
            constraints.append(Inequality(id=f"c{i}", lhs=a, op=draw(st.sampled_from(COMPARATORS)),
                                          rhs=rhs))
        elif kind == "correlation":
            constraints.append(Correlation(id=f"c{i}", target=a, source=b,
                                           slope=draw(st.sampled_from([0.5, 1.0, -1.0])),
                                           intercept=draw(st.sampled_from([0.0, 1.0, 3.0])),
                                           tolerance=draw(st.sampled_from([0.0, 0.5, 1.0]))))
        else:
            constraints.append(Inequality(id=f"c{i}", lhs=draw(st.sampled_from(["0", "1"])),
                                          op="<", rhs=draw(st.sampled_from(["0", "1"]))))
    scenario = LogicalScenario(
        scenario_id="cov", parameters=tuple(Parameter(n, "m", 0.0, 3.0) for n in names),
        constraints=tuple(constraints))
    suite_rows = draw(st.lists(st.lists(st.sampled_from(LEVEL_VALUES + [0.5]),
                                        min_size=width, max_size=width), max_size=4))
    return scenario, levels, suite_rows


@settings(max_examples=150, deadline=None)
@given(coverage_cases())
def test_coverage_matches_brute_force(case):
    assert_coverage_matches_brute_force(*case)


@pytest.mark.parametrize("constraints, expected_infeasible", [
    ([("1", "<", "0")], 6 * 4),  # constant false: no pair is feasible
    ([("p0", "<", "p0")], 6 * 4),  # one component is empty, so all others are unusable
    ([("p0", "<", "p1"), ("p2", "=", "p3 + 7")], 6 * 4),
    ([("p0", "<", "p1"), ("p2", "=", "p3")], None),
])
def test_coverage_with_infeasible_parts(constraints, expected_infeasible):
    names = ["p0", "p1", "p2", "p3"]
    scenario = make_logical([(n, 0, 3) for n in names], constraints)
    levels = {n: [0.0, 3.0] for n in names}
    rows = [[0.0, 3.0, 0.0, 0.0], [3.0, 0.0, 3.0, 0.0], [0.0, 3.0, 3.0, 3.0]]
    assert_coverage_matches_brute_force(scenario, levels, rows)
    if expected_infeasible is not None:
        report = coverage_metrics(scenario, levels, [])
        assert report.infeasible_combination_count == expected_infeasible
        assert report.pair_coverage == 1.0


def test_constraint_on_undeclared_parameter_is_named():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)], [("a.x", "<", "zz.q + a.y")])
    levels = {"a.x": [0.0, 1.0], "a.y": [0.0, 1.0]}
    for call in (lambda: pairwise_cover(scenario, levels),
                 lambda: sample_random(scenario, 3, seed=0),
                 lambda: coverage_metrics(scenario, levels, [])):
        with pytest.raises(UnboundConstraintParameter, match=r"c000.*zz\.q"):
            call()


def test_compiled_checks_match_holds():
    scenario = make_logical([("a.x", -2, 2), ("a.y", -2, 2)],
                            [("-(a.x - 1) * 2", "<=", "a.y + 0.5"), ("a.x", "=", "a.y")])
    compiled = scenario.compiled
    values = [-2.0, -0.5, 0.0, 0.75, 2.0]
    for row in itertools.product(values, repeat=2):
        env = dict(zip(compiled.names, row))
        assert [check(row) for check in compiled.checks] == [
            c.holds(env) for c in scenario.constraints]


def test_logical_hash_is_computed_once_per_scenario(monkeypatch):
    calls = []
    original = scenkit.logical.content_hash
    monkeypatch.setattr(scenkit.logical, "content_hash",
                        lambda document: calls.append(1) or original(document))
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    suite = sample_random(scenario, 20, seed=1)
    for concrete in suite:
        assert check_concrete(scenario, concrete) == []
    assert len(calls) == 1
