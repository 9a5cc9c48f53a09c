import hashlib
import itertools
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scenkit.concretize
import scenkit.logical
from scenkit.concretize import (
    MAX_CLASSES,
    MAX_SCENARIOS,
    METHODS,
    SUITE,
    ConcreteScenario,
    _components,
    _feasible_pairs,
    _orthogonal_array,
    boundary_values,
    check_concrete,
    concrete_from_dict,
    concrete_to_dict,
    compile_levels,
    coverage_metrics,
    derive_seed,
    deserialize_concrete,
    equivalence_classes,
    generate_suite,
    pairwise_cover,
    sample_random,
    serialize_concrete,
    suite_to_dict,
)
from scenkit.canonical import dumps_canonical
from scenkit.errors import (
    BadK,
    BadN,
    InfeasibleLevels,
    SamplingExhausted,
    SchemaViolation,
    SourceMismatch,
    UnboundConstraintParameter,
)
from scenkit.expressions import COMPARATORS
from scenkit.functional import parse_functional
from scenkit.logical import (
    Correlation,
    Inequality,
    LogicalScenario,
    Parameter,
    deserialize_logical,
)
from scenkit.lowering import lower_to_logical

from conftest import make_logical, random_logical, source_ref_for


def test_boundary_values():
    assert boundary_values(Parameter("a.x", "m", 0.0, 10.0)) == [0.0, 10.0]
    assert boundary_values(Parameter("a.x", "m", 3.0, 3.0)) == [3.0]


def test_equivalence_classes():
    parameter = Parameter("a.x", "m", 0.0, 10.0)
    assert equivalence_classes(parameter, 2) == [2.5, 7.5]
    assert equivalence_classes(parameter, 1) == [5.0]
    assert equivalence_classes(Parameter("a.x", "m", 3.0, 3.0), 4) == [3.0]
    for k in (0, MAX_CLASSES + 1):
        with pytest.raises(BadK):
            equivalence_classes(parameter, k)


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
    suite = pairwise_cover(scenario, compile_levels(scenario, levels))
    assert len(suite) == 9
    assert len(suite_pairs(["a.x", "a.y", "a.z"], suite)) == 27


def test_pairwise_single_parameter():
    scenario = make_logical([("a.x", 0, 3)])
    suite = pairwise_cover(scenario, compile_levels(scenario, {"a.x": [0.0, 1.0, 2.0, 3.0]}))
    assert [c.assignments["a.x"] for c in suite] == [0.0, 1.0, 2.0, 3.0]


def test_pairwise_constrained_drops_infeasible_pairs():
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    levels = {"t1.s0": [0.0, 200.0], "c1.s0": [0.0, 200.0]}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    assert all(check_concrete(scenario, c) == [] for c in suite)
    coverage = coverage_metrics(scenario, form, suite)
    assert coverage.pair_coverage == 1.0
    assert coverage.infeasible_combination_count == 3


def test_no_cover_of_needs_two_parameters():
    # p0 keeps 1 of its 4 levels, so 2 rows cover every pair; a size bound
    # over p0's four levels alone (1 + 3 rows) would wrongly ask for more
    scenario = make_logical([("p0", 0, 3), ("p1", 0, 3)], [("p0", "<", "0.5")])
    levels = {"p0": [0.0, 1.0, 2.0, 3.0], "p1": [0.0, 1.0]}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    assert len(suite) == 2
    assert all(check_concrete(scenario, c) == [] for c in suite)
    assert coverage_metrics(scenario, form, suite).pair_coverage == 1.0


def test_pairwise_all_levels_infeasible():
    scenario = make_logical([("t1.s0", 0, 10), ("c1.s0", 0, 10), ("a.x", 0, 1)],
                            [("a.x", "<", "2"), ("t1.s0", ">", "c1.s0")])
    with pytest.raises(InfeasibleLevels, match=r"satisfies constraints c001$"):
        pairwise_cover(scenario, compile_levels(scenario, {"t1.s0": [5.0], "c1.s0": [5.0],
                                                           "a.x": [0.0]}))
    constant = make_logical([("a.x", 0, 1), ("a.y", 0, 1)], [("a.x", "<", "2"), ("1", ">", "2")])
    with pytest.raises(InfeasibleLevels, match=r"constraint c001 is false"):
        pairwise_cover(constant, compile_levels(constant, {"a.x": [0.0], "a.y": [0.0]}))


def test_pairwise_level_validation():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, compile_levels(scenario, {"a.x": [0.0]}))
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, compile_levels(scenario, {"a.x": [], "a.y": [0.0]}))
    with pytest.raises(SchemaViolation):
        pairwise_cover(scenario, compile_levels(scenario, {"a.x": [2.0], "a.y": [0.0]}))


def test_pairwise_deterministic():
    scenario = make_logical([("a.x", 0, 3), ("a.y", 0, 2), ("a.z", 0, 3)])
    levels = {"a.x": [0.0, 1.0, 2.0, 3.0], "a.y": [0.0, 1.0, 2.0], "a.z": [0.0, 2.0, 3.0]}
    form = compile_levels(scenario, levels)
    first = [serialize_concrete(c) for c in pairwise_cover(scenario, form)]
    second = [serialize_concrete(c) for c in pairwise_cover(scenario, form)]
    assert first == second


def test_pairwise_covers_all_pairs_randomized():
    rng = random.Random(23)
    for _ in range(50):
        width = rng.randint(2, 5)
        names = [f"p{i}" for i in range(width)]
        scenario = make_logical([(n, 0, 10) for n in names])
        levels = {n: [float(v) for v in range(rng.randint(1, 4))] for n in names}
        suite = pairwise_cover(scenario, compile_levels(scenario, levels))
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
    for n in (0, -1, MAX_SCENARIOS + 1):
        with pytest.raises(BadN):
            sample_random(scenario, n, seed=1)


def test_sample_random_hits_interior():
    scenario = make_logical([("a.x", 0, 1)])
    values = {c.assignments["a.x"] for c in sample_random(scenario, 50, seed=3)}
    assert len(values) == 50  # continuous range: repeats would be a generator bug


def test_sample_random_exhaustion():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)],
                            [("a.x", ">", "a.y + 0.9999")])
    with pytest.raises(SamplingExhausted):
        sample_random(scenario, 5, seed=0)


def test_sample_random_exhaustion_names_the_rejecting_constraints():
    """On a three-car ``follows`` cycle every draw breaks a constraint; each
    is counted against the first one it breaks, and the most come first."""
    scenario = make_logical([("c1.s0", 0, 200), ("c2.s0", 0, 200), ("c3.s0", 0, 200)],
                            [("c2.s0", ">", "c1.s0"), ("c3.s0", ">", "c2.s0"),
                             ("c1.s0", ">", "c3.s0")])
    with pytest.raises(SamplingExhausted) as excinfo:
        sample_random(scenario, 2, seed=0)
    message = str(excinfo.value)
    assert message.startswith("accepted 0/2 after 2000 attempts")
    counts = [(name, int(count)) for name, count in re.findall(r"(c\d{3}) \((\d+)\)", message)]
    assert [name for name, _ in counts] == ["c000", "c001", "c002"]
    assert sum(count for _, count in counts) == 2000
    assert [count for _, count in counts] == sorted((count for _, count in counts), reverse=True)


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_coverage_vacuous_is_one():
    scenario = make_logical([("a.x", 0, 1)])
    report = coverage_metrics(scenario, compile_levels(scenario, {"a.x": [0.0, 1.0]}), [])
    assert report.pair_coverage == 1.0
    assert report.boundary_coverage == 0.0
    assert report.scenario_count == 0


def test_coverage_partial():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    levels = {"a.x": [0.0, 1.0], "a.y": [0.0, 1.0]}
    one = ConcreteScenario(scenario_id="x", source_ref=source_ref_for(scenario),
                           assignments={"a.x": 0.0, "a.y": 1.0})
    form = compile_levels(scenario, levels)
    report = coverage_metrics(scenario, form, [one])
    assert report.pair_coverage == 0.25
    assert report.boundary_coverage == 0.0
    full = pairwise_cover(scenario, form)
    report = coverage_metrics(scenario, form, full)
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
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    document = suite_to_dict(suite, coverage_metrics(scenario, form, suite))
    assert document["format"] == "concrete-suite/1"
    assert len(document["scenarios"]) == len(suite)
    assert document["coverage"]["pair_coverage"] == 1.0
    assert concrete_from_dict(document["scenarios"][0]) == suite[0]


def test_suite_loads_rejects_a_repeated_id():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)])
    suite = pairwise_cover(scenario, compile_levels(scenario, {"a.x": [0.0, 1.0],
                                                               "a.y": [0.0, 1.0]}))
    suite[1] = suite[1]._replace(scenario_id=suite[0].scenario_id)
    message = f"suite: scenario {suite[0].scenario_id!r} is listed twice"
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        SUITE.loads(SUITE.dumps((suite, None)))


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
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    coverage = coverage_metrics(scenario, form, suite)
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
PIN8_SHA256 = "c3a5207ead267e1245771dbcba0654d06baea7cd5cf3327a4825abb2da3d1fd8"


def test_pinned_suite_bytes_eight_parameters():
    scenario = make_logical([(n, 0, 3) for n in PIN_NAMES],
                            [("p0", "<", "p1"), ("p2 + p3", "<=", "4")], scenario_id="pin8")
    levels = {n: [0.0, 1.0, 2.0, 3.0] for n in PIN_NAMES}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, form, suite)))
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
    report = coverage_metrics(scenario, compile_levels(scenario, levels), suite)
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
        report = coverage_metrics(scenario, compile_levels(scenario, levels), [])
        assert report.infeasible_combination_count == expected_infeasible
        assert report.pair_coverage == 1.0


def test_constraint_on_undeclared_parameter_is_named():
    scenario = make_logical([("a.x", 0, 1), ("a.y", 0, 1)], [("a.x", "<", "zz.q + a.y")])
    levels = {"a.x": [0.0, 1.0], "a.y": [0.0, 1.0]}
    for call in (lambda: pairwise_cover(scenario, compile_levels(scenario, levels)),
                 lambda: sample_random(scenario, 3, seed=0),
                 lambda: coverage_metrics(scenario, compile_levels(scenario, levels), [])):
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
    original = scenkit.logical.LOGICAL.digest
    monkeypatch.setattr(scenkit.logical.LOGICAL, "digest",
                        lambda scenario: calls.append(1) or original(scenario))
    scenario = make_logical([("t1.s0", 0, 200), ("c1.s0", 0, 200)],
                            [("t1.s0", ">", "c1.s0")])
    suite = sample_random(scenario, 20, seed=1)
    for concrete in suite:
        assert check_concrete(scenario, concrete) == []
    assert len(calls) == 1


# The pairwise cover against the level product, which it never enumerates.

@st.composite
def encode_cases(draw):
    width = draw(st.integers(1, 5))
    names = [f"p{i}" for i in range(width)]
    # float(text) makes a new object per level, so equal levels are distinct
    # objects, as they are when read from JSON
    levels = {n: [float(text) for text in draw(st.lists(
        st.sampled_from(["-0.0", "0.0", "1.0", "2.0"]), min_size=1, max_size=4))]
        for n in names}
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        # any pair of positions, or one against a number
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names + ["1.5"]))
        constraints.append((a, draw(st.sampled_from(COMPARATORS)), b))
    return make_logical([(n, -1, 3) for n in names], constraints), levels


def _first_distinct(values):
    """``values`` without any value equal to an earlier one."""
    return [v for i, v in enumerate(values) if v not in values[:i]]


def _feasible_rows(scenario, value_lists):
    names = [p.name for p in scenario.parameters]
    return [row for row in itertools.product(*value_lists)
            if all(c.holds(dict(zip(names, row))) for c in scenario.constraints)]


def _diagram_rows(positions, diagram):
    """The root-to-end paths of a ``_components`` diagram, each as its level
    indices in ascending position order."""
    paths = [((), 0)]
    for layer in diagram:
        paths = [(path + (a,), child) for path, node in paths for a, child in layer[node].items()]
    order = sorted(range(len(positions)), key=positions.__getitem__)
    return sorted(tuple(path[d] for d in order) for path, _ in paths)


@settings(max_examples=150, deadline=None)
@given(encode_cases())
def test_feasible_pairs_match_the_product(case):
    """The level lists keep the first of equal levels, each component's
    diagram paths are the projections of the feasible product rows, as level
    indices and each once, and the feasible pairs are the union of those
    rows' pairs."""
    scenario, levels = case
    value_lists = [sorted(_first_distinct(levels[p.name])) for p in scenario.parameters]
    form_values = compile_levels(scenario, levels)[0]
    assert repr(form_values) == repr(value_lists)  # repr tells -0.0 from 0.0
    feasible = _feasible_rows(scenario, value_lists)
    if not feasible:
        with pytest.raises(InfeasibleLevels):
            _components(scenario, value_lists)
        return
    # the feasible product rows, written as level indices
    feasible = [tuple(values.index(v) for values, v in zip(value_lists, row)) for row in feasible]
    components = _components(scenario, value_lists)
    assert sorted(sorted(p) for p, _ in components) == sorted(
        list(p) for p, _ in scenario.compiled.components())
    for positions, diagram in components:
        assert _diagram_rows(positions, diagram) == sorted(
            {tuple(row[p] for p in sorted(positions)) for row in feasible})
    # blocks[j][i][b] bit a: level a of p_i with level b of p_j
    expected = [[[0] * len(values) for _ in range(j)] for j, values in enumerate(value_lists)]
    for row in feasible:
        for i, j in itertools.combinations(range(len(row)), 2):
            expected[j][i][row[j]] |= 1 << row[i]
    assert _feasible_pairs([len(values) for values in value_lists], components) == expected


def test_components_extend_only_prefixes_that_pass_their_due_checks():
    """Over 10 levels, each check is evaluated only on a node that passed every
    earlier check, and nodes merge on the levels a pending check reads. On the
    strict chain p0 < p1 < ... < p5, and on five cars p0 ... p4 behind a truck
    p5 declared last, each layer past the first keeps one placed level: at
    most 1 + 10 * 5 nodes try 10 levels each, where the level product has
    10**6 rows and the star's car prefixes alone number 10**5."""
    names = [f"p{i}" for i in range(6)]
    product = list(itertools.product(range(10), repeat=6))  # level n is the value n
    inputs = [
        ([(a, "<", b) for a, b in zip(names, names[1:])], (0, 1, 2, 3, 4, 5),
         list(itertools.combinations(range(10), 6))),
        # the truck is placed as soon as one car is
        ([(n, "<", "p5") for n in names[:5]], (0, 5, 1, 2, 3, 4),
         [row for row in product if max(row[:5]) < row[5]]),
    ]
    for constraints, order, rows in inputs:
        scenario = make_logical([(n, 0, 9) for n in names], constraints)
        compiled = scenario.compiled
        calls = []

        def counted(check):
            return lambda row: calls.append(None) or check(row)

        compiled.checks = tuple(counted(check) for check in compiled.checks)
        value_lists = [[float(v) for v in range(10)] for _ in names]
        [(positions, diagram)] = _components(scenario, value_lists)
        assert positions == order
        assert _diagram_rows(positions, diagram) == rows
        assert len(calls) <= 10 * (1 + 10 * (len(names) - 1)) == 510


@st.composite
def reference_cases(draw):
    width = draw(st.integers(1, 5))
    names = [f"p{i}" for i in range(width)]
    levels = {n: draw(st.permutations(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0]), min_size=1, max_size=4, unique=True))))
        for n in names}
    constraints = []
    for number in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["pair", "sum", "correlation", "constant"]))
        a, b, c = (draw(st.sampled_from(names)) for _ in range(3))
        op = draw(st.sampled_from(COMPARATORS))
        if kind == "correlation":
            constraints.append(Correlation(
                id=f"c{number:03d}", target=a, source=b, slope=draw(st.sampled_from([1.0, -0.5])),
                intercept=draw(st.sampled_from([0.0, 1.0])),
                tolerance=draw(st.sampled_from([0.0, 0.5, 1.5]))))
            continue
        lhs, rhs = {"pair": (a, b), "sum": (f"{a} + 2 * {b}", f"{c} + 1"),
                    "constant": ("1", draw(st.sampled_from(["0", "2"])))}[kind]
        constraints.append(Inequality(id=f"c{number:03d}", lhs=lhs, op=op, rhs=rhs))
    parameters = tuple(Parameter(n, "m", 0.0, 3.0) for n in names)
    return LogicalScenario(scenario_id="ref", parameters=parameters,
                           constraints=tuple(constraints)), levels


@settings(max_examples=200, deadline=None)
@given(reference_cases())
def test_pairwise_cover_matches_the_reference(case):
    """The reference is the level product: the suite covers every level pair
    of its feasible rows (one parameter: lists its feasible levels) and every
    scenario passes ``check_concrete``; with no feasible row the cover raises
    ``InfeasibleLevels``."""
    scenario, levels = case
    names = [p.name for p in scenario.parameters]
    feasible = _feasible_rows(scenario, [levels[n] for n in names])
    form = compile_levels(scenario, levels)
    if not feasible:
        with pytest.raises(InfeasibleLevels):
            pairwise_cover(scenario, form)
        return
    suite = pairwise_cover(scenario, form)
    assert all(check_concrete(scenario, c) == [] for c in suite)
    if len(names) == 1:
        assert [c.assignments[names[0]] for c in suite] == sorted({row[0] for row in feasible})
    wanted = {((i, row[i]), (j, row[j]))
              for row in feasible for i, j in itertools.combinations(range(len(names)), 2)}
    assert suite_pairs(names, suite) >= wanted


def reference_density_rows(scenario, value_lists):
    """README "Rows by density" over plain sets of level pairs (i, a, j, b),
    from the level product: a level is allowed iff some feasible row agrees
    with every value placed so far and with that level."""
    count = len(value_lists)
    feasible = _feasible_rows(scenario, value_lists)
    parameter_pairs = [(i, j) for j in range(count) for i in range(j)]
    uncovered = {(i, row[i], j, row[j]) for row in feasible for i, j in parameter_pairs}
    rows = []
    while uncovered:
        counts = {pair: sum(1 for i, _, j, _ in uncovered if (i, j) == pair)
                  for pair in parameter_pairs}
        # the most uncovered pairs; ties go to the first pair
        i, j = max(parameter_pairs, key=counts.get)
        # the first uncovered level pair, by j's level, then i's
        b, a = min((b, a) for p, a, q, b in uncovered if (p, q) == (i, j))
        row = {i: a, j: b}
        # the most uncovered pairs first; ties go to the parameter declared first
        involved = {p: sum(n for pair, n in counts.items() if p in pair) for p in range(count)}
        for p in sorted((p for p in range(count) if p not in row), key=lambda p: -involved[p]):
            allowed = sorted({r[p] for r in feasible if all(r[q] == v for q, v in row.items())})

            def new_pairs(v, p=p):
                return sum(1 for q, w in row.items()
                           if ((q, w, p, v) if q < p else (p, v, q, w)) in uncovered)
            # the most new pairs; the lowest level wins ties
            row[p] = max(allowed, key=new_pairs)
        rows.append([row[p] for p in range(count)])
        uncovered -= {(i, row[i], j, row[j]) for i, j in parameter_pairs}
    return rows


@settings(max_examples=200, deadline=None)
@given(reference_cases())
def test_pairwise_cover_follows_the_documented_density_rule(case):
    """Row for row, the density builder makes the rows that README's rule
    makes over plain sets, wherever Bose's orthogonal array does not apply."""
    scenario, levels = case
    value_lists = [sorted(levels[p.name]) for p in scenario.parameters]
    if (len(value_lists) < 2 or not _feasible_rows(scenario, value_lists)
            or (not scenario.compiled.components()
                and _orthogonal_array([len(values) for values in value_lists]))):
        return
    names = scenario.compiled.names
    suite = pairwise_cover(scenario, compile_levels(scenario, levels))
    assert [[c.assignments[n] for n in names] for c in suite] == reference_density_rows(
        scenario, value_lists)


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "s1.logical.json"


@pytest.mark.parametrize("k, size, sha256", [
    (20, 720, "518ee3e969dc10030f6b0768fb4d86d43899edc20a3bf1f79a0b61a6409e9cab"),
    (50, 3907, "507ef5515c6f2609d15208989199fe03e67882c43f3d377eb6d9da17038a1be4"),
])
def test_pinned_suite_bytes_many_levels(k, size, sha256):
    """The worked example's pairwise suite where each parameter has k classes."""
    scenario = deserialize_logical(GOLDEN.read_text())
    levels = {p.name: boundary_values(p) + equivalence_classes(p, k) for p in scenario.parameters}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    assert len(suite) == size
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, form, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("method", METHODS)
def test_a_suite_compiles_its_levels_once(monkeypatch, method):
    """The cover and its coverage read one form: per suite, the levels are
    validated, and the component rows and feasible pairs built, once."""
    calls = Counter()
    for name in ("compile_levels", "_components", "_feasible_pairs"):
        original = getattr(scenkit.concretize, name)
        monkeypatch.setattr(scenkit.concretize, name, lambda *args, name=name, original=original:
                            calls.update([name]) or original(*args))
    generate_suite(deserialize_logical(GOLDEN.read_text()), method, 2, 20, 0)
    assert calls == {"compile_levels": 1, "_components": 1, "_feasible_pairs": 1}


def test_pairwise_past_the_level_product():
    # 4**12 = 16.7M level rows, which the cover never enumerates
    names = [f"p{i}" for i in range(12)]
    scenario = make_logical([(n, 0, 3) for n in names], [("p3", "<", "p7")])
    levels = {n: [0.0, 1.0, 2.0, 3.0] for n in names}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    assert coverage_metrics(scenario, form, suite).pair_coverage == 1.0
    assert all(check_concrete(scenario, c) == [] for c in suite)


@pytest.mark.parametrize("count, levels, rows", [
    (3, 2, 4), (4, 3, 9), (6, 5, 25), (8, 7, 49),  # Bose's orthogonal arrays: s * s rows
    (5, 3, None), (5, 4, None),  # too many parameters, or not prime: the density rows
])
def test_pairwise_orthogonal_array_shapes(count, levels, rows):
    names = [f"p{i}" for i in range(count)]
    scenario = make_logical([(n, 0, levels - 1) for n in names])
    level_lists = {n: [float(v) for v in range(levels)] for n in names}
    suite = pairwise_cover(scenario, compile_levels(scenario, level_lists))
    assert rows is None or len(suite) == rows
    assert len(suite_pairs(names, suite)) == count * (count - 1) // 2 * levels * levels


@pytest.mark.parametrize("count, levels, constraints, sha256", [
    (7, 4, [], "bf808469cb93da5e084fcd102c87f9b59079d3f417b3aa9c2c2fbc88116e2eb7"),
    (8, 3, [], "b104d771a365b7c599f411bf83de2796e8e18516cf55b9bb5f3b5c69548c6cfe"),
    (6, 5, [("p0", ">", "p1")],
     "9985e5cbbaeb4f6d03b7d8bf8d3de92e8318519a1256a9ad3bce1da313bead58"),
], ids=["7x4", "8x3", "6x5"])
def test_pinned_suite_bytes_pairwise_shapes(count, levels, constraints, sha256):
    names = [f"p{i}" for i in range(count)]
    scenario = make_logical([(n, 0, levels - 1) for n in names], constraints,
                            scenario_id=f"pin{count}x{levels}")
    level_lists = {n: [float(v) for v in range(levels)] for n in names}
    form = compile_levels(scenario, level_lists)
    suite = pairwise_cover(scenario, form)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, form, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("constraint, sha256", [
    (("p0", ">", "1"), "17935f1a3e8a27a91e9178c40f783e9088d6701a57f3d8f2e52a61e59c9074bb"),
    (("p1", "<", "p4"), "ed4d4f9269e92fb6526f67434ef8b33a3fba9bdb4433cccc55c22d1ddefea9de"),
    (("p2 + p5", ">=", "p7"), "ba5da2667551fcd840435912019108dfc4bf9d025f9f8cdb26dbb4522956f942"),
], ids=["split-first", "split-middle", "split-last"])
def test_pinned_suite_bytes_constraint_split(constraint, sha256):
    # the one constraint component is at the start, inside or at the end of
    # the row, so a row is filled around it in a different order each time
    names = [f"p{i}" for i in range(8)]
    scenario = make_logical([(n, 0, 3) for n in names], [constraint], scenario_id="split8x4")
    level_lists = {n: [float(v) for v in range(4)] for n in names}
    form = compile_levels(scenario, level_lists)
    suite = pairwise_cover(scenario, form)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, form, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


ROAD = "road r1 is two-lane-motorway\nr1 geometry straight\n"


def star(cars, truck_last=False):
    """``cars`` cars that each follow one truck, declared before or after them."""
    vehicles = ["truck t1\n"] + [f"car c{n}\n" for n in range(1, cars + 1)]
    if truck_last:
        vehicles.append(vehicles.pop(0))
    return (f"scenario star{cars}{'last' if truck_last else ''}\n" + ROAD + "".join(vehicles)
            + "".join(f"c{n} follows t1\nc{n} lane right\n" for n in range(1, cars + 1))
            + "t1 lane right\n")


CHAIN5 = ("scenario chain5\n" + ROAD + "".join(f"car c{n}\n" for n in range(1, 6))
          + "".join(f"c{n} follows c{n + 1}\n" for n in range(1, 5))
          + "".join(f"c{n} lane right\n" for n in range(1, 6)))


@pytest.mark.parametrize("text, k, size, sha256", [
    (star(4), 8, 194, "328de726c081937d4c19990f47ca575490156afb6673a0e5294d82eb07f9a4c4"),
    (CHAIN5, 3, 41, "d43cddb2400cdc1e69006accf734e5a6aa84301a0bdd24ad2f4c24ea7eadaf59"),
    (CHAIN5, 8, 168, "0e2b5c2cf5fd6a9265cbcc69ade0cdb74a077cdf52a05cbafb6d55374f18a803"),
    (star(6), 8, 231, "d4bc88ed4e57f876efb2fc0514e9bb6ee774ea19b115f411cf04112ab68fd6bd"),
    (star(6, truck_last=True), 8, 231,
     "0590943ab1b8bc11fae723663886c588cbc70e0223dd08fcd28dbb39506d06bd"),
], ids=["star4-k8", "chain5-k3", "chain5-k8", "star6-k8", "star6-truck-last-k8"])
def test_pinned_suite_bytes_multi_constraint_components(vocabulary, catalog, text, k, size,
                                                         sha256):
    """One component of several constraints: four or six cars behind one
    truck, declared first or last, and five cars in a chain, each lowered from
    the DSL."""
    logical = lower_to_logical(parse_functional(text, vocabulary), catalog)
    suite = generate_suite(logical, "pairwise", k, 10, 0)
    assert len(suite[0]) == size
    assert hashlib.sha256(SUITE.dumps(suite).encode("utf-8")).hexdigest() == sha256


def test_eight_cars_behind_one_truck_cover_every_feasible_pair(vocabulary, catalog):
    """At --k 2 each s0 has 4 levels, so the star's one component has 4**9
    level rows: brute force over them finds every feasible level pair, and the
    suite covers each one. Every scenario satisfies every constraint."""
    logical = lower_to_logical(parse_functional(star(8), vocabulary), catalog)
    scenarios, coverage = generate_suite(logical, "pairwise", 2, 10, 0)
    assert all(check_concrete(logical, c) == [] for c in scenarios)
    names = logical.compiled.names
    levels = {p.name: sorted(set(boundary_values(p) + equivalence_classes(p, 2)))
              for p in logical.parameters}
    [(positions, numbers)] = logical.compiled.components()
    assert len(positions) == 9 and all(len(levels[names[p]]) == 4 for p in positions)
    checks = [logical.compiled.checks[n] for n in numbers]
    row = [levels[name][0] for name in names]
    feasible = set()  # the feasible rows of the component, at its positions
    for values in itertools.product(*(levels[names[p]] for p in positions)):
        for p, value in zip(positions, values):
            row[p] = value
        if all(check(row) for check in checks):
            feasible.add(values)
    # inside the component, a level pair is feasible iff some feasible row takes
    # both its levels; across it, iff each level is in some feasible row
    wanted = {pair for values in feasible
              for pair in itertools.combinations(zip(positions, values), 2)}
    single = {(p, v) for values in feasible for p, v in zip(positions, values)} | {
        (p, v) for p, name in enumerate(names) if p not in positions for v in levels[name]}
    wanted |= {(x, y) for x, y in itertools.combinations(sorted(single), 2)
               if x[0] != y[0] and not {x[0], y[0]} <= set(positions)}
    assert suite_pairs(names, scenarios) >= wanted
    assert coverage.pair_coverage == 1.0


CHAIN3 = ("scenario chain3\n" + ROAD + "".join(f"car c{n}\n" for n in range(1, 4))
          + "".join(f"c{n} follows c{n + 1}\n" for n in range(1, 3))
          + "".join(f"c{n} lane right\n" for n in range(1, 4)))


def test_random_suite_whose_boundary_levels_admit_no_row(vocabulary, catalog):
    """Each ``s0`` of the chain is [0, 200], so the boundary levels {0, 200}
    admit no strictly ordered row: a random suite's coverage counts no
    feasible pair, and a boundary suite raises the form's InfeasibleLevels."""
    logical = lower_to_logical(parse_functional(CHAIN3, vocabulary), catalog)
    suite = generate_suite(logical, "random", 2, 20, 0)
    assert hashlib.sha256(SUITE.dumps(suite).encode("utf-8")).hexdigest() == (
        "918d3f18cf1eef6e5d30709c64afd2553b2b5096ec4adf939319654cafa1824e")
    assert len(suite[0]) == 20
    assert suite[1].pair_coverage == 1.0
    assert suite[1].infeasible_combination_count == 112
    with pytest.raises(InfeasibleLevels, match=r"satisfies constraints c000, c001$"):
        generate_suite(logical, "boundary", 2, 10, 0)


def test_duplicate_and_signed_zero_levels():
    scenario = make_logical([("a.x", -1, 2), ("a.y", -1, 2), ("a.z", -1, 2)],
                            [("a.x", "<=", "a.y")])
    levels = {"a.x": [-0.0, 1.0, 0.0, 1.0], "a.y": [1.0, 0.0, -0.0, 1.0], "a.z": [2.0, 2.0]}
    form = compile_levels(scenario, levels)
    suite = pairwise_cover(scenario, form)
    assert coverage_metrics(scenario, form, suite).pair_coverage == 1.0
    # each parameter's zero is the one listed first; repr tells -0.0 from 0.0
    assert {repr(c.assignments["a.x"]) for c in suite} == {"-0.0", "1.0"}
    assert {repr(c.assignments["a.y"]) for c in suite} == {"1.0", "0.0"}
    single = make_logical([("a.x", -1, 2)])
    suite = pairwise_cover(single, compile_levels(single, {"a.x": [1.0, 0.0, 1.0, -0.0]}))
    assert [repr(c.assignments["a.x"]) for c in suite] == ["0.0", "1.0"]


def test_coverage_rejects_a_stale_revision():
    scenario = make_logical([("a.x", 0, 1)])
    stale = ConcreteScenario(scenario_id="x",
                             source_ref={"scenario_id": "fixture", "hash": "0" * 64},
                             assignments={"a.x": 0.5})
    with pytest.raises(SourceMismatch, match="different revision"):
        coverage_metrics(scenario, compile_levels(scenario, {"a.x": [0.0, 1.0]}), [stale])
    unhashed = ConcreteScenario(scenario_id="x", source_ref={"scenario_id": "fixture"},
                                assignments={"a.x": 0.5})
    form = compile_levels(scenario, {"a.x": [0.0, 1.0]})
    assert coverage_metrics(scenario, form, [unhashed]).scenario_count == 1
