import itertools
import random

import pytest

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
from scenkit.errors import BadK, InfeasibleLevels, SamplingExhausted, SchemaViolation, SourceMismatch
from scenkit.logical import Parameter

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
