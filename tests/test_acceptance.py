"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Tolerances and runtime budgets are asserted, not aspirational; a budget
overrun fails the criterion.
"""

import contextlib
import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import jsonschema
import pytest
from scipy import stats

from scenkit.canonical import dumps_canonical
from scenkit.cli import main
from scenkit.concretize import (
    ConcreteScenario,
    boundary_values,
    check_concrete,
    compile_levels,
    concrete_from_dict,
    concrete_to_dict,
    equivalence_classes,
    pairwise_cover,
    sample_random,
)
from scenkit.errors import InfeasibleLevels, SamplingExhausted
from scenkit.functional import (
    AttributeAssignment,
    EntityInstance,
    FunctionalScenario,
    RelationPhrase,
    functional_from_dict,
    functional_to_dict,
)
from scenkit.logical import (
    logical_from_dict,
    logical_to_dict,
    serialize_logical,
    validate_logical,
)
from scenkit.lowering import lower_to_logical
from scenkit import testcase as tcmod
from scenkit.testcase import Check, ExpectedBehavior, TimeSeries
from scenkit.vocabulary import vocabulary_from_dict, vocabulary_to_dict

from conftest import CRITERION_LINES, DATA, make_logical, random_logical


@contextlib.contextmanager
def criterion(label, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"{label}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    if elapsed < budget_seconds:
        CRITERION_LINES.append(f"{label}: PASS ({elapsed:.2f}s)")
    else:
        CRITERION_LINES.append(
            f"{label}: FAIL (over {budget_seconds}s budget, took {elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s: {elapsed:.2f}s"


def test_a1_worked_example_golden(car_follows_truck, catalog):
    with criterion("A1 worked-example fidelity", 1.0):
        logical = lower_to_logical(car_follows_truck, catalog)
        golden = (DATA / "golden" / "s1.logical.json").read_text()
        assert serialize_logical(logical) == golden
        names = {p.name for p in logical.parameters}
        assert {"r1.lane_width_right", "r1.lane_width_left", "r1.curve_radius",
                "c1.s0", "t1.s0"} <= names
        assert [(c.lhs, c.op, c.rhs) for c in logical.constraints] == [("t1.s0", ">", "c1.s0")]


def test_a2_generator_soundness():
    with criterion("A2 generator soundness (500 scenarios)", 60.0):
        rng = random.Random(20260823)
        checked = 0
        produced = 0
        for index in range(500):
            scenario = random_logical(rng, max_parameters=8, max_constraints=4,
                                      scenario_id=f"rand-{index}")
            suites = []
            for levels in (
                {p.name: boundary_values(p) for p in scenario.parameters},
                {p.name: equivalence_classes(p, 2) for p in scenario.parameters},
            ):
                try:
                    suites.append(pairwise_cover(scenario, compile_levels(scenario, levels)))
                except InfeasibleLevels:
                    pass
            try:
                suites.append(sample_random(scenario, 5, seed=rng.randrange(2**32)))
            except SamplingExhausted:
                pass
            for suite in suites:
                for concrete in suite:
                    assert check_concrete(scenario, concrete) == [], concrete
                    produced += 1
            checked += 1
        assert checked == 500
        assert produced > 500  # the criterion is vacuous without real output


def brute_force_uncovered(scenario, levels, suite):
    names = [p.name for p in scenario.parameters]
    feasible = set()
    for combo in itertools.product(*(levels[n] for n in names)):
        env = dict(zip(names, combo))
        if all(c.holds(env) for c in scenario.constraints):
            for i, j in itertools.combinations(range(len(names)), 2):
                feasible.add(((i, combo[i]), (j, combo[j])))
    covered = set()
    for concrete in suite:
        row = [concrete.assignments[n] for n in names]
        for i, j in itertools.combinations(range(len(names)), 2):
            covered.add(((i, row[i]), (j, row[j])))
    return feasible - covered


def test_a3_pairwise_completeness():
    with criterion("A3 pairwise completeness (100 level assignments)", 30.0):
        rng = random.Random(31)
        for trial in range(100):
            width = rng.randint(2, 6)
            names = [f"p{i}" for i in range(width)]
            constraints = []
            if width >= 2 and trial % 4 == 0:
                constraints = [(names[0], ">=", names[1])]
            scenario = make_logical([(n, 0, 3) for n in names], constraints,
                                    scenario_id=f"levels-{trial}")
            levels = {n: sorted(rng.sample([0.0, 1.0, 2.0, 3.0], rng.randint(1, 4)))
                      for n in names}
            try:
                suite = pairwise_cover(scenario, compile_levels(scenario, levels))
            except InfeasibleLevels:
                continue
            assert brute_force_uncovered(scenario, levels, suite) == set(), (levels, trial)

        cube = make_logical([("a.x", 0, 2), ("a.y", 0, 2), ("a.z", 0, 2)])
        cube_levels = {n: [0.0, 1.0, 2.0] for n in ("a.x", "a.y", "a.z")}
        suite = pairwise_cover(cube, compile_levels(cube, cube_levels))
        assert len(suite) == 9


PIPELINE_ARGS = [
    "--vocab", str(DATA / "vocabulary.json"),
    "--catalog", str(DATA / "catalog.json"),
    "--method", "pairwise", "--seed", "42",
    "--expected", str(DATA / "expected.json"),
    "--work-product", "req-keep-distance-001",
    "--duration", "2", "--dt", "1",
    str(DATA / "fig_car_follows_truck.scn"),
]


def tree_hashes(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a4_pipeline_determinism(tmp_path, capsys):
    with criterion("A4 pipeline determinism", 5.0):
        for name in ("run1", "run2"):
            assert main(["pipeline", "--out", str(tmp_path / name)] + PIPELINE_ARGS) == 0
        first = tree_hashes(tmp_path / "run1")
        second = tree_hashes(tmp_path / "run2")
        assert first and first == second


TESTCASE_SCHEMA = {
    "type": "object",
    "required": ["unique_id", "work_product_ref", "preconditions",
                 "environmental_conditions", "input_data", "expected_behavior"],
    "properties": {
        "unique_id": {"type": "string", "minLength": 1},
        "work_product_ref": {"type": "string", "minLength": 1},
        "preconditions": {
            "type": "object",
            "required": ["text", "configuration"],
            "properties": {"text": {"type": "string", "minLength": 1},
                           "configuration": {"type": "string", "minLength": 1}},
        },
        "environmental_conditions": {"type": "object", "minProperties": 1},
        "input_data": {"type": "array", "minItems": 1},
        "expected_behavior": {
            "type": "object",
            "required": ["description"],
            "properties": {"description": {"type": "string", "minLength": 1}},
        },
    },
}


def test_a5_testcase_field_totality(tmp_path, capsys):
    with criterion("A5 test case field totality", 30.0):
        assert main(["pipeline", "--out", str(tmp_path / "run")] + PIPELINE_ARGS) == 0
        cases_dir = tmp_path / "run" / "cases" / "s1"
        manifest = json.loads((cases_dir / "manifest.json").read_text())
        assert manifest["case_count"] > 0
        validator = jsonschema.Draft202012Validator(TESTCASE_SCHEMA)
        for entry in manifest["cases"]:
            document = json.loads((cases_dir / entry["file"]).read_text())
            assert list(validator.iter_errors(document)) == [], entry["file"]
        suite = json.loads((tmp_path / "run" / "concrete" / "s1.suite.json").read_text())
        assert suite["coverage"]["pair_coverage"] == 1.0


def uniform_sample_stats(seed):
    scenario = make_logical([("a.x", 0, 10)], scenario_id="uniform")
    values = [c.assignments["a.x"] for c in sample_random(scenario, 10_000, seed=seed)]
    mean = sum(values) / len(values)
    p_value = stats.kstest(values, stats.uniform(loc=0, scale=10).cdf).pvalue
    return mean, p_value


def test_a6_uniform_sampling_statistics():
    with criterion("A6 uniform sampling statistics", 60.0):
        outcomes = []
        for seed in (20260823, 7, 99991):  # fixed seed, then 2 fresh re-run seeds
            mean, p_value = uniform_sample_stats(seed)
            ok = abs(mean - 5.0) <= 0.1 and p_value >= 0.01
            outcomes.append((seed, mean, p_value, ok))
            if ok:
                break
        assert outcomes[-1][3], outcomes


def test_a7_infeasibility_diagnostics():
    with criterion("A7 infeasibility diagnostics", 10.0):
        disjoint = make_logical([("t1.s0", 0, 10), ("c1.s0", 50, 60)],
                                [("t1.s0", ">", "c1.s0")])
        codes = [f.code for f in validate_logical(disjoint).findings]
        assert codes == ["INTERVAL_INFEASIBLE"]

        narrow = make_logical([("a.x", 0, 1), ("a.y", 0, 1)],
                              [("a.x", ">", "a.y + 0.9999")])
        assert validate_logical(narrow).ok  # interval check is incomplete by design
        with pytest.raises(SamplingExhausted):
            sample_random(narrow, 10, seed=0)


def random_vocabulary_doc(rng):
    entity_count = rng.randint(1, 4)
    entities = [f"e{i}" for i in range(entity_count)]
    terms = [{"name": e, "kind": "entity"} for e in entities]
    if rng.random() < 0.7:
        terms.append({"name": "rel", "kind": "relation", "arity": rng.randint(1, 3),
                      "applies_to": rng.sample(entities, rng.randint(0, entity_count))})
    if rng.random() < 0.7:
        terms.append({"name": "attr", "kind": "attribute",
                      "applies_to": rng.sample(entities, rng.randint(1, entity_count)),
                      "allowed_values": [f"v{i}" for i in range(rng.randint(1, 3))],
                      "required": rng.random() < 0.5})
    return {"domain_name": "roundtrip", "version": str(rng.randint(1, 9)), "terms": terms}


def random_functional_obj(rng):
    instances = tuple(EntityInstance(f"i{k}", f"e{rng.randint(0, 3)}")
                      for k in range(rng.randint(0, 4)))
    relations = tuple(RelationPhrase("rel", tuple(rng.choices([i.instance_id for i in instances],
                                                              k=2)))
                      for _ in range(rng.randint(0, 2))) if instances else ()
    attributes = tuple(AttributeAssignment(i.instance_id, "attr", f"v{rng.randint(0, 2)}")
                       for i in instances if rng.random() < 0.5)
    return FunctionalScenario(scenario_id=f"s{rng.randint(0, 999)}",
                              vocabulary_ref=("roundtrip", "1"),
                              instances=instances, relations=relations, attributes=attributes)


def random_concrete_obj(rng):
    return ConcreteScenario(
        scenario_id=f"s-{rng.randint(0, 999)}",
        source_ref={"scenario_id": "s", "hash": f"{rng.getrandbits(256):064x}"},
        assignments={f"i.p{k}": round(rng.uniform(-100, 100), 6)
                     for k in range(rng.randint(1, 6))},
        method=rng.choice(["boundary", "equivalence", "pairwise", "random"]),
        seed=rng.randrange(2**32) if rng.random() < 0.5 else None,
        provenance={"default_uniform": [f"i.p{k}" for k in range(rng.randint(0, 3))]},
    )


def random_testcase_obj(rng):
    samples = tuple(round(rng.uniform(0, 100), 6) for _ in range(rng.randint(1, 5)))
    traces = tuple(TimeSeries(parameter=f"i.t{k}", unit="m", dt=0.5, samples=samples)
                   for k in range(rng.randint(1, 3)))
    expected = ExpectedBehavior(
        description="stays in lane",
        checks=tuple(Check(signal=f"sig{k}", comparator=">=", bound=float(k), tolerance=0.1)
                     for k in range(rng.randint(0, 2))))
    return tcmod.TestCase(
        unique_id=f"tc-{rng.getrandbits(64):016x}",
        work_product_ref="req-001",
        preconditions="nominal",
        configuration="default",
        environmental_conditions={"i.w": round(rng.uniform(0, 10), 6)},
        input_data=traces,
        expected=expected,
        source_ref={"scenario_id": "s", "hash": f"{rng.getrandbits(256):064x}"},
    )


def test_a8_round_trips():
    with criterion("A8 serialization round-trips (5 x 1000)", 60.0):
        rng = random.Random(808)
        for _ in range(1000):
            document = random_vocabulary_doc(rng)
            vocabulary = vocabulary_from_dict(document)
            assert vocabulary_from_dict(vocabulary_to_dict(vocabulary)) == vocabulary

            functional = random_functional_obj(rng)
            assert functional_from_dict(functional_to_dict(functional)) == functional

            logical = random_logical(rng, max_parameters=5, max_constraints=3)
            again = logical_from_dict(json.loads(dumps_canonical(logical_to_dict(logical))))
            assert again == logical

            concrete = random_concrete_obj(rng)
            assert concrete_from_dict(concrete_to_dict(concrete)) == concrete

            case = random_testcase_obj(rng)
            assert tcmod.testcase_from_dict(tcmod.testcase_to_dict(case)) == case
