import functools
import hashlib
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scenkit.concretize
import scenkit.logical
from scenkit.concretize import (
    ConcreteScenario,
    _feasible_pairs,
    _greedy_cover,
    _level_masks,
    _no_cover_of,
    _PairLayout,
    _search_minimal,
    _wrapper,
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
from scenkit.cli import generate_suite
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
    for n in (0, -1):
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


# The pairwise cover's internals: the exact search, the Rao-bound skip and the
# prefix-sharing row encoder must leave every suite as it was.

class _BudgetExceeded(Exception):
    pass


def _search_minimal_reference(masks, all_pairs, size, budget):
    """The exact search as it was before its scans became stop indices,
    verbatim but for its name; ``_search_minimal`` must return the same."""
    nodes = 0
    pairs_per_row = max((m.bit_count() for m in masks), default=0)

    def descend(start: int, chosen: list[int], uncovered: int, left: int) -> list[int] | None:
        nonlocal nodes
        if not uncovered:
            return list(chosen)
        slots = size - len(chosen)
        if slots <= 0 or slots * pairs_per_row < left:
            return None
        # best-effort cut: only pursue rows that keep up with the average
        # coverage the target size demands; uneven minimal suites are
        # missed here and handled by the greedy fallback instead
        need = -(-left // slots)
        for index in range(start, len(masks)):
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            new = uncovered & masks[index]
            gain = new.bit_count()
            if gain < need:
                continue
            chosen.append(index)
            found = descend(index + 1, chosen, uncovered ^ new, left - gain)
            if found is not None:
                return found
            chosen.pop()
        return None

    try:
        return descend(0, [], all_pairs, all_pairs.bit_count())
    except _BudgetExceeded:
        return None


class _CountingMasks(list):
    """A mask list that counts its indexed reads: one per node of the
    reference search."""
    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**12 - 1), max_size=12),
       st.integers(0, 2**14 - 1) | st.just(0), st.integers(1, 8))
def test_search_minimal_matches_the_reference(masks, extra, size):
    all_pairs = functools.reduce(operator.or_, masks, 0) | extra
    counting = _CountingMasks(masks)
    unbounded = _search_minimal_reference(counting, all_pairs, size, float("inf"))
    nodes = counting.reads  # where the reference search stops without a budget
    assert _search_minimal(masks, all_pairs, size, nodes) == unbounded
    for budget in {0, 1, max(nodes - 1, 0), nodes + 1}:
        assert (_search_minimal(masks, all_pairs, size, budget)
                == _search_minimal_reference(masks, all_pairs, size, budget))


def _cover_inputs(scenario, levels):
    """(layout, row masks, all pairs, lower bound) as ``pairwise_cover`` builds
    them; all pairs are the union of the row masks, which is what
    ``_feasible_pairs`` must give without enumerating the rows."""
    layout, masks, _ = _level_masks(scenario, levels)
    all_pairs = functools.reduce(operator.or_, masks, 0)
    assert _feasible_pairs(scenario, layout) == all_pairs
    return layout, masks, all_pairs, max(layout.pair_counts(all_pairs))


def _has_cover(masks, all_pairs, size, fields):
    """Whether some ``size`` distinct masks cover ``all_pairs``, by exhaustive
    search. A row shows one level pair of each parameter pair, so a field
    (the level pairs of one parameter pair) may never hold more uncovered
    pairs than slots are left, and a field holding exactly as many must gain
    one from every row. The next row is tried from all masks with one chosen
    uncovered pair, which every cover has; failed states are remembered."""
    holding = {}  # pair bit -> the distinct masks with it
    for mask in sorted(set(masks)):
        bits = mask
        while bits:
            holding.setdefault(bits & -bits, []).append(mask)
            bits &= bits - 1
    failed = set()

    def search(uncovered, slots):
        if not uncovered:
            return True
        if (uncovered, slots) in failed:
            return False
        open_fields = [uncovered & field for field in fields]
        if any(left.bit_count() > slots for left in open_fields):
            return False
        tight = [left for left in open_fields if left.bit_count() == slots]
        target = tight[0] if tight else uncovered
        for mask in holding.get(target & -target, ()):
            if all(mask & left for left in tight) and search(uncovered & ~mask, slots - 1):
                return True
        failed.add((uncovered, slots))
        return False

    return search(all_pairs, size)


def _pair_fields(layout, value_lists):
    """The level-pair bits of each parameter pair."""
    fields = []
    for i, j in itertools.combinations(range(len(value_lists)), 2):
        field = 0
        for a, b in itertools.product(value_lists[i], value_lists[j]):
            row = [None] * len(value_lists)
            row[i], row[j] = a, b
            field |= layout.encode(row)[0]
        fields.append(field)
    return fields


def test_no_cover_of_is_sound():
    rng = random.Random(61)
    fired = 0
    for _ in range(300):
        names = [f"p{i}" for i in range(rng.randint(2, 6))]
        shared = rng.randint(1, 3) if rng.random() < 0.7 else None
        levels = {n: sorted(rng.sample(LEVEL_VALUES, shared or rng.randint(1, 3)))
                  for n in names}
        constraints = []
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(names, 2)
            constraints.append((a, rng.choice(COMPARATORS), rng.choice([b, "1.5"])))
        scenario = make_logical([(n, 0, 3) for n in names], constraints)
        try:
            layout, masks, all_pairs, size = _cover_inputs(scenario, levels)
        except InfeasibleLevels:
            continue
        if not _no_cover_of(layout, all_pairs, size):
            continue
        fired += 1
        fields = _pair_fields(layout, [levels[n] for n in names])
        assert not _has_cover(masks, all_pairs, size, fields), (levels, constraints)
    assert fired >= 40


def test_no_cover_of_needs_two_parameters():
    # p0 keeps 1 of its 4 levels, so a 2-row suite covers every pair; the
    # bound over p0 alone (1 + 3 rows) would wrongly rule it out
    scenario = make_logical([("p0", 0, 3), ("p1", 0, 3)], [("p0", "<", "0.5")])
    levels = {"p0": [0.0, 1.0, 2.0, 3.0], "p1": [0.0, 1.0]}
    layout, _, all_pairs, size = _cover_inputs(scenario, levels)
    assert size == 2
    assert not _no_cover_of(layout, all_pairs, size)
    assert len(pairwise_cover(scenario, levels)) == 2


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
    for _ in range(draw(st.integers(0, 2))):
        # any pair of positions, or one against a number: the last position a
        # constraint reads decides where the row tuples stop
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names + ["1.5"]))
        constraints.append((a, draw(st.sampled_from(COMPARATORS)), b))
    return make_logical([(n, -1, 3) for n in names], constraints), levels


def _first_distinct(values):
    """``values`` without any value equal to an earlier one."""
    return [v for i, v in enumerate(values) if v not in values[:i]]


@settings(max_examples=150, deadline=None)
@given(encode_cases())
def test_level_masks_match_encode(case):
    scenario, levels = case
    layout, masks, row = _level_masks(scenario, levels)
    value_lists = [sorted(_first_distinct(levels[p.name])) for p in scenario.parameters]
    names = [p.name for p in scenario.parameters]
    expected = [r for r in itertools.product(*value_lists)
                if all(c.holds(dict(zip(names, r))) for c in scenario.constraints)]
    rows = [row(i) for i in range(len(masks))]
    assert repr(rows) == repr(sorted(expected))  # repr tells -0.0 from 0.0
    assert masks == [layout.encode(r)[0] for r in rows]


def _level_rows_reference(scenario, levels):
    """``_level_rows`` as it was before masks were built level by level,
    verbatim but for its name and for the level lists, read here as given."""
    value_lists = [[float(v) for v in levels[p.name]] for p in scenario.parameters]
    rows = itertools.product(*value_lists)
    for check in scenario.compiled.checks:
        rows = filter(check, rows)
    return value_lists, sorted(rows)


def _encode_sorted_reference(self, rows):
    """``_PairLayout.encode_sorted`` as it was, verbatim but for its name;
    ``self`` is the layout."""
    steps = list(zip(self.onehots, self.shifts))
    partial = [(0, 0)] * (len(steps) + 1)  # (pairs, values) of each prefix
    previous: tuple = ()
    masks = []
    for row in rows:
        shared = 0
        for value, before in zip(row, previous):
            if value is not before:
                break
            shared += 1
        pairs, values = partial[shared]
        for position in range(shared, len(steps)):
            onehot, shifts = steps[position]
            value = row[position]
            pairs |= values << shifts[value]
            values |= onehot[value]
            partial[position + 1] = pairs, values
        masks.append(pairs)
        previous = row
    return masks


def _pairwise_cover_reference(scenario, levels):
    """``pairwise_cover`` over the reference rows and masks, for distinct levels."""
    value_lists, rows = _level_rows_reference(scenario, levels)
    names = scenario.compiled.names
    if not names:
        return []
    if not rows:
        raise InfeasibleLevels("no combination of the given levels satisfies the constraints")
    wrap = _wrapper(scenario, "pairwise")
    if len(names) == 1:
        return [wrap({names[0]: row[0]}, i) for i, row in enumerate(rows)]
    layout = _PairLayout(value_lists)
    masks = _encode_sorted_reference(layout, rows)
    all_pairs = functools.reduce(operator.or_, masks, 0)
    lower_bound = max(layout.pair_counts(all_pairs))
    chosen = None
    if not _no_cover_of(layout, all_pairs, lower_bound):
        chosen = _search_minimal(masks, all_pairs, lower_bound,
                                 scenkit.concretize.EXACT_SEARCH_NODES)
    if chosen is None:
        chosen = _greedy_cover(masks, all_pairs)
    return [wrap(dict(zip(names, rows[index])), position)
            for position, index in enumerate(chosen)]


def _suite_bytes(cover, scenario, levels):
    """The suite-plus-coverage text of ``cover``'s suite, or its error type."""
    try:
        suite = cover(scenario, levels)
    except InfeasibleLevels as error:
        return type(error).__name__
    return dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, levels, suite)))


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
    scenario, levels = case
    assert (_suite_bytes(pairwise_cover, scenario, levels)
            == _suite_bytes(_pairwise_cover_reference, scenario, levels))


def test_rao_skip_guards(monkeypatch, logical_scenario):
    names = [f"p{i}" for i in range(7)]
    scenario = make_logical([(n, 0, 3) for n in names])
    levels = {n: [0.0, 1.0, 2.0, 3.0] for n in names}
    searched = []
    original = scenkit.concretize._search_minimal

    def refuse(*args):
        raise AssertionError("a 7 x 4 cover has no 16-row suite to search for")

    monkeypatch.setattr(scenkit.concretize, "_search_minimal", refuse)
    assert len(pairwise_cover(scenario, levels)) == 28
    monkeypatch.setattr(scenkit.concretize, "_search_minimal",
                        lambda *args: searched.append(args[2]) or original(*args))
    suite, _ = generate_suite(logical_scenario, "pairwise", 2, 0, 0)
    assert searched == [16]  # the worked example still searches, and fails
    assert len(suite) == 24


@pytest.mark.parametrize("count, levels, constraints, sha256", [
    (7, 4, [], "0b0755bad5f69fa40c70b035bbe6d98273f99c0396eae62cf7a753e5bc5fccba"),
    (8, 3, [], "a68ff419cae2bfb201d7e44e23b327e21ae1cfc4ba641a958a785572f66f602f"),
    (6, 5, [("p0", ">", "p1")],
     "645b8fca358b404e93d7dffd09ed5de80e0228893c8f231bcbd307a515652cb4"),
])
def test_pinned_suite_bytes_pairwise_shapes(count, levels, constraints, sha256):
    names = [f"p{i}" for i in range(count)]
    scenario = make_logical([(n, 0, levels - 1) for n in names], constraints,
                            scenario_id=f"pin{count}x{levels}")
    level_lists = {n: [float(v) for v in range(levels)] for n in names}
    suite = pairwise_cover(scenario, level_lists)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, level_lists, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("constraint, sha256", [
    (("p0", ">", "1"), "54c3f8ef463ae78fd33fdf74528447b59e1a44a4261f99ed991cb71bcef3ad53"),
    (("p1", "<", "p4"), "716149d1684550e83ce88a6ff6ae53e802ede5a0697f0eb581ea342e70d879e1"),
    (("p2 + p5", ">=", "p7"), "fcb857ab99d8cd594d4dc5c69d3d6221d5231b8302a5126f5794489cdbfd10b1"),
], ids=["split-first", "split-middle", "split-last"])
def test_pinned_suite_bytes_constraint_split(constraint, sha256):
    # the last constrained parameter is the first, a middle or the last one,
    # so the rows are all tail, prefix and tail, or all prefix
    names = [f"p{i}" for i in range(8)]
    scenario = make_logical([(n, 0, 3) for n in names], [constraint], scenario_id="split8x4")
    level_lists = {n: [float(v) for v in range(4)] for n in names}
    suite = pairwise_cover(scenario, level_lists)
    text = dumps_canonical(suite_to_dict(suite, coverage_metrics(scenario, level_lists, suite)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_duplicate_and_signed_zero_levels():
    scenario = make_logical([("a.x", -1, 2), ("a.y", -1, 2), ("a.z", -1, 2)],
                            [("a.x", "<=", "a.y")])
    levels = {"a.x": [-0.0, 1.0, 0.0, 1.0], "a.y": [1.0, 0.0, -0.0, 1.0], "a.z": [2.0, 2.0]}
    suite = pairwise_cover(scenario, levels)
    assert coverage_metrics(scenario, levels, suite).pair_coverage == 1.0
    # each parameter's zero is the one listed first; repr tells -0.0 from 0.0
    assert {repr(c.assignments["a.x"]) for c in suite} == {"-0.0", "1.0"}
    assert {repr(c.assignments["a.y"]) for c in suite} == {"1.0", "0.0"}
    single = make_logical([("a.x", -1, 2)])
    suite = pairwise_cover(single, {"a.x": [1.0, 0.0, 1.0, -0.0]})
    assert [repr(c.assignments["a.x"]) for c in suite] == ["0.0", "1.0"]


def test_coverage_rejects_a_stale_revision():
    scenario = make_logical([("a.x", 0, 1)])
    stale = ConcreteScenario(scenario_id="x",
                             source_ref={"scenario_id": "fixture", "hash": "0" * 64},
                             assignments={"a.x": 0.5})
    with pytest.raises(SourceMismatch, match="different revision"):
        coverage_metrics(scenario, {"a.x": [0.0, 1.0]}, [stale])
    unhashed = ConcreteScenario(scenario_id="x", source_ref={"scenario_id": "fixture"},
                                assignments={"a.x": 0.5})
    assert coverage_metrics(scenario, {"a.x": [0.0, 1.0]}, [unhashed]).scenario_count == 1
