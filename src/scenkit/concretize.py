"""Derive concrete scenarios from a logical scenario.

Generators propose full assignments, the checker disposes: constraints are
verified by substitution only, so feasibility logic lives in one place.
All generators are pure functions of their inputs and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .canonical import check_document, content_hash, dumps_canonical, load_json
from .errors import (
    BadK,
    InfeasibleLevels,
    SamplingExhausted,
    SchemaViolation,
    SourceMismatch,
)
from .logical import LogicalScenario, Parameter, logical_hash

ATTEMPTS_PER_SAMPLE = 1000  # rejection budget per requested sample
EXACT_SEARCH_NODES = 200_000  # candidate-evaluation budget for the minimal-suite search


@dataclass(frozen=True)
class ConcreteScenario:
    scenario_id: str
    source_ref: dict = field(default_factory=dict)
    assignments: dict = field(default_factory=dict)  # parameter name -> value
    method: str = "random"  # boundary | equivalence | pairwise | random
    seed: int | None = None
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class CoverageReport:
    pair_coverage: float
    boundary_coverage: float
    scenario_count: int
    infeasible_combination_count: int


def boundary_values(parameter: Parameter) -> list[float]:
    if parameter.lo == parameter.hi:
        return [parameter.lo]
    return [parameter.lo, parameter.hi]


def equivalence_classes(parameter: Parameter, k: int) -> list[float]:
    """Midpoints of k equal-width classes over the range."""
    if k < 1:
        raise BadK(f"k must be >= 1, got {k}")
    if parameter.lo == parameter.hi:
        return [parameter.lo]
    width = (parameter.hi - parameter.lo) / k
    return [parameter.lo + width * (i + 0.5) for i in range(k)]


def _violations(scenario: LogicalScenario, assignments: dict) -> list[Violation]:
    violations: list[Violation] = []
    declared = {p.name for p in scenario.parameters}
    for name in assignments:
        if name not in declared:
            violations.append(Violation("UNKNOWN_ASSIGNMENT", name,
                                        f"assignment for undeclared parameter {name!r}"))
    for parameter in scenario.parameters:
        if parameter.name not in assignments:
            violations.append(Violation("MISSING_ASSIGNMENT", parameter.name,
                                        f"parameter {parameter.name!r} is unassigned"))
            continue
        value = assignments[parameter.name]
        if not parameter.lo <= value <= parameter.hi:
            violations.append(Violation(
                "RANGE", parameter.name,
                f"{parameter.name} = {value!r} outside [{parameter.lo!r}, {parameter.hi!r}]"))
    if not violations:
        for constraint in scenario.constraints:
            if not constraint.holds(assignments):
                violations.append(Violation("CONSTRAINT", constraint.id,
                                            f"constraint {constraint.id} violated: "
                                            f"{constraint.describe()}"))
    return violations


def _satisfies(scenario: LogicalScenario, assignments: dict) -> bool:
    return all(constraint.holds(assignments) for constraint in scenario.constraints)


def check_concrete(scenario: LogicalScenario, concrete: ConcreteScenario) -> list[Violation]:
    if concrete.source_ref.get("scenario_id") != scenario.scenario_id:
        raise SourceMismatch(
            f"concrete scenario {concrete.scenario_id!r} references "
            f"{concrete.source_ref.get('scenario_id')!r}, not {scenario.scenario_id!r}")
    expected_hash = concrete.source_ref.get("hash")
    if expected_hash is not None and expected_hash != logical_hash(scenario):
        raise SourceMismatch(f"concrete scenario {concrete.scenario_id!r} references a "
                             "different revision of the logical scenario")
    return _violations(scenario, concrete.assignments)


def _wrap(scenario: LogicalScenario, assignments: dict, method: str, index: int,
          seed: int | None = None) -> ConcreteScenario:
    defaulted = sorted(p.name for p in scenario.parameters if p.distribution is None)
    return ConcreteScenario(
        scenario_id=f"{scenario.scenario_id}-{method}-{index:04d}",
        source_ref={"scenario_id": scenario.scenario_id, "hash": logical_hash(scenario)},
        assignments=dict(assignments),
        method=method,
        seed=seed,
        provenance={"default_uniform": defaulted},
    )


def _level_rows(scenario: LogicalScenario, levels: dict) -> tuple[list[str], list[list[float]], list[tuple]]:
    names = [p.name for p in scenario.parameters]
    missing = [n for n in names if n not in levels]
    if missing:
        raise SchemaViolation(f"levels missing for parameters: {missing}")
    value_lists: list[list[float]] = []
    for parameter in scenario.parameters:
        values = [float(v) for v in levels[parameter.name]]
        if not values:
            raise SchemaViolation(f"empty level list for {parameter.name!r}")
        for value in values:
            if not parameter.lo <= value <= parameter.hi:
                raise SchemaViolation(
                    f"level {value!r} outside range of {parameter.name!r}")
        value_lists.append(values)
    rows = [row for row in product(*value_lists)
            if _satisfies(scenario, dict(zip(names, row)))]
    return names, value_lists, rows


def _row_pairs(row: tuple) -> set[tuple]:
    k = len(row)
    return {((i, row[i]), (j, row[j])) for i, j in combinations(range(k), 2)}


def _search_minimal(rows: list[tuple], pair_sets: list[set], all_pairs: set,
                    size: int, budget: int) -> list[int] | None:
    """Depth-first search for a covering suite of exactly ``size`` rows.

    Deterministic: rows are tried in lexicographic order under a fixed node
    budget. Returns row indices or None when no suite is found in budget.
    """
    nodes = 0
    pairs_per_row = max((len(s) for s in pair_sets), default=0)

    def descend(start: int, chosen: list[int], uncovered: set) -> list[int] | None:
        nonlocal nodes
        if not uncovered:
            return list(chosen)
        slots = size - len(chosen)
        if slots <= 0 or slots * pairs_per_row < len(uncovered):
            return None
        for index in range(start, len(rows)):
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            new = uncovered & pair_sets[index]
            # best-effort cut: only pursue rows that keep up with the average
            # coverage the target size demands; uneven minimal suites are
            # missed here and handled by the greedy fallback instead
            if len(new) * slots < len(uncovered):
                continue
            chosen.append(index)
            found = descend(index + 1, chosen, uncovered - new)
            if found is not None:
                return found
            chosen.pop()
        return None

    try:
        return descend(0, [], set(all_pairs))
    except _BudgetExceeded:
        return None


class _BudgetExceeded(Exception):
    pass


def _greedy_cover(rows: list[tuple], pair_sets: list[set], all_pairs: set) -> list[int]:
    """Pick the row covering the most uncovered pairs; first wins ties."""
    uncovered = set(all_pairs)
    suite: list[int] = []
    while uncovered:
        best_index = -1
        best_new = 0
        for index, pairs in enumerate(pair_sets):
            new = len(uncovered & pairs)
            if new > best_new:
                best_index, best_new = index, new
        suite.append(best_index)
        uncovered -= pair_sets[best_index]
    return suite


def pairwise_cover(scenario: LogicalScenario, levels: dict,
                   method: str = "pairwise") -> list[ConcreteScenario]:
    """Covering suite: every feasible level pair appears in >= 1 scenario.

    Feasibility is decided by full-row enumeration, so the suite never
    contains a constraint-violating scenario and pairs without any feasible
    completion are simply excluded. A bounded exact search tries to hit the
    lower bound (the largest single-pair level product) before falling back
    to the greedy construction. ``method`` labels the scenarios and their ids.
    """
    names, value_lists, rows = _level_rows(scenario, levels)
    if not names:
        return []
    if not rows:
        raise InfeasibleLevels(
            "no combination of the given levels satisfies the constraints")
    rows = sorted(rows)
    if len(names) == 1:
        return [_wrap(scenario, {names[0]: row[0]}, method, i)
                for i, row in enumerate(rows)]

    pair_sets = [_row_pairs(row) for row in rows]
    all_pairs: set = set().union(*pair_sets)

    lower_bound = 0
    for i, j in combinations(range(len(names)), 2):
        distinct = {((i, row[i]), (j, row[j])) for row in rows}
        lower_bound = max(lower_bound, len(distinct))

    chosen = _search_minimal(rows, pair_sets, all_pairs, lower_bound, EXACT_SEARCH_NODES)
    if chosen is None:
        chosen = _greedy_cover(rows, pair_sets, all_pairs)

    return [_wrap(scenario, dict(zip(names, rows[index])), method, position)
            for position, index in enumerate(chosen)]


def _draw(rng: random.Random, parameter: Parameter) -> float:
    distribution = parameter.distribution
    if parameter.lo == parameter.hi:
        return parameter.lo
    if distribution is None or distribution.type == "uniform":
        return rng.uniform(parameter.lo, parameter.hi)
    # truncated gaussian: reject draws outside the range
    for _ in range(ATTEMPTS_PER_SAMPLE):
        value = rng.gauss(distribution.mean, distribution.stddev)
        if parameter.lo <= value <= parameter.hi:
            return value
    raise SamplingExhausted(
        f"truncated gaussian on {parameter.name!r} rejected {ATTEMPTS_PER_SAMPLE} draws")


def sample_random(scenario: LogicalScenario, n: int, seed: int) -> list[ConcreteScenario]:
    """Rejection sampling: draw per-parameter, accept if all constraints hold."""
    rng = random.Random(seed)
    accepted: list[ConcreteScenario] = []
    budget = n * ATTEMPTS_PER_SAMPLE
    attempts = 0
    while len(accepted) < n:
        if attempts >= budget:
            raise SamplingExhausted(
                f"accepted {len(accepted)}/{n} after {attempts} attempts; "
                "the feasible region is empty or nearly empty")
        attempts += 1
        assignments = {p.name: _draw(rng, p) for p in scenario.parameters}
        if _satisfies(scenario, assignments):
            accepted.append(_wrap(scenario, assignments, "random", len(accepted), seed=seed))
    return accepted


def derive_seed(master: int, index: int) -> int:
    """64-bit splitmix-style mix for per-scenario seed derivation."""
    z = (master ^ (index * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def coverage_metrics(scenario: LogicalScenario, levels: dict,
                     scenarios: list[ConcreteScenario]) -> CoverageReport:
    """Mechanical pair and boundary coverage, exact until the final division."""
    for concrete in scenarios:
        if concrete.source_ref.get("scenario_id") != scenario.scenario_id:
            raise SourceMismatch(f"scenario {concrete.scenario_id!r} references "
                                 f"{concrete.source_ref.get('scenario_id')!r}")

    names, value_lists, rows = _level_rows(scenario, levels)

    # every level list is non-empty, so each pair of distinct levels occurs in
    # some combination of the full product
    total_pairs = sum(len(set(a)) * len(set(b)) for a, b in combinations(value_lists, 2))
    feasible_pairs: set = set()
    for row in rows:
        feasible_pairs |= _row_pairs(row)

    covered: set = set()
    for concrete in scenarios:
        row = tuple(concrete.assignments.get(name) for name in names)
        covered |= _row_pairs(row) & feasible_pairs

    if feasible_pairs:
        pair_coverage = Fraction(len(covered), len(feasible_pairs))
    else:
        pair_coverage = Fraction(1)  # all of nothing is covered

    parameter_count = len(scenario.parameters)
    if parameter_count:
        hit = 0
        for parameter in scenario.parameters:
            values = {c.assignments.get(parameter.name) for c in scenarios}
            if parameter.lo in values and parameter.hi in values:
                hit += 1
        boundary_coverage = Fraction(hit, parameter_count)
    else:
        boundary_coverage = Fraction(1)

    return CoverageReport(
        pair_coverage=float(pair_coverage),
        boundary_coverage=float(boundary_coverage),
        scenario_count=len(scenarios),
        infeasible_combination_count=total_pairs - len(feasible_pairs),
    )


def concrete_to_dict(concrete: ConcreteScenario) -> dict:
    return {
        "format": "concrete/1",
        "scenario_id": concrete.scenario_id,
        "source_ref": dict(concrete.source_ref),
        "assignments": {k: float(v) for k, v in concrete.assignments.items()},
        "method": concrete.method,
        "seed": concrete.seed,
        "provenance": dict(concrete.provenance),
    }


def concrete_from_dict(document: dict) -> ConcreteScenario:
    check_document(document, "concrete scenario",
                   ("scenario_id", "source_ref", "assignments", "method"), "concrete/1")
    return ConcreteScenario(
        scenario_id=document["scenario_id"],
        source_ref=dict(document["source_ref"]),
        assignments={k: float(v) for k, v in document["assignments"].items()},
        method=document["method"],
        seed=document.get("seed"),
        provenance=dict(document.get("provenance", {})),
    )


def serialize_concrete(concrete: ConcreteScenario) -> str:
    return dumps_canonical(concrete_to_dict(concrete))


def deserialize_concrete(source: str) -> ConcreteScenario:
    return concrete_from_dict(load_json(source))


def concrete_hash(concrete: ConcreteScenario) -> str:
    return content_hash(concrete_to_dict(concrete))


def suite_to_dict(scenarios: list[ConcreteScenario], coverage: CoverageReport | None = None) -> dict:
    document: dict = {
        "format": "concrete-suite/1",
        "scenarios": [concrete_to_dict(c) for c in scenarios],
    }
    if coverage is not None:
        document["coverage"] = {
            "pair_coverage": coverage.pair_coverage,
            "boundary_coverage": coverage.boundary_coverage,
            "scenario_count": coverage.scenario_count,
            "infeasible_combination_count": coverage.infeasible_combination_count,
        }
    return document


def suite_from_dict(document: dict) -> list[ConcreteScenario]:
    check_document(document, "concrete suite", ("scenarios",), "concrete-suite/1")
    if not isinstance(document["scenarios"], list):
        raise SchemaViolation("concrete suite: 'scenarios' must be an array")
    return [concrete_from_dict(d) for d in document["scenarios"]]
