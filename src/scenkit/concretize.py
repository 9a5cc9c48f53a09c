"""Derive concrete scenarios from a logical scenario.

Generators propose full assignments, the checker disposes: constraints are
verified by substitution only, so feasibility logic lives in one place.
All generators are pure functions of their inputs and the seed. Every
consumer evaluates constraints through the scenario's compiled form, which
reads a row tuple in parameter order.
"""

from __future__ import annotations

import random
from itertools import product
from typing import NamedTuple

from .canonical import (
    EMPTY,
    INTEGER,
    NUMBER,
    NUMBERS,
    SOURCE_REF,
    STRING,
    Field,
    List,
    Object,
    Record,
)
from .errors import (
    BadK,
    BadN,
    Finding,
    InfeasibleLevels,
    SamplingExhausted,
    SchemaViolation,
    SourceMismatch,
)
from .logical import LogicalScenario, Parameter

ATTEMPTS_PER_SAMPLE = 1000  # rejection budget per requested sample
EXACT_SEARCH_NODES = 200_000  # candidate-evaluation budget for the minimal-suite search


class ConcreteScenario(NamedTuple):
    scenario_id: str
    source_ref: dict = EMPTY
    assignments: dict = EMPTY  # parameter name -> value
    method: str = "random"  # boundary | equivalence | pairwise | random
    seed: int | None = None
    provenance: dict = EMPTY


class CoverageReport(NamedTuple):
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


def _violations(scenario: LogicalScenario, assignments: dict) -> list[Finding]:
    violations: list[Finding] = []
    declared = {p.name for p in scenario.parameters}
    for name in assignments:
        if name not in declared:
            violations.append(Finding("UNKNOWN_ASSIGNMENT",
                                      f"assignment for undeclared parameter {name!r}", (name,)))
    for parameter in scenario.parameters:
        if parameter.name not in assignments:
            violations.append(Finding("MISSING_ASSIGNMENT",
                                      f"parameter {parameter.name!r} is unassigned",
                                      (parameter.name,)))
            continue
        value = assignments[parameter.name]
        if not parameter.lo <= value <= parameter.hi:
            violations.append(Finding(
                "RANGE", f"{parameter.name} = {value!r} outside [{parameter.lo!r}, {parameter.hi!r}]",
                (parameter.name,)))
    if not violations:
        compiled = scenario.compiled
        row = tuple(assignments[name] for name in compiled.names)
        for constraint, check in zip(scenario.constraints, compiled.checks):
            if not check(row):
                violations.append(Finding("CONSTRAINT", f"constraint {constraint.id} violated: "
                                          f"{constraint.describe()}", (constraint.id,)))
    return violations


def check_source(scenario: LogicalScenario, concrete: ConcreteScenario) -> None:
    """The one source-reference rule: ``concrete`` names ``scenario``'s id and,
    if its reference has a hash, ``scenario``'s digest."""
    if concrete.source_ref.get("scenario_id") != scenario.scenario_id:
        raise SourceMismatch(
            f"concrete scenario {concrete.scenario_id!r} references "
            f"{concrete.source_ref.get('scenario_id')!r}, not {scenario.scenario_id!r}")
    expected_hash = concrete.source_ref.get("hash")
    if expected_hash is not None and expected_hash != scenario.digest:
        raise SourceMismatch(f"concrete scenario {concrete.scenario_id!r} references a "
                             "different revision of the logical scenario")


def check_concrete(scenario: LogicalScenario, concrete: ConcreteScenario) -> list[Finding]:
    check_source(scenario, concrete)
    return _violations(scenario, concrete.assignments)


def _wrapper(scenario: LogicalScenario, method: str, seed: int | None = None):
    """``wrap(assignments, index)`` for one suite: the source reference and the
    provenance are computed once, not once per scenario."""
    source_ref = {"scenario_id": scenario.scenario_id, "hash": scenario.digest}
    defaulted = sorted(p.name for p in scenario.parameters if p.distribution is None)

    def wrap(assignments: dict, index: int) -> ConcreteScenario:
        return ConcreteScenario(
            scenario_id=f"{scenario.scenario_id}-{method}-{index:04d}",
            source_ref=dict(source_ref),
            assignments=dict(assignments),
            method=method,
            seed=seed,
            provenance={"default_uniform": list(defaulted)},
        )
    return wrap


def _value_lists(scenario: LogicalScenario, levels: dict) -> list[list[float]]:
    """Each parameter's levels, ascending, keeping the first of equal values
    (so ``-0.0`` or ``0.0``, whichever is listed first)."""
    missing = [p.name for p in scenario.parameters if p.name not in levels]
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
        value_lists.append(sorted(dict.fromkeys(values)))
    return value_lists


class _PairLayout:
    """One bit per level pair ``(i, value_i, j, value_j)`` with ``i < j``, for
    the distinct level lists of ``_value_lists``.

    Every parameter value also has a one-hot bit, numbered in declaration
    order. The pairs of value ``b`` of parameter ``j`` with all earlier
    parameters form one block, laid out like those one-hot bits, so the pairs
    a row adds at ``j`` are the one-hot bits of its earlier values, shifted to
    the block of ``b``.
    """

    def __init__(self, value_lists: list[list[float]]):
        self.onehots: list[dict] = []  # per parameter: value -> its one-hot bit
        self.shifts: list[dict] = []  # per parameter: value -> start of its pair block
        self.spans: list[tuple[int, int]] = []  # per parameter: (first one-hot bit, count)
        slots = 0  # one-hot bits of the earlier parameters
        size = 0
        for values in value_lists:
            self.onehots.append({v: 1 << (slots + n) for n, v in enumerate(values)})
            self.shifts.append({v: size + n * slots for n, v in enumerate(values)})
            self.spans.append((slots, len(values)))
            size += len(values) * slots
            slots += len(values)
        self.size = size  # every distinct level pair

    def encode(self, row) -> tuple[int, int]:
        """(pairs, one-hot values) of a row; values that are not levels, and
        ``None`` for a position left out, add no bits."""
        pairs = values = 0
        for onehot, shifts, value in zip(self.onehots, self.shifts, row):
            shift = shifts.get(value)
            if shift is not None:
                pairs |= values << shift
                values |= onehot[value]
        return pairs, values

    def pair_counts(self, pairs: int):
        """The number of bits of ``pairs`` set for each parameter pair."""
        for j, shifts in enumerate(self.shifts):
            for start, count in self.spans[:j]:
                field = (1 << count) - 1
                yield sum((pairs >> (shift + start) & field).bit_count()
                          for shift in shifts.values())


def _level_masks(scenario: LogicalScenario, levels: dict):
    """``(layout, masks, row)`` for the rows of the level product that satisfy
    every constraint, in sorted order: ``masks[i]`` is ``layout.encode(row(i))[0]``.

    The level lists are sorted and distinct, so their nested product is
    already sorted. Masks grow one parameter at a time, and each constraint is
    checked once the last parameter it reads is placed: it reads nothing
    later, so the partial row decides it. Row tuples are kept only up to the
    last constrained parameter; the rest of the product is plain, so ``row``
    splits an index into a prefix number and a mixed-radix tail.
    """
    value_lists = _value_lists(scenario, levels)
    layout = _PairLayout(value_lists)
    compiled = scenario.compiled
    due: list[list] = [[] for _ in value_lists]  # checks by the last position they read
    feasible = True
    for positions, check in zip(compiled.positions, compiled.checks):
        if positions:
            due[positions[-1]].append(check)
        else:
            feasible = feasible and check(())
    split = max((positions[-1] + 1 for positions in compiled.positions if positions), default=0)

    grown = [((), 0, 0)] if feasible else []  # (row, pairs, one-hot values) of each prefix
    for position in range(split):
        steps = list(zip(value_lists[position], layout.shifts[position].values(),
                         layout.onehots[position].values()))
        grown = [(row + (value,), pairs | values << shift, values | onehot)
                 for row, pairs, values in grown for value, shift, onehot in steps]
        for check in due[position]:
            grown = [entry for entry in grown if check(entry[0])]
    prefixes = [row for row, _, _ in grown]
    masks = [pairs for _, pairs, _ in grown]
    placed = [values for _, _, values in grown]  # one-hot values of each row so far
    for position in range(split, len(value_lists)):
        shifts = list(layout.shifts[position].values())
        masks = [pairs | values << shift for pairs, values in zip(masks, placed) for shift in shifts]
        if position + 1 < len(value_lists):
            onehots = list(layout.onehots[position].values())
            placed = [values | onehot for values in placed for onehot in onehots]

    tail = value_lists[split:]

    def row(index: int) -> tuple:
        digits = []
        for values in reversed(tail):
            index, digit = divmod(index, len(values))
            digits.append(values[digit])
        return prefixes[index] + tuple(reversed(digits))

    return layout, masks, row


def _search_minimal(masks: list[int], all_pairs: int, size: int,
                    budget: int) -> list[int] | None:
    """Depth-first search for a covering suite of exactly ``size`` rows.

    Deterministic: rows are tried in lexicographic order under a fixed node
    budget. A node is one row whose gain a scan tests; the search gives up
    when it would test row ``budget + 1``. Returns row indices or None when
    no suite is found in budget.
    """
    remaining = budget
    count = len(masks)
    pairs_per_row = max((m.bit_count() for m in masks), default=0)

    def descend(start: int, chosen: list[int], uncovered: int, left: int) -> list[int] | None:
        nonlocal remaining
        if not uncovered:
            return list(chosen)
        slots = size - len(chosen)
        if slots <= 0 or slots * pairs_per_row < left:
            return None
        # best-effort cut: only pursue rows that keep up with the average
        # coverage the target size demands; uneven minimal suites are
        # missed here and handled by the greedy fallback instead
        need = -(-left // slots)
        position = start
        while True:
            # the budget left ends the scan and is charged after it; once it
            # is spent, every scan is empty and the search unwinds with None
            stop = min(count, position + remaining)
            for index in range(position, stop):
                if (uncovered & masks[index]).bit_count() >= need:
                    break
            else:
                remaining -= stop - position
                return None
            remaining -= index + 1 - position
            new = uncovered & masks[index]
            chosen.append(index)
            found = descend(index + 1, chosen, uncovered ^ new, left - new.bit_count())
            if found is not None:
                return found
            chosen.pop()
            position = index + 1

    return descend(0, [], all_pairs, all_pairs.bit_count())


def _no_cover_of(layout: _PairLayout, all_pairs: int, size: int) -> bool:
    """True when Rao's bound proves that no ``size`` rows cover ``all_pairs``.

    Gather, in declaration order, parameters of ``s`` distinct levels, with
    ``s * s == size``, whose every pair has all its ``s * s`` level pairs to
    cover. A ``size``-row cover shows each of those level pairs exactly once,
    so the gathered columns form an orthogonal array of strength 2, which
    needs ``size >= 1 + sum(s - 1)`` rows (Rao's bound; Hedayat, Sloane &
    Stufken, *Orthogonal Arrays*, Springer 1999). Columns of unequal level
    counts can pair up this way only two at a time, and two columns never
    break the bound, so none other is gathered. One column proves nothing.
    """
    level_counts = [count for _, count in layout.spans]
    pairs = [(i, j) for j in range(len(level_counts)) for i in range(j)]  # pair_counts' order
    full = {(i, j) for (i, j), count in zip(pairs, layout.pair_counts(all_pairs))
            if count == level_counts[i] * level_counts[j] == size}
    gathered: list[int] = []
    for j, count in enumerate(level_counts):
        if count * count == size and all((i, j) in full for i in gathered):
            gathered.append(j)
    return len(gathered) >= 2 and size < 1 + sum(level_counts[j] - 1 for j in gathered)


def _greedy_cover(masks: list[int], all_pairs: int) -> list[int]:
    """Pick the row covering the most uncovered pairs; first wins ties.

    A row's gain only falls as pairs get covered, so the gain last computed
    for it is a bound: a row whose bound cannot beat the best so far is
    skipped, and the scan stops once no row can.
    """
    uncovered = all_pairs
    bounds = [m.bit_count() for m in masks]
    ceiling = max(bounds, default=0)
    suite: list[int] = []
    while uncovered:
        cap = min(ceiling, uncovered.bit_count())
        best_index = -1
        best_new = 0
        for index, bound in enumerate(bounds):
            if bound <= best_new:
                continue
            new = (uncovered & masks[index]).bit_count()
            bounds[index] = new
            if new > best_new:
                best_index, best_new = index, new
                if new == cap:
                    break
        suite.append(best_index)
        uncovered &= ~masks[best_index]
    return suite


def pairwise_cover(scenario: LogicalScenario, levels: dict,
                   method: str = "pairwise") -> list[ConcreteScenario]:
    """Covering suite: every feasible level pair appears in >= 1 scenario.

    Feasibility is decided on the rows of the level product
    (``_level_masks``), so the suite never contains a constraint-violating
    scenario and pairs without any feasible completion are simply excluded.
    A bounded exact search tries to hit the lower bound (the largest
    single-pair level product) before falling back to the greedy
    construction. The search is skipped when ``_no_cover_of``
    proves by Rao's bound for orthogonal arrays that no suite of the lower
    bound's size exists; the greedy suite is then the same as after a search
    that finds nothing. ``method`` labels the scenarios and their ids.
    """
    layout, masks, row = _level_masks(scenario, levels)
    names = scenario.compiled.names
    if not names:
        return []
    if not masks:
        raise InfeasibleLevels(
            "no combination of the given levels satisfies the constraints")
    wrap = _wrapper(scenario, method)
    if len(names) == 1:
        return [wrap({names[0]: row(i)[0]}, i) for i in range(len(masks))]

    all_pairs = _feasible_pairs(scenario, layout)
    lower_bound = max(layout.pair_counts(all_pairs))

    chosen = None
    if not _no_cover_of(layout, all_pairs, lower_bound):
        chosen = _search_minimal(masks, all_pairs, lower_bound, EXACT_SEARCH_NODES)
    if chosen is None:
        chosen = _greedy_cover(masks, all_pairs)

    return [wrap(dict(zip(names, row(index))), position)
            for position, index in enumerate(chosen)]


def _draw(rng: random.Random, parameter: Parameter) -> float:
    lo, hi, distribution = parameter.lo, parameter.hi, parameter.distribution
    if lo == hi:
        return lo
    if distribution is None or distribution.type == "uniform":
        return rng.uniform(lo, hi)
    # truncated gaussian: reject draws outside the range
    for _ in range(ATTEMPTS_PER_SAMPLE):
        value = rng.gauss(distribution.mean, distribution.stddev)
        if lo <= value <= hi:
            return value
    raise SamplingExhausted(
        f"truncated gaussian on {parameter.name!r} rejected {ATTEMPTS_PER_SAMPLE} draws")


def sample_random(scenario: LogicalScenario, n: int, seed: int) -> list[ConcreteScenario]:
    """Rejection sampling: draw per-parameter, accept if all constraints hold."""
    if n < 1:
        raise BadN(f"n must be >= 1, got {n}")
    compiled = scenario.compiled
    wrap = _wrapper(scenario, "random", seed)
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
        row = tuple(_draw(rng, p) for p in scenario.parameters)
        if all(check(row) for check in compiled.checks):
            accepted.append(wrap(dict(zip(compiled.names, row)), len(accepted)))
    return accepted


def derive_seed(master: int, index: int) -> int:
    """64-bit splitmix-style mix for per-scenario seed derivation."""
    z = (master ^ (index * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _feasible_pairs(scenario: LogicalScenario, layout: _PairLayout) -> int:
    """The level pairs that occur in some level row satisfying every
    constraint, without enumerating the level product.

    Constraints link parameters into components that are independent of each
    other. A pair inside one component is feasible if it occurs in a feasible
    partial row of that component; a pair across components is feasible if
    each of its values occurs in one of its own component. Either way every
    component needs a feasible partial row, and every constant constraint
    must hold.
    """
    compiled = scenario.compiled
    for check, positions in zip(compiled.checks, compiled.positions):
        if not positions and not check(()):
            return 0
    fields = [sum(onehot.values()) for onehot in layout.onehots]  # value bits per position
    groups = list(fields)  # value bits of each position's component
    pairs = values = 0
    constrained: set[int] = set()
    for positions, numbers in compiled.components():
        checks = [compiled.checks[n] for n in numbers]
        found = 0
        full: list = [None] * len(fields)
        for row in product(*(layout.onehots[p] for p in positions)):
            for position, value in zip(positions, row):
                full[position] = value
            if all(check(full) for check in checks):
                row_pairs, row_values = layout.encode(full)
                pairs |= row_pairs
                found |= row_values
        if not found:
            return 0
        values |= found
        group = sum(fields[p] for p in positions)
        for position in positions:
            groups[position] = group
        constrained.update(positions)
    for position, field in enumerate(fields):
        if position not in constrained:
            values |= field  # in no constraint: every level is feasible

    earlier = 0  # value bits of the positions before the current one
    for position, onehot in enumerate(layout.onehots):
        others = values & earlier & ~groups[position]
        if others:
            for value, bit in onehot.items():
                if values & bit:
                    pairs |= others << layout.shifts[position][value]
        earlier |= fields[position]
    return pairs


def coverage_metrics(scenario: LogicalScenario, levels: dict,
                     scenarios: list[ConcreteScenario]) -> CoverageReport:
    """Mechanical pair and boundary coverage, exact until the final division."""
    for concrete in scenarios:
        check_source(scenario, concrete)

    layout = _PairLayout(_value_lists(scenario, levels))
    feasible = _feasible_pairs(scenario, layout)
    names = scenario.compiled.names
    covered = 0
    for concrete in scenarios:
        covered |= layout.encode([concrete.assignments.get(n) for n in names])[0]
    feasible_count = feasible.bit_count()
    hit = 0
    for parameter in scenario.parameters:
        values = {c.assignments.get(parameter.name) for c in scenarios}
        if parameter.lo in values and parameter.hi in values:
            hit += 1
    parameter_count = len(scenario.parameters)

    # int / int rounds the exact ratio once; all of nothing is covered
    return CoverageReport(
        pair_coverage=(covered & feasible).bit_count() / feasible_count if feasible_count else 1.0,
        boundary_coverage=hit / parameter_count if parameter_count else 1.0,
        scenario_count=len(scenarios),
        infeasible_combination_count=layout.size - feasible_count,
    )


CONCRETE = Record(ConcreteScenario, Field("scenario_id", STRING), Field("source_ref", SOURCE_REF),
                  Field("assignments", NUMBERS), Field("method", STRING),
                  Field("seed", INTEGER, None),
                  Field("provenance", Object(default_uniform=List(STRING)), dict),
                  tag=("format", "concrete/1"), name="concrete")
COVERAGE = Record(CoverageReport, Field("pair_coverage", NUMBER),
                  Field("boundary_coverage", NUMBER), Field("scenario_count", INTEGER),
                  Field("infeasible_combination_count", INTEGER))
# (scenarios, coverage or None)
SUITE = Record(tuple, Field("scenarios", List(CONCRETE)),
               Field("coverage", COVERAGE, None, omit=True), tag=("format", "concrete-suite/1"),
               name="suite")


concrete_to_dict = CONCRETE.encode
concrete_from_dict = CONCRETE.decode
serialize_concrete = CONCRETE.dumps
deserialize_concrete = CONCRETE.loads
concrete_hash = CONCRETE.digest


def suite_to_dict(scenarios: list[ConcreteScenario], coverage: CoverageReport | None = None) -> dict:
    return SUITE.encode((scenarios, coverage))


def suite_from_dict(document: dict) -> list[ConcreteScenario]:
    scenarios, _ = SUITE.decode(document)
    seen: set[str] = set()
    for concrete in scenarios:
        if concrete.scenario_id in seen:
            raise SchemaViolation(f"suite: scenario {concrete.scenario_id!r} is listed twice")
        seen.add(concrete.scenario_id)
    return list(scenarios)
