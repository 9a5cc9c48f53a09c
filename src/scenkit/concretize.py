"""Derive concrete scenarios from a logical scenario.

``generate_suite`` chooses each method's levels and compiles them once
(``compile_levels``), each constraint component's feasible level rows as one
decision diagram; the suite's cover and its coverage both read that form.
Generators propose full assignments, the checker disposes: constraints are
verified by substitution only, so feasibility logic lives in one place. All
generators are pure functions of their inputs and the seed. Every consumer
evaluates constraints through the scenario's compiled form, over a row tuple.
"""

import random
from collections import Counter
from operator import itemgetter
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
    ScenarioError,
    SchemaViolation,
    SourceMismatch,
)
from .logical import LogicalScenario, Parameter

ATTEMPTS_PER_SAMPLE = 1000  # rejection budget per requested sample
# Like ``testcase.MAX_SAMPLES``, a bound past any real use that keeps memory
# finite: every scenario of a suite is held in memory and becomes one case
# file. A pairwise or equivalence suite over two parameters of k classes has
# k² scenarios, so k is bounded by the square root.
MAX_SCENARIOS = 1_000_000
MAX_CLASSES = 1_000


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
    if k > MAX_CLASSES:
        raise BadK(f"k must be <= {MAX_CLASSES}, got {k}")
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


def _no_pairs(sizes: list[int]) -> list:
    """An empty set of level pairs over parameters of ``sizes`` levels:
    ``blocks[j][i][b]``, for ``i < j``, is an int whose bit ``a`` is the pair
    of level ``a`` of ``i`` and level ``b`` of ``j``."""
    return [[[0] * size for _ in range(j)] for j, size in enumerate(sizes)]


def _components(scenario: LogicalScenario,
                value_lists: list[list[float]]) -> list[tuple[tuple[int, ...], list]]:
    """(positions, diagram) of each component of ``compiled.components()``: its
    feasible partial rows as a layered decision diagram over level indices,
    ``diagram[d][n] = {level: next node}`` for the ``d``-th of ``positions``.
    Layers 0 and ``len(positions)`` have one node each; a node may reach no
    end. A level row satisfies every constraint iff each constraint without
    parameters holds and its levels on each component are a root-to-end path.

    Layers are built one position at a time, each check due where its last
    parameter is placed (Haralick & Elliott, Artif. Intell. 14, 1980). Two
    prefixes are one node when they agree on every placed level that a check
    not yet due reads, so the merge is exact (Bergman, Ciré, van Hoeve &
    Hooker, Decision Diagrams for Optimization, 2016). The position placed
    next is the one that leaves the fewest placed positions read by a check
    not yet due; the lowest wins ties. Raises ``InfeasibleLevels`` naming a
    false constraint without parameters, or the constraints of the first
    component with no path.
    """
    compiled = scenario.compiled
    for constraint, positions, check in zip(scenario.constraints, compiled.positions,
                                            compiled.checks):
        if not positions and not check(()):
            raise InfeasibleLevels(f"constraint {constraint.id} is false: {constraint.describe()}")
    components = []
    full: list = [None] * len(value_lists)
    for positions, numbers in compiled.components():
        reads = [(set(compiled.positions[n]), compiled.checks[n]) for n in numbers]
        order, keys, diagram = [], [], []  # keys: the placed positions that a pending check reads
        nodes: dict = {(): 0}  # per node of the layer, its levels at ``keys``
        while len(order) < len(positions):
            # per position not placed, the placed positions still read once it is
            kept = {p: sorted({q for read, _ in reads if not read <= now for q in read & now})
                    for p in set(positions) - set(order) for now in [{*order, p}]}
            position = min(kept, key=lambda p: (len(kept[p]), p))
            order.append(position)
            checks = [check for read, check in reads if position in read and read <= {*order}]
            # where each kept position sits in a node's levels extended by the new level
            pick = [keys.index(q) if q != position else len(keys) for q in kept[position]]
            layer, nxt = [], {}  # the layer's edges, and the next layer's nodes
            for key in nodes:
                layer.append(edges := {})
                for q, level in zip(keys, key):
                    full[q] = value_lists[q][level]
                for level, value in enumerate(value_lists[position]):
                    full[position] = value
                    if all(check(full) for check in checks):
                        extended = key + (level,)
                        edges[level] = nxt.setdefault(tuple(extended[i] for i in pick), len(nxt))
            diagram.append(layer)
            nodes, keys = nxt, kept[position]
        if not nodes:
            ids = ", ".join(scenario.constraints[n].id for n in numbers)
            raise InfeasibleLevels(f"no combination of the given levels satisfies constraints {ids}")
        components.append((tuple(order), diagram))
    return components


def _paths(diagram: list, fixed: dict) -> list[int]:
    """Per depth of a ``_components`` diagram, the levels (bit ``a`` for level
    ``a``) on a root-to-end path taking level ``fixed[d]`` at each depth ``d`` of
    ``fixed``: one pass forward over the edges that agree, one back to the end."""
    steps, reached = [], {0}
    for depth, layer in enumerate(diagram):
        steps.append([(n, a, layer[n][a]) for n in reached
                      for a in ((fixed[depth],) if depth in fixed else layer[n]) if a in layer[n]])
        reached = {child for _, _, child in steps[-1]}
    levels = [0] * len(diagram)
    for depth in reversed(range(len(diagram))):
        ends, reached = reached, set()
        for n, a, child in steps[depth]:
            if child in ends:
                levels[depth] |= 1 << a
                reached.add(n)
    return levels


def compile_levels(scenario: LogicalScenario, levels: dict) -> tuple:
    """A suite's ``levels`` as (value lists, sizes, component diagrams, feasible
    pairs, infeasible). Each value list is ascending and keeps the first listed
    of equal values (``-0.0`` or ``0.0``). If ``_components`` raises, no pair is
    feasible and ``infeasible`` holds its ``InfeasibleLevels``; else None."""
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
                raise SchemaViolation(f"level {value!r} outside range of {parameter.name!r}")
        value_lists.append(sorted(dict.fromkeys(values)))
    sizes = [len(values) for values in value_lists]
    try:
        components = _components(scenario, value_lists)
    except InfeasibleLevels as infeasible:
        return value_lists, sizes, [], _no_pairs(sizes), infeasible
    return value_lists, sizes, components, _feasible_pairs(sizes, components), None


def _orthogonal_array(sizes: list[int]) -> list[list[int]] | None:
    """Bose's orthogonal array of strength 2 (Bose, Sankhya 3, 1938): for ``s``
    levels each, ``s`` prime, and at most ``s + 1`` parameters, the ``s * s``
    rows ``(a, b, a + b, 2a + b, ...) mod s`` show every level pair exactly
    once, which meets the lower bound. None for any other shape."""
    s = min(sizes, default=0)
    if (s < 2 or len(sizes) > s + 1 or any(size != s for size in sizes)
            or any(s % d == 0 for d in range(2, s))):
        return None
    return [[a, *((m * a + b) % s for m in range(len(sizes) - 1))]
            for a in range(s) for b in range(s)]


def _density_rows(sizes: list[int], components: list, feasible: list) -> list[list[int]]:
    """Rows of level indices covering the level pairs of ``feasible`` (in the
    form of ``_no_pairs``, left as it is), built one at a time by the density
    method of the AETG family (Cohen et al., IEEE TSE 1997; Bryce & Colbourn,
    STVR 2007).

    A row starts from the parameter pair (i, j) with the most uncovered pairs,
    the first in ``(i, j) for j for i < j`` order winning ties, set to its
    first uncovered level pair by j's level, then i's. The other parameters
    follow, the one in the most uncovered pairs at the row's start first and
    declaration order breaking ties. Each takes the level that covers the most
    new pairs, the lowest level winning ties. A parameter of a constraint
    component takes only a level on some path of the component's diagram
    that takes the levels already placed in it (``_paths``; the free levels
    of each component are found once), so every row satisfies every
    constraint. Every row covers its starting pair, so the loop ends. Each
    parameter pair's count of uncovered pairs is kept as rows cover them, and
    a level is scored by one bit test per placed parameter, so a row's cost
    does not grow with the number of level pairs.
    """
    count = len(sizes)
    uncovered = [[list(block) for block in column] for column in feasible]
    pairs = [(i, j) for j in range(count) for i in range(j)]
    counts = [sum(field.bit_count() for field in uncovered[j][i]) for i, j in pairs]
    home = {p: (number, depth) for number, (positions, _) in enumerate(components)
            for depth, p in enumerate(positions)}
    free = [_paths(diagram, {}) for _, diagram in components]
    suite = []
    while any(counts):
        i, j = pairs[counts.index(max(counts))]
        b, field = next((b, field) for b, field in enumerate(uncovered[j][i]) if field)
        seed = {i: (field & -field).bit_length() - 1, j: b}
        involved = [0] * count
        for (p, q), pair_count in zip(pairs, counts):
            involved[p] += pair_count
            involved[q] += pair_count
        order = sorted((p for p in range(count) if p not in seed), key=lambda p: -involved[p])

        fixed: list[dict] = [{} for _ in components]  # per component, the levels placed by depth
        row: list = [None] * count
        sequence = (i, j, *order)
        for position, p in enumerate(sequence):
            number, depth = home.get(p, (None, None))
            level = seed.get(p)
            if level is None:
                levels = range(sizes[p])
                if number is not None:
                    placed = fixed[number]
                    allowed = _paths(components[number][1], placed) if placed else free[number]
                    levels = [a for a in levels if allowed[depth] >> a & 1]
                scores = [0] * sizes[p]  # new pairs per level
                for q in sequence[:position]:
                    if q < p:
                        a = row[q]
                        scores = [s + (field >> a & 1) for s, field in zip(scores, uncovered[p][q])]
                    else:
                        field = uncovered[q][p][row[q]]
                        scores = [s + (field >> n & 1) for n, s in enumerate(scores)]
                level = max(levels, key=scores.__getitem__)
            row[p] = level
            if number is not None:
                fixed[number][depth] = level
        for number, (p, q) in enumerate(pairs):
            block, bit = uncovered[q][p], 1 << row[p]
            if block[row[q]] & bit:
                block[row[q]] ^= bit
                counts[number] -= 1
        suite.append(row)
    return suite


def pairwise_cover(scenario: LogicalScenario, form: tuple,
                   method: str = "pairwise") -> list[ConcreteScenario]:
    """Covering suite of a ``compile_levels`` form (or its ``InfeasibleLevels``):
    every feasible level pair appears in >= 1 scenario.

    Feasibility is decided per constraint component, so the suite never
    contains a constraint-violating scenario, pairs without any feasible
    completion are simply excluded, and the level product is never
    enumerated. One parameter lists its feasible levels. Without constraints,
    a shape that Bose's orthogonal array fits gets its ``s * s`` rows; every
    other suite is built by ``_density_rows``. Rows are level indices until
    each is wrapped here. ``method`` labels the scenarios and their ids.
    """
    value_lists, sizes, components, feasible, infeasible = form
    if infeasible:
        raise infeasible
    if len(sizes) == 1:
        levels = _paths(components[0][1], {})[0] if components else (1 << sizes[0]) - 1
        rows = [(a,) for a in range(sizes[0]) if levels >> a & 1]
    elif components or (rows := _orthogonal_array(sizes)) is None:
        rows = _density_rows(sizes, components, feasible)
    wrap = _wrapper(scenario, method)
    names = scenario.compiled.names
    return [wrap({name: values[n] for name, values, n in zip(names, value_lists, row)}, position)
            for position, row in enumerate(rows)]


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
    """Rejection sampling: draw per-parameter, accept if all constraints hold.
    Each rejected draw is counted against the first constraint it breaks."""
    if n < 1:
        raise BadN(f"n must be >= 1, got {n}")
    if n > MAX_SCENARIOS:
        raise BadN(f"n must be <= {MAX_SCENARIOS}, got {n}")
    compiled = scenario.compiled
    wrap = _wrapper(scenario, "random", seed)
    rng = random.Random(seed)
    accepted: list[ConcreteScenario] = []
    rejected: Counter = Counter()
    budget = n * ATTEMPTS_PER_SAMPLE
    attempts = 0
    while len(accepted) < n:
        if attempts >= budget:
            counts = ", ".join(f"{name} ({count})" for name, count in rejected.most_common())
            raise SamplingExhausted(
                f"accepted {len(accepted)}/{n} after {attempts} attempts; "
                f"the feasible region is empty or nearly empty; draws rejected by {counts}")
        attempts += 1
        row = tuple(_draw(rng, p) for p in scenario.parameters)
        for constraint, check in zip(scenario.constraints, compiled.checks):
            if not check(row):
                rejected[constraint.id] += 1
                break
        else:
            accepted.append(wrap(dict(zip(compiled.names, row)), len(accepted)))
    return accepted


METHODS = ("boundary", "equivalence", "pairwise", "random")


def generate_suite(scenario: LogicalScenario, method: str, k: int, n: int, seed: int):
    """Build a concrete suite by one of ``METHODS`` and measure its coverage;
    returns (scenarios, coverage). One ``compile_levels`` form serves both."""
    boundary = {p.name: boundary_values(p) for p in scenario.parameters}
    if method == "random":
        scenarios = sample_random(scenario, n, seed)
        return scenarios, coverage_metrics(scenario, compile_levels(scenario, boundary), scenarios)
    if method == "boundary":
        levels = boundary
    elif method == "equivalence":
        levels = {p.name: equivalence_classes(p, k) for p in scenario.parameters}
    elif method == "pairwise":
        levels = {p.name: boundary[p.name] + equivalence_classes(p, k) for p in scenario.parameters}
    else:
        raise ScenarioError(f"unknown method {method!r}")
    form = compile_levels(scenario, levels)
    scenarios = pairwise_cover(scenario, form, method)
    return scenarios, coverage_metrics(scenario, form, scenarios)


def derive_seed(master: int, index: int) -> int:
    """64-bit splitmix-style mix for per-scenario seed derivation."""
    z = (master ^ (index * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _feasible_pairs(sizes: list[int], components: list) -> list:
    """The level pairs (in the form of ``_no_pairs``) that occur in some level
    row satisfying every constraint, from the diagrams of ``_components``.

    A pair inside one component is feasible if some path of its diagram takes
    both levels: for ``i < j``, ``blocks[j][i][b]`` is the levels of ``i`` on
    the paths that take level ``b`` of ``j``. A pair across components is
    feasible if each of its levels is on a path of its own component. A
    parameter in no constraint has every level feasible.
    """
    blocks = _no_pairs(sizes)
    found = [(1 << size) - 1 for size in sizes]  # per position, its feasible levels
    group = list(range(len(sizes)))  # per position, a label shared by its component
    for positions, diagram in components:
        free = _paths(diagram, {})
        for depth, j in enumerate(positions):
            found[j], group[j] = free[depth], positions[0]
            for b in range(sizes[j]):
                for i, levels in zip(positions, _paths(diagram, {depth: b})):
                    if i < j:
                        blocks[j][i][b] = levels
    for j, levels in enumerate(found):
        for i in range(j):
            if group[i] != group[j]:
                blocks[j][i] = [found[i] if levels >> b & 1 else 0 for b in range(sizes[j])]
    return blocks


def coverage_metrics(scenario: LogicalScenario, form: tuple,
                     scenarios: list[ConcreteScenario]) -> CoverageReport:
    """Pair and boundary coverage over a ``compile_levels`` form, exact until the division."""
    for concrete in scenarios:
        check_source(scenario, concrete)

    value_lists, sizes, _, feasible, _ = form
    # the suite's values as level indices; a value that is not a level gets the index past the last
    indexes = [{value: n for n, value in enumerate(values)} for values in value_lists]
    rows = [[index.get(concrete.assignments.get(name), size)
             for name, index, size in zip(scenario.compiled.names, indexes, sizes)]
            for concrete in scenarios]
    pair_count = feasible_count = covered_count = 0
    for j, size in enumerate(sizes):
        for i in range(j):
            pair_count += sizes[i] * size
            covered = [0] * (size + 1)  # bit a of covered[b]: level a of i with level b of j
            for a, b in set(map(itemgetter(i, j), rows)):
                covered[b] |= 1 << a
            for field, covered_field in zip(feasible[j][i], covered):
                feasible_count += field.bit_count()
                covered_count += (field & covered_field).bit_count()
    hit = sum({p.lo, p.hi} <= {c.assignments.get(p.name) for c in scenarios}
              for p in scenario.parameters)
    parameter_count = len(scenario.parameters)

    # int / int rounds the exact ratio once; all of nothing is covered
    return CoverageReport(
        pair_coverage=covered_count / feasible_count if feasible_count else 1.0,
        boundary_coverage=hit / parameter_count if parameter_count else 1.0,
        scenario_count=len(scenarios),
        infeasible_combination_count=pair_count - feasible_count,
    )


def _distinct_ids(suite: tuple, where: str) -> tuple:
    """A suite lists each scenario id once."""
    seen: set[str] = set()
    for concrete in suite[0]:
        if concrete.scenario_id in seen:
            raise SchemaViolation(f"{where}: scenario {concrete.scenario_id!r} is listed twice")
        seen.add(concrete.scenario_id)
    return suite


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
               check=_distinct_ids, name="suite")


concrete_to_dict = CONCRETE.encode
concrete_from_dict = CONCRETE.decode
serialize_concrete = CONCRETE.dumps
deserialize_concrete = CONCRETE.loads
concrete_hash = CONCRETE.digest


def suite_to_dict(scenarios: list[ConcreteScenario], coverage: CoverageReport | None = None) -> dict:
    return SUITE.encode((scenarios, coverage))


def suite_from_dict(document: dict) -> list[ConcreteScenario]:
    return list(SUITE.decode(document)[0])
