"""State-space intermediate representation: parameters, ranges, constraints.

A LogicalScenario is the machine-facing contract between the linguistic
front end and the concretization back end: named parameters with closed
ranges and optional distributions, plus inequality and correlation
constraints over those parameters.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

from . import expressions
from .canonical import (NUMBER, REQUIRED, SCENARIO_ID, SOURCE_REF, STRING, Choice, Field, List,
                        Number, Object, Record, Union, content_hash)
from .errors import Finding, Report, SchemaViolation, UnboundConstraintParameter

DISTRIBUTION_TYPES = ("uniform", "truncated-gaussian")
PARAMETER_KINDS = ("scalar-static", "scalar-initial")


@dataclass(frozen=True)
class Distribution:
    type: str
    mean: float | None = None
    stddev: float | None = None


@dataclass(frozen=True)
class Parameter:
    name: str  # qualified: <instance_id>.<local_name>
    unit: str
    lo: float
    hi: float
    distribution: Distribution | None = None
    kind: str = "scalar-static"  # scalar-static | scalar-initial
    provenance: tuple[tuple[str, str], ...] = ()

    @property
    def range(self) -> tuple[float, float]:
        return self.lo, self.hi


@dataclass(frozen=True)
class Inequality:
    id: str
    lhs: str
    op: str
    rhs: str
    provenance: tuple[tuple[str, str], ...] = ()
    kind = "inequality"  # the record's tag; a class attribute, not a field

    @cached_property
    def parsed(self) -> tuple:
        """The ``(lhs, rhs)`` expression ASTs, parsed once per instance."""
        return expressions.parse_expression(self.lhs), expressions.parse_expression(self.rhs)

    def variables(self) -> set[str]:
        lhs, rhs = self.parsed
        return expressions.expr_variables(lhs) | expressions.expr_variables(rhs)

    def holds(self, env: dict[str, float]) -> bool:
        lhs, rhs = self.parsed
        return expressions.comparison_holds(expressions.eval_expr(lhs, env), self.op,
                                            expressions.eval_expr(rhs, env))

    def compile(self, index: dict[str, int]) -> Callable[[tuple], bool]:
        """``holds`` as a closure over a row tuple; ``index`` maps names to positions."""
        lhs, rhs = self.parsed
        return expressions.compile_comparison(lhs, self.op, rhs, index)

    def describe(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"

    def renamed(self, id: str, rename: Callable[[str], str], provenance) -> Inequality:
        """This constraint under ``id``, each variable ``name`` read as ``rename(name)``."""
        lhs, rhs = (expressions.format_expr(expressions.rename_expr(side, rename))
                    for side in self.parsed)
        return replace(self, id=id, lhs=lhs, rhs=rhs, provenance=provenance)


@dataclass(frozen=True)
class Correlation:
    """target within slope*source + intercept, plus/minus tolerance (inclusive)."""

    id: str
    target: str
    source: str
    slope: float
    intercept: float
    tolerance: float
    provenance: tuple[tuple[str, str], ...] = ()
    kind = "correlation"  # the record's tag; a class attribute, not a field

    def variables(self) -> set[str]:
        return {self.target, self.source}

    def holds(self, env: dict[str, float]) -> bool:
        center = self.slope * env[self.source] + self.intercept
        return abs(env[self.target] - center) <= self.tolerance

    def compile(self, index: dict[str, int]) -> Callable[[tuple], bool]:
        """``holds`` as a closure over a row tuple; ``index`` maps names to positions."""
        target, source = index[self.target], index[self.source]
        slope, intercept, tolerance = self.slope, self.intercept, self.tolerance
        return lambda row: abs(row[target] - (slope * row[source] + intercept)) <= tolerance

    def describe(self) -> str:
        return (f"{self.target} = {self.slope!r}*{self.source} + {self.intercept!r} "
                f"+- {self.tolerance!r}")

    def renamed(self, id: str, rename: Callable[[str], str], provenance) -> Correlation:
        """This constraint under ``id``, each variable ``name`` read as ``rename(name)``."""
        return replace(self, id=id, target=rename(self.target), source=rename(self.source),
                       provenance=provenance)


Constraint = Inequality | Correlation


@dataclass(frozen=True)
class LogicalScenario:
    scenario_id: str
    source_ref: dict = field(default_factory=dict)
    parameters: tuple[Parameter, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    def parameter(self, name: str) -> Parameter | None:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        return None

    @cached_property
    def compiled(self) -> CompiledScenario:
        return CompiledScenario(self)

    @cached_property
    def digest(self) -> str:
        """The content hash of the canonical serialization (``logical_hash``),
        computed once per scenario."""
        return content_hash(logical_to_dict(self))


class CompiledScenario:
    """A logical scenario in evaluation form. A row is a tuple of parameter
    values in declaration order; each constraint becomes a closure over it.
    A constraint on an undeclared parameter is an ``UnboundConstraintParameter``."""

    def __init__(self, scenario: LogicalScenario):
        self.names = tuple(p.name for p in scenario.parameters)
        index = {name: n for n, name in enumerate(self.names)}  # a repeated name: the last
        positions, checks = [], []
        for constraint in scenario.constraints:
            variables = constraint.variables()
            unknown = variables - index.keys()
            if unknown:
                raise UnboundConstraintParameter(
                    f"constraint {constraint.id} references undeclared parameters: "
                    f"{sorted(unknown)}")
            positions.append(tuple(sorted({index[name] for name in variables})))
            checks.append(constraint.compile(index))
        self.positions = tuple(positions)  # per constraint, the row positions it reads
        self.checks = tuple(checks)  # per constraint, ``row -> bool``

    def components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Connected components of the constraint graph: (row positions,
        constraint numbers), both ascending. Positions that no constraint
        reads, and constraints that read no position, are in none."""
        groups: list[tuple[set[int], list[int]]] = []
        for number, positions in enumerate(self.positions):
            if not positions:
                continue
            joined, numbers = set(positions), [number]
            for group in [g for g in groups if g[0] & joined]:
                groups.remove(group)
                joined |= group[0]
                numbers += group[1]
            groups.append((joined, numbers))
        return [(tuple(sorted(p)), tuple(sorted(n))) for p, n in groups]


ValidationReport = Report


def range_findings(name: str, lo: float, hi: float,
                   distribution: Distribution | None) -> list[Finding]:
    """``NON_FINITE_RANGE``, ``EMPTY_RANGE`` and ``BAD_DISTRIBUTION`` findings
    for one parameter. A bound, mean or stddev must be a finite number."""
    findings = []
    if not (math.isfinite(lo) and math.isfinite(hi)):
        findings.append(Finding("NON_FINITE_RANGE",
                                f"{name}: range [{lo}, {hi}] is not finite", (name,)))
    elif lo > hi:
        findings.append(Finding("EMPTY_RANGE", f"{name}: range [{lo}, {hi}] is empty", (name,)))
    if distribution is None:
        return findings
    if distribution.type not in DISTRIBUTION_TYPES:
        findings.append(Finding("BAD_DISTRIBUTION",
                                f"{name}: unknown distribution {distribution.type!r}", (name,)))
    elif distribution.type == "truncated-gaussian":
        stddev, mean = distribution.stddev, distribution.mean
        if stddev is None or stddev <= 0:
            findings.append(Finding("BAD_DISTRIBUTION", f"{name}: stddev must be > 0", (name,)))
        elif not math.isfinite(stddev):
            findings.append(Finding("BAD_DISTRIBUTION", f"{name}: stddev is not finite", (name,)))
        if mean is None or not math.isfinite(mean):
            findings.append(Finding("BAD_DISTRIBUTION", f"{name}: mean is not finite", (name,)))
        elif not lo <= mean <= hi:
            findings.append(Finding("BAD_DISTRIBUTION", f"{name}: mean outside range", (name,)))
    return findings


def validate_logical(scenario: LogicalScenario) -> Report:
    """Invariant checks plus a sound-but-incomplete interval feasibility check."""
    findings: list[Finding] = []

    seen: set[str] = set()
    for parameter in scenario.parameters:
        if parameter.name in seen:
            findings.append(Finding("DUPLICATE_PARAMETER",
                                    f"parameter {parameter.name!r} declared twice",
                                    (parameter.name,)))
        seen.add(parameter.name)
        findings.extend(range_findings(parameter.name, parameter.lo, parameter.hi,
                                       parameter.distribution))

    env = {p.name: (p.lo, p.hi) for p in scenario.parameters}
    non_finite = {p.name for p in scenario.parameters
                  if not (math.isfinite(p.lo) and math.isfinite(p.hi))}
    for constraint in scenario.constraints:
        unknown = constraint.variables() - set(env)
        if unknown:
            findings.append(Finding("UNKNOWN_PARAMETER",
                                    f"constraint {constraint.id} references undeclared "
                                    f"parameters: {sorted(unknown)}", (constraint.id,)))
            continue
        if constraint.variables() & non_finite:
            continue  # no interval check on a range already reported as not finite
        if isinstance(constraint, Inequality):
            lhs = expressions.interval_expr(constraint.parsed[0], env)
            rhs = expressions.interval_expr(constraint.parsed[1], env)
            possible = expressions.comparison_possible(lhs, constraint.op, rhs)
        else:
            source_lo, source_hi = env[constraint.source]
            center = sorted((constraint.slope * source_lo + constraint.intercept,
                             constraint.slope * source_hi + constraint.intercept))
            band = (center[0] - constraint.tolerance, center[1] + constraint.tolerance)
            target = env[constraint.target]
            possible = band[0] <= target[1] and target[0] <= band[1]
        if not possible:
            findings.append(Finding("INTERVAL_INFEASIBLE",
                                    f"constraint {constraint.id} ({constraint.describe()}) "
                                    "cannot be satisfied within the declared ranges",
                                    (constraint.id,)))

    return Report(findings=tuple(findings))


# A range bound, mean or stddev that is not finite is left to ``range_findings``.
BOUND = Number(finite=False)


class _Range:
    """A ``[lo, hi]`` array of JSON numbers, read as a pair of floats."""

    plural = "ranges"
    encode = list

    def decode(self, value, where: str, key=None) -> tuple[float, float]:
        if not (isinstance(value, list) and len(value) == 2):
            raise SchemaViolation(f"{where}.{key} must be an array [lo, hi]")
        lo, hi = (BOUND.decode(bound, where, key) for bound in value)
        return lo, hi


RANGE = _Range()
# Where a parameter or a constraint came from; other keys are kept as read.
PROVENANCE = Object(lambda record: tuple(sorted(record.items())), instance=STRING, term=STRING,
                    override=STRING, attribute=STRING, relation=STRING, arguments=STRING)
# A uniform distribution ignores, but keeps, a mean and stddev it is given.
DISTRIBUTION = Union(
    "type",
    Record(partial(Distribution, "uniform"), Field("mean", BOUND, None, omit=True),
           Field("stddev", BOUND, None, omit=True), tag=("type", "uniform")),
    Record(partial(Distribution, "truncated-gaussian"), Field("mean", BOUND),
           Field("stddev", BOUND), tag=("type", "truncated-gaussian")))


def _parameter(range, **fields) -> Parameter:
    return Parameter(lo=range[0], hi=range[1], **fields)


def _parsed(constraint: Inequality, where: str) -> Inequality:
    constraint.parsed  # a malformed expression fails the load, not a later use
    return constraint


def parameter_record(unit=REQUIRED) -> Record:
    """The parameter table; a catalog template's ``unit`` defaults to ``""``."""
    return Record(_parameter, Field("name", STRING), Field("unit", STRING, unit),
                  Field("range", RANGE), Field("distribution", DISTRIBUTION, None),
                  Field("kind", Choice(PARAMETER_KINDS), "scalar-static"),
                  Field("provenance", PROVENANCE, ()))


def constraint_record(id=REQUIRED) -> Union:
    """The constraint tables; a catalog template's ``id`` defaults to ``""``."""
    identifier, provenance = Field("id", STRING, id), Field("provenance", PROVENANCE, ())
    return Union(
        "kind",
        Record(Inequality, identifier, Field("lhs", STRING),
               Field("op", Choice(expressions.COMPARATORS)), Field("rhs", STRING), provenance,
               tag=("kind", "inequality"), check=_parsed),
        Record(Correlation, identifier, Field("target", STRING), Field("source", STRING),
               Field("slope", NUMBER), Field("intercept", NUMBER),
               Field("tolerance", Number(minimum=0.0)), provenance, tag=("kind", "correlation")))


LOGICAL = Record(LogicalScenario, Field("scenario_id", SCENARIO_ID),
                 Field("source_ref", SOURCE_REF), Field("parameters", List(parameter_record())),
                 Field("constraints", List(constraint_record())), tag=("format", "logical/1"),
                 name="logical")


logical_to_dict = LOGICAL.encode
logical_from_dict = LOGICAL.decode
serialize_logical = LOGICAL.dumps
deserialize_logical = LOGICAL.loads


def logical_hash(scenario: LogicalScenario) -> str:
    return scenario.digest
