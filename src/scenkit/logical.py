"""State-space intermediate representation: parameters, ranges, constraints.

A LogicalScenario is the machine-facing contract between the linguistic
front end and the concretization back end: named parameters with closed
ranges and optional distributions, plus inequality and correlation
constraints over those parameters.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from . import expressions
from .canonical import check_document, check_object, content_hash, dumps_canonical, load_json
from .errors import Finding, Report, SchemaViolation, UnboundConstraintParameter

DISTRIBUTION_TYPES = ("uniform", "truncated-gaussian")


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
    """``EMPTY_RANGE`` and ``BAD_DISTRIBUTION`` findings for one parameter."""
    findings = []
    if lo > hi:
        findings.append(Finding("EMPTY_RANGE", f"{name}: range [{lo}, {hi}] is empty", (name,)))
    if distribution is None:
        return findings
    if distribution.type not in DISTRIBUTION_TYPES:
        findings.append(Finding("BAD_DISTRIBUTION",
                                f"{name}: unknown distribution {distribution.type!r}", (name,)))
    elif distribution.type == "truncated-gaussian":
        if distribution.stddev is None or distribution.stddev <= 0:
            findings.append(Finding("BAD_DISTRIBUTION", f"{name}: stddev must be > 0", (name,)))
        if distribution.mean is None or not lo <= distribution.mean <= hi:
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
    for constraint in scenario.constraints:
        unknown = constraint.variables() - set(env)
        if unknown:
            findings.append(Finding("UNKNOWN_PARAMETER",
                                    f"constraint {constraint.id} references undeclared "
                                    f"parameters: {sorted(unknown)}", (constraint.id,)))
            continue
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


def distribution_to_dict(distribution: Distribution | None):
    if distribution is None:
        return None
    record: dict = {"type": distribution.type}
    if distribution.type == "truncated-gaussian":
        record["mean"] = distribution.mean
        record["stddev"] = distribution.stddev
    return record


def distribution_from_dict(record) -> Distribution | None:
    if record is None:
        return None
    if not isinstance(record, dict) or "type" not in record:
        raise SchemaViolation("distribution must be null or an object with a 'type'")
    kind = record["type"]
    if kind == "uniform":
        return Distribution(type="uniform")
    if kind == "truncated-gaussian":
        return Distribution(type="truncated-gaussian",
                            mean=float(record["mean"]), stddev=float(record["stddev"]))
    raise SchemaViolation(f"unknown distribution type {kind!r}")


def _parameter_to_dict(parameter: Parameter) -> dict:
    return {
        "name": parameter.name,
        "unit": parameter.unit,
        "range": [parameter.lo, parameter.hi],
        "distribution": distribution_to_dict(parameter.distribution),
        "kind": parameter.kind,
        "provenance": dict(parameter.provenance),
    }


def _constraint_to_dict(constraint: Constraint) -> dict:
    if isinstance(constraint, Inequality):
        return {
            "id": constraint.id,
            "kind": "inequality",
            "lhs": constraint.lhs,
            "op": constraint.op,
            "rhs": constraint.rhs,
            "provenance": dict(constraint.provenance),
        }
    return {
        "id": constraint.id,
        "kind": "correlation",
        "target": constraint.target,
        "source": constraint.source,
        "slope": constraint.slope,
        "intercept": constraint.intercept,
        "tolerance": constraint.tolerance,
        "provenance": dict(constraint.provenance),
    }


def logical_to_dict(scenario: LogicalScenario) -> dict:
    return {
        "format": "logical/1",
        "scenario_id": scenario.scenario_id,
        "source_ref": dict(scenario.source_ref),
        "parameters": [_parameter_to_dict(p) for p in scenario.parameters],
        "constraints": [_constraint_to_dict(c) for c in scenario.constraints],
    }


def _provenance_from_dict(record) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(check_object(record, "provenance").items()))


def _parameter_from_dict(record: dict) -> Parameter:
    try:
        lo, hi = record["range"]
        return Parameter(
            name=record["name"],
            unit=record["unit"],
            lo=float(lo),
            hi=float(hi),
            distribution=distribution_from_dict(record.get("distribution")),
            kind=record.get("kind", "scalar-static"),
            provenance=_provenance_from_dict(record.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad parameter record: {exc}") from exc


def _constraint_from_dict(record: dict) -> Constraint:
    try:
        kind = record["kind"]
        provenance = _provenance_from_dict(record.get("provenance", {}))
        if kind == "inequality":
            if record["op"] not in expressions.COMPARATORS:
                raise SchemaViolation(f"bad comparator {record['op']!r}")
            constraint = Inequality(id=record["id"], lhs=record["lhs"], op=record["op"],
                                    rhs=record["rhs"], provenance=provenance)
            constraint.parsed  # a malformed expression fails the load, not a later use
            return constraint
        if kind == "correlation":
            tolerance = float(record["tolerance"])
            if tolerance < 0:
                raise SchemaViolation("correlation tolerance must be >= 0")
            return Correlation(id=record["id"], target=record["target"], source=record["source"],
                               slope=float(record["slope"]), intercept=float(record["intercept"]),
                               tolerance=tolerance, provenance=provenance)
        raise SchemaViolation(f"unknown constraint kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad constraint record: {exc}") from exc


def logical_from_dict(document: dict) -> LogicalScenario:
    check_document(document, "logical scenario",
                   ("scenario_id", "source_ref", "parameters", "constraints"), "logical/1")
    if not isinstance(document["parameters"], list) or not isinstance(document["constraints"], list):
        raise SchemaViolation("'parameters' and 'constraints' must be arrays")
    return LogicalScenario(
        scenario_id=document["scenario_id"],
        source_ref=dict(check_object(document["source_ref"], "logical scenario: 'source_ref'")),
        parameters=tuple(_parameter_from_dict(p) for p in document["parameters"]),
        constraints=tuple(_constraint_from_dict(c) for c in document["constraints"]),
    )


def serialize_logical(scenario: LogicalScenario) -> str:
    return dumps_canonical(logical_to_dict(scenario))


def deserialize_logical(source: str) -> LogicalScenario:
    return logical_from_dict(load_json(source))


def logical_hash(scenario: LogicalScenario) -> str:
    return content_hash(logical_to_dict(scenario))
