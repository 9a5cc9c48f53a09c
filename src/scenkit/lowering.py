"""Functional -> logical transformation driven by a parameter catalog.

The catalog assigns parameter templates to entity terms, range overrides or
template swaps to attribute values, and constraint templates to relation
terms. Constraint templates name argument slots with single capital letters
(``A`` is the first argument), e.g. ``B.s0 > A.s0`` for ``A follows B``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from . import expressions
from .canonical import check_document, load_json
from .errors import (
    BadDistribution,
    BadRange,
    ConstraintInstantiationError,
    MissingTemplate,
    OverrideWidensRange,
    SchemaViolation,
    UnboundConstraintParameter,
    UnknownTerm,
    VocabularyMismatch,
)
from .functional import FunctionalScenario, functional_hash
from .logical import (
    Correlation,
    Distribution,
    Inequality,
    LogicalScenario,
    Parameter,
    distribution_from_dict,
    range_findings,
)
from .vocabulary import Vocabulary

_LOCAL_NAME_RE = re.compile(r"[a-z][a-z0-9_]*$")
_PLACEHOLDER_RE = re.compile(r"([A-Z])\.([a-z][a-z0-9_]*)")


@dataclass(frozen=True)
class ParameterTemplate:
    local_name: str
    unit: str
    lo: float
    hi: float
    distribution: Distribution | None = None
    kind: str = "scalar-static"


@dataclass(frozen=True)
class AttributeEffect:
    add: tuple[ParameterTemplate, ...] = ()
    remove: tuple[str, ...] = ()
    override: tuple[tuple[str, float, float], ...] = ()


@dataclass(frozen=True)
class InequalityTemplate:
    lhs: str
    op: str
    rhs: str


@dataclass(frozen=True)
class CorrelationTemplate:
    target: str
    source: str
    slope: float
    intercept: float
    tolerance: float


ConstraintTemplate = InequalityTemplate | CorrelationTemplate


@dataclass(frozen=True)
class ParameterCatalog:
    vocabulary_ref: tuple[str, str]
    entity_templates: dict = field(default_factory=dict)  # entity -> [ParameterTemplate]
    attribute_templates: dict = field(default_factory=dict)  # (attr, value) -> AttributeEffect
    relation_templates: dict = field(default_factory=dict)  # relation -> [ConstraintTemplate]


def _check_range(name: str, lo: float, hi: float, distribution: Distribution | None = None):
    """Raise the first ``range_findings`` finding as an error."""
    for finding in range_findings(name, lo, hi, distribution):
        raise (BadDistribution if finding.code == "BAD_DISTRIBUTION" else BadRange)(finding.message)


def _check_template(template: ParameterTemplate, where: str):
    if not _LOCAL_NAME_RE.match(template.local_name):
        raise SchemaViolation(f"{where}: bad parameter name {template.local_name!r} "
                              "(lowercase, no hyphens)")
    _check_range(f"{where}.{template.local_name}", template.lo, template.hi, template.distribution)
    if template.kind not in ("scalar-static", "scalar-initial"):
        raise SchemaViolation(f"{where}.{template.local_name}: bad kind {template.kind!r}")


def _template_from_dict(record: dict, where: str) -> ParameterTemplate:
    try:
        lo, hi = record["range"]
        template = ParameterTemplate(
            local_name=record["name"],
            unit=record.get("unit", ""),
            lo=float(lo),
            hi=float(hi),
            distribution=distribution_from_dict(record.get("distribution")),
            kind=record.get("kind", "scalar-static"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"{where}: bad template record: {exc}") from exc
    _check_template(template, where)
    return template


def _constraint_template_from_dict(record: dict, where: str) -> ConstraintTemplate:
    kind = record.get("kind")
    if kind == "inequality":
        lhs, op, rhs = expressions.parse_comparison(record["expr"])
        return InequalityTemplate(lhs=expressions.format_expr(lhs), op=op,
                                  rhs=expressions.format_expr(rhs))
    if kind == "correlation":
        try:
            tolerance = float(record["tolerance"])
            if tolerance < 0:
                raise SchemaViolation(f"{where}: correlation tolerance must be >= 0")
            return CorrelationTemplate(target=record["target"], source=record["source"],
                                       slope=float(record["slope"]),
                                       intercept=float(record["intercept"]),
                                       tolerance=tolerance)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"{where}: bad correlation record: {exc}") from exc
    raise SchemaViolation(f"{where}: unknown constraint kind {kind!r}")


def _constraint_placeholders(template: ConstraintTemplate) -> set[tuple[str, str]]:
    """All (argument letter, local name) references in a constraint template."""
    if isinstance(template, InequalityTemplate):
        names = (expressions.expr_variables(expressions.parse_expression(template.lhs))
                 | expressions.expr_variables(expressions.parse_expression(template.rhs)))
    else:
        names = {template.target, template.source}
    references = set()
    for name in names:
        m = _PLACEHOLDER_RE.match(name)
        if m is None or m.end() != len(name):
            raise UnboundConstraintParameter(f"constraint references {name!r}; expected "
                                             "<ARG LETTER>.<local_name>")
        references.add((m.group(1), m.group(2)))
    return references


def load_parameter_catalog(source: str, vocabulary: Vocabulary) -> ParameterCatalog:
    document = check_document(load_json(source), "catalog")

    ref = check_document(document.get("vocabulary_ref"), "catalog vocabulary_ref",
                         ("domain_name", "version"))
    if (ref["domain_name"], ref["version"]) != (vocabulary.domain_name, vocabulary.version):
        raise VocabularyMismatch(
            f"catalog targets {ref['domain_name']}/{ref['version']}, vocabulary is "
            f"{vocabulary.domain_name}/{vocabulary.version}")

    entity_templates: dict[str, tuple[ParameterTemplate, ...]] = {}
    for entity, records in document.get("entities", {}).items():
        term = vocabulary.lookup(entity)
        if term is None or term.kind != "entity":
            raise UnknownTerm(entity)
        templates = tuple(_template_from_dict(r, entity) for r in records)
        if len({t.local_name for t in templates}) != len(templates):
            raise SchemaViolation(f"{entity}: duplicate parameter names in template set")
        entity_templates[entity] = templates

    attribute_templates: dict[tuple[str, str], AttributeEffect] = {}
    for attribute, by_value in document.get("attributes", {}).items():
        term = vocabulary.lookup(attribute)
        if term is None or term.kind != "attribute":
            raise UnknownTerm(attribute)
        for value, record in by_value.items():
            if value not in term.allowed_values:
                raise SchemaViolation(f"{attribute}: {value!r} is not an allowed value")
            where = f"{attribute}={value}"
            add = tuple(_template_from_dict(r, where) for r in record.get("add", []))
            remove = tuple(record.get("remove", []))
            override = []
            for name, bounds in record.get("override", {}).items():
                try:
                    lo, hi = (float(b) for b in bounds)
                except (TypeError, ValueError) as exc:
                    raise SchemaViolation(f"{where}: bad override for {name!r}") from exc
                _check_range(f"{where}.{name}", lo, hi)
                override.append((name, lo, hi))
            attribute_templates[(attribute, value)] = AttributeEffect(
                add=add, remove=remove, override=tuple(override))

    relation_templates: dict[str, tuple[ConstraintTemplate, ...]] = {}
    for relation, records in document.get("relations", {}).items():
        term = vocabulary.lookup(relation)
        if term is None or term.kind != "relation":
            raise UnknownTerm(relation)
        templates = tuple(_constraint_template_from_dict(r, relation) for r in records)
        # every referenced slot/parameter must be producible by an allowed entity
        producible: set[str] = set()
        candidates = term.applies_to or [t.name for t in vocabulary.terms if t.kind == "entity"]
        for entity in candidates:
            producible.update(t.local_name for t in entity_templates.get(entity, ()))
            for (attr, _value), effect in attribute_templates.items():
                attr_term = vocabulary.lookup(attr)
                if attr_term is not None and entity in attr_term.applies_to:
                    producible.update(t.local_name for t in effect.add)
        for template in templates:
            for letter, local_name in _constraint_placeholders(template):
                slot = string.ascii_uppercase.index(letter)
                if slot >= term.arity:
                    raise UnboundConstraintParameter(
                        f"{relation}: slot {letter} exceeds arity {term.arity}")
                if local_name not in producible:
                    raise UnboundConstraintParameter(
                        f"{relation}: no template of an allowed entity produces {local_name!r}")
        relation_templates[relation] = templates

    return ParameterCatalog(
        vocabulary_ref=(ref["domain_name"], ref["version"]),
        entity_templates=entity_templates,
        attribute_templates=attribute_templates,
        relation_templates=relation_templates,
    )


def _substitute(expr_text: str, slots: dict[str, str]) -> str:
    node = expressions.parse_expression(expr_text)

    def rewrite(n):
        if n[0] == "var":
            letter, local_name = n[1].split(".", 1)
            return ("var", f"{slots[letter]}.{local_name}")
        if n[0] == "neg":
            return ("neg", rewrite(n[1]))
        if n[0] in ("add", "sub", "mul"):
            return (n[0], rewrite(n[1]), rewrite(n[2]))
        return n

    return expressions.format_expr(rewrite(node))


def lower_to_logical(scenario: FunctionalScenario, catalog: ParameterCatalog) -> LogicalScenario:
    """Deterministic lowering: instances in declaration order, templates in
    catalog order, attribute effects applied after entity templates."""
    if catalog.vocabulary_ref != scenario.vocabulary_ref:
        raise VocabularyMismatch(
            f"catalog targets {catalog.vocabulary_ref}, scenario uses {scenario.vocabulary_ref}")

    parameters: list[Parameter] = []
    for instance in scenario.instances:
        templates = list(catalog.entity_templates.get(instance.term, ()))
        base_names = {t.local_name for t in templates}
        provenance_extra: dict[str, tuple[str, str]] = {}
        for assignment in scenario.attributes:
            if assignment.instance_id != instance.instance_id:
                continue
            effect = catalog.attribute_templates.get((assignment.attribute, assignment.value))
            if effect is None:
                continue
            for name in effect.remove:
                templates = [t for t in templates if t.local_name != name]
            for name, lo, hi in effect.override:
                for position, template in enumerate(templates):
                    if template.local_name != name:
                        continue
                    if lo < template.lo or hi > template.hi:
                        raise OverrideWidensRange(
                            f"{assignment.attribute}={assignment.value} widens "
                            f"{instance.instance_id}.{name} beyond [{template.lo}, {template.hi}]")
                    templates[position] = ParameterTemplate(
                        local_name=name, unit=template.unit, lo=lo, hi=hi,
                        distribution=template.distribution, kind=template.kind)
                    provenance_extra[name] = (assignment.attribute, assignment.value)
            for template in effect.add:
                templates = [t for t in templates if t.local_name != template.local_name]
                templates.append(template)
                provenance_extra[template.local_name] = (assignment.attribute, assignment.value)
        if not templates:
            raise MissingTemplate(f"no parameter templates for entity term {instance.term!r}")
        for template in templates:
            provenance = [("instance", instance.instance_id), ("term", instance.term)]
            extra = provenance_extra.get(template.local_name)
            if extra is not None and template.local_name not in base_names:
                provenance.append(("attribute", f"{extra[0]}={extra[1]}"))
            elif extra is not None:
                provenance.append(("override", f"{extra[0]}={extra[1]}"))
            parameters.append(Parameter(
                name=f"{instance.instance_id}.{template.local_name}",
                unit=template.unit,
                lo=template.lo,
                hi=template.hi,
                distribution=template.distribution,
                kind=template.kind,
                provenance=tuple(sorted(provenance)),
            ))

    declared = {p.name for p in parameters}
    constraints = []
    sequence = 0
    for phrase in scenario.relations:
        templates = catalog.relation_templates.get(phrase.relation, ())
        slots = {string.ascii_uppercase[i]: arg for i, arg in enumerate(phrase.arguments)}
        provenance = tuple(sorted([("relation", phrase.relation),
                                   ("arguments", " ".join(phrase.arguments))]))
        for template in templates:
            identifier = f"c{sequence:03d}"
            sequence += 1
            if isinstance(template, InequalityTemplate):
                constraint = Inequality(
                    id=identifier,
                    lhs=_substitute(template.lhs, slots),
                    op=template.op,
                    rhs=_substitute(template.rhs, slots),
                    provenance=provenance,
                )
            else:
                target_letter, target_local = template.target.split(".", 1)
                source_letter, source_local = template.source.split(".", 1)
                constraint = Correlation(
                    id=identifier,
                    target=f"{slots[target_letter]}.{target_local}",
                    source=f"{slots[source_letter]}.{source_local}",
                    slope=template.slope,
                    intercept=template.intercept,
                    tolerance=template.tolerance,
                    provenance=provenance,
                )
            dangling = constraint.variables() - declared
            if dangling:
                raise ConstraintInstantiationError(
                    f"{phrase.relation}{phrase.arguments}: constraint references parameters "
                    f"that were not produced: {sorted(dangling)}")
            constraints.append(constraint)

    return LogicalScenario(
        scenario_id=scenario.scenario_id,
        source_ref={"scenario_id": scenario.scenario_id, "hash": functional_hash(scenario)},
        parameters=tuple(parameters),
        constraints=tuple(constraints),
    )
