"""Functional -> logical transformation driven by a parameter catalog.

The catalog assigns parameter templates to entity terms, range overrides or
template swaps to attribute values, and constraint templates to relation
terms. A template is a logical-scenario record before it is bound to
instances: a parameter template is named by its local name, and a
constraint template names argument slots with single capital letters (``A``
is the first argument), e.g. ``B.s0 > A.s0`` for ``A follows B``. Lowering
assigns qualified names, constraint ids and provenance.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace

from . import expressions
from .canonical import check_document, check_object, check_records, check_strings, load_json
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
    Constraint,
    Distribution,
    LogicalScenario,
    Parameter,
    constraint_from_dict,
    parameter_from_dict,
    range_findings,
    range_from_dict,
)
from .vocabulary import Vocabulary

_LOCAL_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_PLACEHOLDER_RE = re.compile(r"([A-Z])\.([a-z][a-z0-9_]*)")


@dataclass(frozen=True)
class AttributeEffect:
    add: tuple[Parameter, ...] = ()
    remove: tuple[str, ...] = ()
    override: tuple[tuple[str, float, float], ...] = ()


@dataclass(frozen=True)
class ParameterCatalog:
    vocabulary_ref: tuple[str, str]
    entity_templates: dict = field(default_factory=dict)  # entity -> [Parameter]
    attribute_templates: dict = field(default_factory=dict)  # (attr, value) -> AttributeEffect
    relation_templates: dict = field(default_factory=dict)  # relation -> [Constraint]


def _check_range(name: str, lo: float, hi: float, distribution: Distribution | None = None):
    """Raise the first ``range_findings`` finding as an error."""
    for finding in range_findings(name, lo, hi, distribution):
        raise (BadDistribution if finding.code == "BAD_DISTRIBUTION" else BadRange)(finding.message)


def _parameter_templates(records, where: str) -> tuple[Parameter, ...]:
    templates = []
    for record in check_records(records, f"{where} templates"):
        template = parameter_from_dict(record, where)
        if not _LOCAL_NAME_RE.fullmatch(template.name):
            raise SchemaViolation(f"{where}: bad parameter name {template.name!r} "
                                  "(lowercase, no hyphens)")
        _check_range(f"{where}.{template.name}", template.lo, template.hi, template.distribution)
        templates.append(template)
    return tuple(templates)


def _constraint_template(record: dict, where: str) -> Constraint:
    """A constraint record; ``"expr": "lhs <op> rhs"`` is short for its
    ``lhs``, ``op`` and ``rhs``."""
    if "expr" in record:
        if not isinstance(record["expr"], str):
            raise SchemaViolation(f"{where}: 'expr' must be a string")
        lhs, op, rhs = expressions.parse_comparison(record["expr"])
        record = {**record, "lhs": expressions.format_expr(lhs), "op": op,
                  "rhs": expressions.format_expr(rhs)}
    return constraint_from_dict(record, where)


def _constraint_placeholders(template: Constraint) -> set[tuple[str, str]]:
    """All (argument letter, local name) references in a constraint template."""
    references = set()
    for name in template.variables():
        m = _PLACEHOLDER_RE.fullmatch(name)
        if m is None:
            raise UnboundConstraintParameter(f"constraint references {name!r}; expected "
                                             "<ARG LETTER>.<local_name>")
        references.add(m.groups())
    return references


def load_parameter_catalog(source: str, vocabulary: Vocabulary) -> ParameterCatalog:
    document = check_document(load_json(source), "catalog")

    ref = check_document(document.get("vocabulary_ref"), "catalog vocabulary_ref",
                         ("domain_name", "version"))
    if (ref["domain_name"], ref["version"]) != (vocabulary.domain_name, vocabulary.version):
        raise VocabularyMismatch(
            f"catalog targets {ref['domain_name']}/{ref['version']}, vocabulary is "
            f"{vocabulary.domain_name}/{vocabulary.version}")

    entity_templates: dict[str, tuple[Parameter, ...]] = {}
    for entity, records in check_object(document.get("entities", {}), "catalog: 'entities'").items():
        term = vocabulary.lookup(entity)
        if term is None or term.kind != "entity":
            raise UnknownTerm(entity)
        templates = _parameter_templates(records, entity)
        if len({t.name for t in templates}) != len(templates):
            raise SchemaViolation(f"{entity}: duplicate parameter names in template set")
        entity_templates[entity] = templates

    attribute_templates: dict[tuple[str, str], AttributeEffect] = {}
    attributes = check_object(document.get("attributes", {}), "catalog: 'attributes'")
    for attribute, by_value in attributes.items():
        term = vocabulary.lookup(attribute)
        if term is None or term.kind != "attribute":
            raise UnknownTerm(attribute)
        for value, record in check_object(by_value, f"catalog: {attribute!r}").items():
            if value not in term.allowed_values:
                raise SchemaViolation(f"{attribute}: {value!r} is not an allowed value")
            where = f"{attribute}={value}"
            add = _parameter_templates(check_object(record, where).get("add", []), where)
            remove = check_strings(record.get("remove", []), f"{where}: 'remove'")
            override = []
            for name, bounds in check_object(record.get("override", {}),
                                             f"{where}: 'override'").items():
                lo, hi = range_from_dict(bounds, f"{where}: override for {name!r}")
                _check_range(f"{where}.{name}", lo, hi)
                override.append((name, lo, hi))
            attribute_templates[(attribute, value)] = AttributeEffect(
                add=add, remove=tuple(remove), override=tuple(override))

    relation_templates: dict[str, tuple[Constraint, ...]] = {}
    relations = check_object(document.get("relations", {}), "catalog: 'relations'")
    for relation, records in relations.items():
        term = vocabulary.lookup(relation)
        if term is None or term.kind != "relation":
            raise UnknownTerm(relation)
        templates = tuple(_constraint_template(r, relation)
                          for r in check_records(records, f"{relation} templates"))
        # every referenced slot/parameter must be producible by an allowed entity
        producible: set[str] = set()
        candidates = term.applies_to or [t.name for t in vocabulary.terms if t.kind == "entity"]
        for entity in candidates:
            producible.update(t.name for t in entity_templates.get(entity, ()))
            for (attr, _value), effect in attribute_templates.items():
                attr_term = vocabulary.lookup(attr)
                if attr_term is not None and entity in attr_term.applies_to:
                    producible.update(t.name for t in effect.add)
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


def lower_to_logical(scenario: FunctionalScenario, catalog: ParameterCatalog) -> LogicalScenario:
    """Deterministic lowering: instances in declaration order, templates in
    catalog order, attribute effects applied after entity templates."""
    if catalog.vocabulary_ref != scenario.vocabulary_ref:
        raise VocabularyMismatch(
            f"catalog targets {catalog.vocabulary_ref}, scenario uses {scenario.vocabulary_ref}")

    parameters: list[Parameter] = []
    for instance in scenario.instances:
        templates = list(catalog.entity_templates.get(instance.term, ()))
        base_names = {t.name for t in templates}
        provenance_extra: dict[str, str] = {}  # local name -> "<attribute>=<value>"
        for assignment in scenario.attributes:
            if assignment.instance_id != instance.instance_id:
                continue
            effect = catalog.attribute_templates.get((assignment.attribute, assignment.value))
            if effect is None:
                continue
            for name in effect.remove:
                templates = [t for t in templates if t.name != name]
            for name, lo, hi in effect.override:
                for position, template in enumerate(templates):
                    if template.name != name:
                        continue
                    if lo < template.lo or hi > template.hi:
                        raise OverrideWidensRange(
                            f"{assignment.attribute}={assignment.value} widens "
                            f"{instance.instance_id}.{name} beyond [{template.lo}, {template.hi}]")
                    templates[position] = replace(template, lo=lo, hi=hi)
                    provenance_extra[name] = f"{assignment.attribute}={assignment.value}"
            for template in effect.add:
                templates = [t for t in templates if t.name != template.name]
                templates.append(template)
                provenance_extra[template.name] = f"{assignment.attribute}={assignment.value}"
        if not templates:
            raise MissingTemplate(f"no parameter templates for entity term {instance.term!r}")
        for template in templates:
            provenance = [("instance", instance.instance_id), ("term", instance.term)]
            extra = provenance_extra.get(template.name)
            if extra is not None:
                provenance.append(("override" if template.name in base_names else "attribute",
                                   extra))
            parameters.append(replace(template, name=f"{instance.instance_id}.{template.name}",
                                      provenance=tuple(sorted(provenance))))

    declared = {p.name for p in parameters}
    constraints = []
    sequence = 0
    for phrase in scenario.relations:
        templates = catalog.relation_templates.get(phrase.relation, ())
        slots = {string.ascii_uppercase[i]: arg for i, arg in enumerate(phrase.arguments)}
        provenance = tuple(sorted([("relation", phrase.relation),
                                   ("arguments", " ".join(phrase.arguments))]))

        def rename(name: str) -> str:  # ``<slot letter>.<local name>``
            return slots[name[0]] + name[1:]

        for template in templates:
            constraint = template.renamed(f"c{sequence:03d}", rename, provenance)
            sequence += 1
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
