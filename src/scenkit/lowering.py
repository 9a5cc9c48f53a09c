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
from .canonical import STRING, Field, List, Map, Record
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
    RANGE,
    constraint_record,
    parameter_record,
    range_findings,
)
from .vocabulary import REF, Term, Vocabulary

_LOCAL_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_PLACEHOLDER_RE = re.compile(r"([A-Z])\.([a-z][a-z0-9_]*)")


@dataclass(frozen=True)
class AttributeEffect:
    add: tuple[Parameter, ...] = ()
    remove: tuple[str, ...] = ()
    override: dict = field(default_factory=dict)  # local name -> (lo, hi)


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


def _check_templates(templates: tuple[Parameter, ...], where: str) -> None:
    for template in templates:
        if not _LOCAL_NAME_RE.fullmatch(template.name):
            raise SchemaViolation(f"{where}: bad parameter name {template.name!r} "
                                  "(lowercase, no hyphens)")
        _check_range(f"{where}.{template.name}", template.lo, template.hi, template.distribution)


class _ConstraintTemplate:
    """A constraint record whose ``id`` may be left out, and in which
    ``"expr": "lhs <op> rhs"`` is short for its ``lhs``, ``op`` and ``rhs``."""

    plural = "objects"
    record = constraint_record(id="")

    def decode(self, value, where: str, key=None) -> Constraint:
        if isinstance(value, dict) and "expr" in value:
            expr = STRING.decode(value["expr"], where, "expr")
            lhs, op, rhs = expressions.parse_comparison(expr)
            value = {**value, "lhs": expressions.format_expr(lhs), "op": op,
                     "rhs": expressions.format_expr(rhs)}
        return self.record.decode(value, where, key)


_TEMPLATES = List(parameter_record(unit=""))
EFFECT = Record(AttributeEffect, Field("add", _TEMPLATES, ()), Field("remove", List(STRING), ()),
                Field("override", Map(RANGE), dict))
CATALOG = Record(dict, Field("vocabulary_ref", REF), Field("entities", Map(_TEMPLATES), dict),
                 Field("attributes", Map(Map(EFFECT)), dict),
                 Field("relations", Map(List(_ConstraintTemplate())), dict), name="catalog")


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


def _term(vocabulary: Vocabulary, name: str, kind: str) -> Term:
    term = vocabulary.lookup(name)
    if term is None or term.kind != kind:
        raise UnknownTerm(name)
    return term


def load_parameter_catalog(source: str, vocabulary: Vocabulary) -> ParameterCatalog:
    catalog = CATALOG.loads(source)
    ref = catalog["vocabulary_ref"]
    if ref != (vocabulary.domain_name, vocabulary.version):
        raise VocabularyMismatch(
            f"catalog targets {ref[0]}/{ref[1]}, vocabulary is "
            f"{vocabulary.domain_name}/{vocabulary.version}")

    for entity, templates in catalog["entities"].items():
        _term(vocabulary, entity, "entity")
        _check_templates(templates, entity)
        if len({t.name for t in templates}) != len(templates):
            raise SchemaViolation(f"{entity}: duplicate parameter names in template set")

    attribute_templates: dict[tuple[str, str], AttributeEffect] = {}
    for attribute, by_value in catalog["attributes"].items():
        term = _term(vocabulary, attribute, "attribute")
        for value, effect in by_value.items():
            if value not in term.allowed_values:
                raise SchemaViolation(f"{attribute}: {value!r} is not an allowed value")
            where = f"{attribute}={value}"
            _check_templates(effect.add, where)
            for name, (lo, hi) in effect.override.items():
                _check_range(f"{where}.{name}", lo, hi)
            attribute_templates[(attribute, value)] = effect

    for relation, templates in catalog["relations"].items():
        term = _term(vocabulary, relation, "relation")
        # every referenced slot/parameter must be producible by an allowed entity
        producible: set[str] = set()
        candidates = term.applies_to or [t.name for t in vocabulary.terms if t.kind == "entity"]
        for entity in candidates:
            producible.update(t.name for t in catalog["entities"].get(entity, ()))
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

    return ParameterCatalog(
        vocabulary_ref=ref,
        entity_templates=catalog["entities"],
        attribute_templates=attribute_templates,
        relation_templates=catalog["relations"],
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
            for name, (lo, hi) in effect.override.items():
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
