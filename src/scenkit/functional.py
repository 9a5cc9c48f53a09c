"""Line-oriented DSL for vocabulary-grounded functional scenarios.

Statement forms (separated by newlines or ``/``, ``#`` starts a comment):

    scenario <id>
    <entityterm> <id>                  declare an entity instance
    <id> is <entityterm>               alias declaration
    <entityterm> <id> is <value>       declare + classifier attribute sugar
    <id> <relationterm> <id>...        relation phrase
    <id> <attributeterm> <value>       attribute assignment

The ``is <value>`` sugar resolves the unique attribute applicable to the
instance's entity term whose allowed values contain the value, so
``road r1 is two-lane-motorway`` reads naturally while staying grounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .canonical import SCENARIO_ID, STRING, Field, List, Record, is_scenario_id
from .errors import (
    ArityMismatch,
    DuplicateInstance,
    Finding,
    IllegalApplication,
    IllegalAttributeValue,
    Report,
    ScenarioSyntaxError,
    UnknownTerm,
    UnknownVariationTarget,
)
from .vocabulary import REF, Term, Vocabulary, normalize_name


# ``line`` is the DSL source line of a parsed element; it takes no part in
# equality, hashing or serialization.
@dataclass(frozen=True)
class EntityInstance:
    instance_id: str
    term: str
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RelationPhrase:
    relation: str
    arguments: tuple[str, ...]
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AttributeAssignment:
    instance_id: str
    attribute: str
    value: str
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FunctionalScenario:
    scenario_id: str
    vocabulary_ref: tuple[str, str]  # (domain_name, version)
    instances: tuple[EntityInstance, ...] = ()
    relations: tuple[RelationPhrase, ...] = ()
    attributes: tuple[AttributeAssignment, ...] = ()

    def instance(self, instance_id: str) -> EntityInstance | None:
        for inst in self.instances:
            if inst.instance_id == instance_id:
                return inst
        return None


ConsistencyReport = Report

# Findings that make a DSL text malformed: ``parse_functional`` raises the
# first of them, in source order, as the error class mapped here.
PARSE_ERRORS = {
    "DUPLICATE_INSTANCE": DuplicateInstance,
    "DUPLICATE_ASSIGNMENT": ScenarioSyntaxError,
    "ILLEGAL_VALUE": IllegalAttributeValue,
    "ILLEGAL_APPLICATION": IllegalApplication,
    "ARITY_MISMATCH": ArityMismatch,
}


def _edit_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _hint(word: str, vocabulary: Vocabulary) -> str | None:
    best = None
    best_distance = 3
    for name in vocabulary.names():
        distance = _edit_distance(word, name)
        if distance < best_distance:
            best, best_distance = name, distance
    return best


class _Builder:
    """Binds every word to a declared instance or a vocabulary term; the
    well-formedness rules are left to ``check_consistency``."""

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self.scenario_id: str | None = None
        self.instances: list[EntityInstance] = []
        self.relations: list[RelationPhrase] = []
        self.attributes: list[AttributeAssignment] = []
        self.by_id: dict[str, EntityInstance] = {}

    def declare(self, instance_id: str, term: Term, line: int):
        instance = EntityInstance(instance_id=instance_id, term=term.name, line=line)
        self.by_id.setdefault(instance_id, instance)
        self.instances.append(instance)
        return instance

    def resolve_instance(self, instance_id: str, line: int) -> EntityInstance:
        instance = self.by_id.get(instance_id)
        if instance is None:
            raise UnknownTerm(instance_id, line=line, hint=_hint(instance_id, self.vocabulary))
        return instance

    def assign(self, instance: EntityInstance, attribute: Term, raw_value: str, line: int):
        self.attributes.append(AttributeAssignment(
            instance_id=instance.instance_id, attribute=attribute.name,
            value=normalize_name(raw_value), line=line))

    def classify(self, instance: EntityInstance, raw_value: str, line: int):
        """Resolve ``<id> is <value>`` to the unique applicable attribute."""
        value = normalize_name(raw_value)
        candidates = [
            t
            for t in self.vocabulary.terms
            if t.kind == "attribute" and instance.term in t.applies_to and value in t.allowed_values
        ]
        if not candidates:
            raise IllegalAttributeValue(
                f"line {line}: no attribute of {instance.term!r} allows the value {raw_value!r}"
            )
        if len(candidates) > 1:
            names = ", ".join(t.name for t in candidates)
            raise ScenarioSyntaxError(f"value {raw_value!r} is ambiguous between {names}", line=line)
        self.assign(instance, candidates[0], raw_value, line)

    def relate(self, instance: EntityInstance, relation: Term, argument_ids: list[str], line: int):
        arguments = [instance] + [self.resolve_instance(a, line) for a in argument_ids]
        self.relations.append(RelationPhrase(
            relation=relation.name, arguments=tuple(a.instance_id for a in arguments), line=line))

    def statement(self, words: list[str], line: int):
        if words[0] == "scenario":
            if len(words) != 2:
                raise ScenarioSyntaxError("expected: scenario <id>", line=line)
            if self.scenario_id is not None:
                raise ScenarioSyntaxError("scenario id declared twice", line=line)
            if not is_scenario_id(words[1]):
                raise ScenarioSyntaxError(f"bad scenario id {words[1]!r}", line=line)
            self.scenario_id = words[1]
            return

        head = self.vocabulary.lookup(words[0])
        if head is not None and head.kind == "entity":
            if len(words) == 2:
                self.declare(words[1], head, line)
                return
            if len(words) == 4 and words[2] == "is":
                instance = self.declare(words[1], head, line)
                self.classify(instance, words[3], line)
                return
            raise ScenarioSyntaxError(
                f"expected: {head.name} <id> [is <value>]", line=line
            )
        if head is not None:
            raise ScenarioSyntaxError(
                f"{head.kind} term {head.name!r} cannot start a statement", line=line
            )

        # statement starts with an instance id
        if len(words) >= 3 and words[1] == "is":
            if len(words) != 3:
                raise ScenarioSyntaxError("expected: <id> is <term or value>", line=line)
            target = self.vocabulary.lookup(normalize_name(words[2]))
            if words[0] not in self.by_id and target is not None and target.kind == "entity":
                self.declare(words[0], target, line)
                return
            self.classify(self.resolve_instance(words[0], line), words[2], line)
            return

        if len(words) < 2:
            raise UnknownTerm(words[0], line=line, hint=_hint(words[0], self.vocabulary))
        verb = self.vocabulary.lookup(words[1])
        if verb is None:
            raise UnknownTerm(words[1], line=line, hint=_hint(words[1], self.vocabulary))
        instance = self.resolve_instance(words[0], line)
        if verb.kind == "relation":
            self.relate(instance, verb, words[2:], line)
        elif verb.kind == "attribute":
            if len(words) != 3:
                raise ScenarioSyntaxError(f"expected: <id> {verb.name} <value>", line=line)
            self.assign(instance, verb, words[2], line)
        else:
            raise ScenarioSyntaxError(
                f"entity term {verb.name!r} cannot follow an instance id", line=line
            )

    def build(self) -> FunctionalScenario:
        if self.scenario_id is None:
            raise ScenarioSyntaxError("missing 'scenario <id>' statement")
        return FunctionalScenario(
            scenario_id=self.scenario_id,
            vocabulary_ref=(self.vocabulary.domain_name, self.vocabulary.version),
            instances=tuple(self.instances),
            relations=tuple(self.relations),
            attributes=tuple(self.attributes),
        )


def parse_functional(dsl: str, vocabulary: Vocabulary) -> FunctionalScenario:
    """Parse DSL text; the first ``PARSE_ERRORS`` finding is raised with its line."""
    builder = _Builder(vocabulary)
    for line_number, raw_line in enumerate(dsl.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        for statement in line.split("/"):
            words = statement.split()
            if words:
                builder.statement(words, line_number)
    scenario = builder.build()
    errors = [f for f in check_consistency(scenario, vocabulary).findings if f.code in PARSE_ERRORS]
    if errors:
        first = min(errors, key=lambda f: f.line)
        error = PARSE_ERRORS[first.code]
        if error is ScenarioSyntaxError:
            raise ScenarioSyntaxError(first.message, line=first.line)
        raise error(f"line {first.line}: {first.message}")
    return scenario


def format_functional(scenario: FunctionalScenario) -> str:
    """Pretty-print; ``parse_functional`` of the result recovers the scenario."""
    lines = [f"scenario {scenario.scenario_id}"]
    lines += [f"{inst.term} {inst.instance_id}" for inst in scenario.instances]
    lines += [f"{a.instance_id} {a.attribute} {a.value}" for a in scenario.attributes]
    lines += [f"{r.arguments[0]} {r.relation} {' '.join(r.arguments[1:])}".rstrip() for r in scenario.relations]
    return "\n".join(lines) + "\n"


def _match_exclusion(pattern_pair, first: RelationPhrase, second: RelationPhrase) -> bool:
    (rel_a, args_a), (rel_b, args_b) = pattern_pair
    if first.relation != rel_a or second.relation != rel_b:
        return False
    binding: dict[str, str] = {}
    for variables, phrase in ((args_a, first), (args_b, second)):
        for variable, instance_id in zip(variables, phrase.arguments):
            if binding.setdefault(variable, instance_id) != instance_id:
                return False
    return True


def check_consistency(scenario: FunctionalScenario, vocabulary: Vocabulary) -> Report:
    findings: list[Finding] = []

    seen_ids: set[str] = set()
    for instance in scenario.instances:
        if instance.instance_id in seen_ids:
            findings.append(
                Finding("DUPLICATE_INSTANCE", f"instance {instance.instance_id!r} declared twice",
                        (instance.instance_id,), instance.line)
            )
        seen_ids.add(instance.instance_id)
        term = vocabulary.lookup(instance.term)
        if term is None or term.kind != "entity":
            findings.append(
                Finding("UNKNOWN_TERM", f"instance {instance.instance_id!r} has unknown entity "
                        f"term {instance.term!r}", (instance.instance_id,))
            )

    assigned: set[tuple[str, str]] = set()
    for assignment in scenario.attributes:
        key = (assignment.instance_id, assignment.attribute)
        if key in assigned:
            findings.append(
                Finding("DUPLICATE_ASSIGNMENT",
                        f"attribute {assignment.attribute!r} assigned twice on "
                        f"{assignment.instance_id!r}", key, assignment.line)
            )
        assigned.add(key)
        term = vocabulary.lookup(assignment.attribute)
        instance = scenario.instance(assignment.instance_id)
        if term is None or term.kind != "attribute":
            findings.append(Finding("UNKNOWN_TERM", f"unknown attribute {assignment.attribute!r}", key))
            continue
        if instance is None:
            findings.append(Finding("UNKNOWN_INSTANCE",
                                    f"assignment on undeclared instance {assignment.instance_id!r}", key))
            continue
        if assignment.value not in term.allowed_values:
            findings.append(Finding("ILLEGAL_VALUE",
                                    f"{assignment.value!r} not allowed for {term.name!r}", key,
                                    assignment.line))
        if instance.term not in term.applies_to:
            findings.append(Finding("ILLEGAL_APPLICATION",
                                    f"attribute {term.name!r} does not apply to {instance.term!r}",
                                    key, assignment.line))

    for phrase in scenario.relations:
        term = vocabulary.lookup(phrase.relation)
        if term is None or term.kind != "relation":
            findings.append(Finding("UNKNOWN_TERM", f"unknown relation {phrase.relation!r}",
                                    (phrase.relation,)))
            continue
        if len(phrase.arguments) != term.arity:
            findings.append(Finding("ARITY_MISMATCH",
                                    f"relation {term.name!r} used with {len(phrase.arguments)} arguments",
                                    phrase.arguments, phrase.line))
        for argument in phrase.arguments:
            instance = scenario.instance(argument)
            if instance is None:
                findings.append(Finding("UNKNOWN_INSTANCE",
                                        f"relation argument {argument!r} is not declared", (argument,)))
            elif term.applies_to and instance.term not in term.applies_to:
                findings.append(Finding("ILLEGAL_APPLICATION",
                                        f"relation {term.name!r} does not apply to {instance.term!r}",
                                        (argument,), phrase.line))

    flagged: set[frozenset[int]] = set()
    for exclusion in vocabulary.exclusions:
        patterns = (exclusion.first, exclusion.second)
        for i, first in enumerate(scenario.relations):
            for j, second in enumerate(scenario.relations):
                if i == j:
                    continue
                pair_key = frozenset((i, j))
                if pair_key in flagged:
                    continue
                if _match_exclusion(patterns, first, second):
                    flagged.add(pair_key)
                    findings.append(
                        Finding("MUTUAL_EXCLUSION",
                                f"phrases {first.relation}{first.arguments} and "
                                f"{second.relation}{second.arguments} may not co-occur",
                                first.arguments + second.arguments)
                    )

    for instance in scenario.instances:
        for term in vocabulary.terms:
            if term.kind != "attribute" or not term.required:
                continue
            if instance.term not in term.applies_to:
                continue
            if (instance.instance_id, term.name) not in assigned:
                findings.append(
                    Finding("MISSING_REQUIRED_ATTRIBUTE",
                            f"instance {instance.instance_id!r} lacks required attribute "
                            f"{term.name!r}", (instance.instance_id, term.name))
                )

    return Report(findings=tuple(findings))


def enumerate_variations(
    scenario: FunctionalScenario,
    vocabulary: Vocabulary,
    vary: list[tuple[str, str]],
) -> list[FunctionalScenario]:
    """Cartesian product over the allowed values of the varied attributes.

    Inconsistent combinations are dropped; output order is lexicographic over
    the declared allowed-value order.
    """
    if not vary:
        return [scenario]

    value_axes: list[tuple[str, ...]] = []
    for instance_id, attribute in vary:
        if not any(a.instance_id == instance_id and a.attribute == attribute
                   for a in scenario.attributes):
            raise UnknownVariationTarget(f"({instance_id}, {attribute}) is not assigned")
        term = vocabulary.lookup(attribute)
        if term is None or term.kind != "attribute":
            raise UnknownVariationTarget(f"{attribute!r} is not an attribute term")
        value_axes.append(term.allowed_values)

    variations: list[FunctionalScenario] = []
    for index, combination in enumerate(product(*value_axes)):
        attributes = list(scenario.attributes)
        for (instance_id, attribute), value in zip(vary, combination):
            for position, assignment in enumerate(attributes):
                if assignment.instance_id == instance_id and assignment.attribute == attribute:
                    attributes[position] = replace(assignment, value=value)
        candidate = replace(
            scenario,
            scenario_id=f"{scenario.scenario_id}-v{index:03d}",
            attributes=tuple(attributes),
        )
        if check_consistency(candidate, vocabulary).ok:
            variations.append(candidate)
    return variations


INSTANCE = Record(EntityInstance, Field("instance_id", STRING), Field("term", STRING))
PHRASE = Record(RelationPhrase, Field("relation", STRING), Field("arguments", List(STRING)))
ASSIGNMENT = Record(AttributeAssignment, Field("instance_id", STRING), Field("attribute", STRING),
                    Field("value", STRING))
FUNCTIONAL = Record(FunctionalScenario, Field("scenario_id", SCENARIO_ID),
                    Field("vocabulary_ref", REF), Field("instances", List(INSTANCE)),
                    Field("relations", List(PHRASE)), Field("attributes", List(ASSIGNMENT)),
                    tag=("format", "functional/1"), name="functional")


functional_to_dict = FUNCTIONAL.encode
functional_from_dict = FUNCTIONAL.decode
serialize_functional = FUNCTIONAL.dumps
deserialize_functional = FUNCTIONAL.loads
functional_hash = FUNCTIONAL.digest
