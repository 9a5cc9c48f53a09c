"""Use-case/domain term inventory that grounds all functional scenarios.

A vocabulary declares entities, relation phrases, and categorical attributes.
Term names are case-sensitive identifiers; declared names are normalized to
lowercase-with-hyphens before validation, so ``Two Lane Motorway`` and
``two-lane-motorway`` denote the same term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import partial

from .canonical import BOOL, STRING, Field, List, Record, Scalar, Union
from .errors import DanglingReference, DuplicateTerm, ScenarioSyntaxError, SchemaViolation

_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*$")


def normalize_name(raw: str) -> str:
    name = raw.strip().lower().replace(" ", "-")
    if not _NAME_RE.match(name):
        raise ScenarioSyntaxError(f"invalid term name: {raw!r}")
    return name


@dataclass(frozen=True)
class Term:
    name: str
    kind: str
    arity: int | None = None  # relations only
    allowed_values: tuple[str, ...] = ()  # attributes only
    applies_to: tuple[str, ...] = ()  # attributes and relations
    required: bool = False  # attributes: missing assignment is a finding
    description: str = ""


@dataclass(frozen=True)
class Exclusion:
    """Two relation-phrase patterns that may not co-occur in one scenario.

    Each pattern is ``(relation name, argument variables)``; shared variables
    must bind to the same entity instance for the exclusion to fire.
    """

    first: tuple[str, tuple[str, ...]]
    second: tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Vocabulary:
    domain_name: str
    version: str
    terms: tuple[Term, ...] = ()  # sorted by name
    exclusions: tuple[Exclusion, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {t.name: t for t in self.terms})

    def lookup(self, name: str) -> Term | None:
        """Exact, case-sensitive lookup; absence is a normal return."""
        return self._index.get(name)

    def names(self) -> list[str]:
        return [t.name for t in self.terms]


class _Name(Scalar):
    """A term name, normalized."""

    def decode(self, value, where: str, key=None) -> str:
        return normalize_name(super().decode(value, where, key))


class _Arity(Scalar):
    def decode(self, value, where: str, key=None) -> int:
        if type(value) is not int or value < 1:  # a bool is no arity
            raise SchemaViolation(f"{where}: arity must be an integer >= 1")
        return value


NAME = _Name(str, "a string", "strings")


def _allowed_values(term: Term, where: str) -> Term:
    if not term.allowed_values:
        raise SchemaViolation(f"{where}: attribute {term.name!r} needs at least one allowed value")
    if len(set(term.allowed_values)) != len(term.allowed_values):
        raise SchemaViolation(f"{where}: attribute {term.name!r} has duplicate allowed values")
    return term


def _term(kind: str, *fields: Field, check=None) -> Record:
    return Record(partial(Term, kind=kind), Field("name", NAME), *fields,
                  Field("description", STRING, "", omit=True), tag=("kind", kind), check=check)


def _resolved(vocabulary: Vocabulary, where: str) -> Vocabulary:
    """Unique term names and resolved references; the terms sorted by name."""
    by_name: dict[str, Term] = {}
    for term in vocabulary.terms:
        if term.name in by_name:
            raise DuplicateTerm(term.name)
        by_name[term.name] = term
    for term in vocabulary.terms:
        for target in term.applies_to:
            resolved = by_name.get(target)
            if resolved is None or resolved.kind != "entity":
                raise DanglingReference(term.name, target)
    for exclusion in vocabulary.exclusions:
        for relation, args in (exclusion.first, exclusion.second):
            resolved = by_name.get(relation)
            if resolved is None or resolved.kind != "relation":
                raise DanglingReference("exclusion", relation)
            if len(args) != resolved.arity:
                raise SchemaViolation(f"exclusion on {relation!r}: wrong argument count")
    # Sorted storage makes loading order-independent and serialization canonical.
    return replace(vocabulary, terms=tuple(sorted(vocabulary.terms, key=lambda t: t.name)))


_APPLIES_TO = Field("applies_to", List(NAME), ())
TERM = Union("kind",
             _term("entity"),
             _term("relation", Field("arity", _Arity(int, "an arity", "arities")), _APPLIES_TO),
             _term("attribute", Field("allowed_values", List(NAME)), _APPLIES_TO,
                   Field("required", BOOL, False, omit=True), check=_allowed_values))
PATTERN = Record(tuple, Field("relation", NAME), Field("args", List(STRING)))
EXCLUSION = Record(Exclusion, Field("first", PATTERN), Field("second", PATTERN))
VOCABULARY = Record(Vocabulary, Field("domain_name", NAME), Field("version", STRING),
                    Field("terms", List(TERM)),
                    Field("exclusions", List(EXCLUSION), (), omit=True), check=_resolved,
                    name="vocabulary")
# A functional scenario's or a catalog's reference to the vocabulary it uses.
REF = Record(tuple, Field("domain_name", STRING), Field("version", STRING))


vocabulary_from_dict = VOCABULARY.decode
vocabulary_to_dict = VOCABULARY.encode
load_vocabulary = VOCABULARY.loads
serialize_vocabulary = VOCABULARY.dumps
