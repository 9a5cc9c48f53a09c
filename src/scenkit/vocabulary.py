"""Use-case/domain term inventory that grounds all functional scenarios.

A vocabulary declares entities, relation phrases, and categorical attributes.
Term names are case-sensitive identifiers; declared names are normalized to
lowercase-with-hyphens before validation, so ``Two Lane Motorway`` and
``two-lane-motorway`` denote the same term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .canonical import check_document, check_records, check_strings, dumps_canonical, load_json
from .errors import DanglingReference, DuplicateTerm, ScenarioSyntaxError, SchemaViolation

KINDS = ("entity", "relation", "attribute")

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


def _require(document: dict, key: str, types, where: str):
    value = check_document(document, where, (key,))[key]
    if not isinstance(value, types):
        raise SchemaViolation(f"{where}: field {key!r} has wrong type")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    return tuple(normalize_name(n) for n in check_strings(value, where))


def _term_from_dict(record: dict) -> Term:
    name = normalize_name(_require(record, "name", str, "term"))
    kind = _require(record, "kind", str, f"term {name!r}")
    if kind not in KINDS:
        raise SchemaViolation(f"term {name!r}: unknown kind {kind!r}")
    arity = None
    allowed_values: tuple[str, ...] = ()
    applies_to: tuple[str, ...] = ()
    required = False
    if kind == "relation":
        arity = _require(record, "arity", int, f"term {name!r}")
        if type(arity) is not int or arity < 1:  # a bool is no arity
            raise SchemaViolation(f"relation {name!r}: arity must be an integer >= 1")
        applies_to = _names(record.get("applies_to", []), f"term {name!r}: 'applies_to'")
    elif kind == "attribute":
        allowed_values = _names(_require(record, "allowed_values", list, f"term {name!r}"),
                                f"term {name!r}: 'allowed_values'")
        if not allowed_values:
            raise SchemaViolation(f"attribute {name!r}: needs at least one allowed value")
        if len(set(allowed_values)) != len(allowed_values):
            raise SchemaViolation(f"attribute {name!r}: duplicate allowed values")
        applies_to = _names(record.get("applies_to", []), f"term {name!r}: 'applies_to'")
        required = bool(record.get("required", False))
    return Term(
        name=name,
        kind=kind,
        arity=arity,
        allowed_values=allowed_values,
        applies_to=applies_to,
        required=required,
        description=record.get("description", ""),
    )


def _exclusion_from_dict(record: dict) -> Exclusion:
    def pattern(side):
        side_record = _require(record, side, dict, "exclusion")
        relation = normalize_name(_require(side_record, "relation", str, "exclusion"))
        args = tuple(check_strings(_require(side_record, "args", list, "exclusion"),
                                   "exclusion: 'args'"))
        return relation, args

    return Exclusion(first=pattern("first"), second=pattern("second"))


def vocabulary_from_dict(document: dict) -> Vocabulary:
    domain_name = normalize_name(_require(document, "domain_name", str, "vocabulary"))
    version = _require(document, "version", str, "vocabulary")
    term_records = _require(document, "terms", list, "vocabulary")
    terms = [_term_from_dict(r) for r in term_records]

    seen: set[str] = set()
    for term in terms:
        if term.name in seen:
            raise DuplicateTerm(term.name)
        seen.add(term.name)

    by_name = {t.name: t for t in terms}
    for term in terms:
        for target in term.applies_to:
            resolved = by_name.get(target)
            if resolved is None or resolved.kind != "entity":
                raise DanglingReference(term.name, target)

    exclusions = tuple(_exclusion_from_dict(r) for r in
                       check_records(document.get("exclusions", []), "vocabulary: 'exclusions'"))
    for exclusion in exclusions:
        for relation, args in (exclusion.first, exclusion.second):
            resolved = by_name.get(relation)
            if resolved is None or resolved.kind != "relation":
                raise DanglingReference("exclusion", relation)
            if len(args) != resolved.arity:
                raise SchemaViolation(f"exclusion on {relation!r}: wrong argument count")

    # Sorted storage makes loading order-independent and serialization canonical.
    return Vocabulary(
        domain_name=domain_name,
        version=version,
        terms=tuple(sorted(terms, key=lambda t: t.name)),
        exclusions=exclusions,
    )


def load_vocabulary(source: str) -> Vocabulary:
    return vocabulary_from_dict(load_json(source))


def _term_to_dict(term: Term) -> dict:
    record: dict = {"name": term.name, "kind": term.kind}
    if term.kind == "relation":
        record["arity"] = term.arity
        record["applies_to"] = list(term.applies_to)
    elif term.kind == "attribute":
        record["allowed_values"] = list(term.allowed_values)
        record["applies_to"] = list(term.applies_to)
        if term.required:
            record["required"] = True
    if term.description:
        record["description"] = term.description
    return record


def vocabulary_to_dict(vocabulary: Vocabulary) -> dict:
    document = {
        "domain_name": vocabulary.domain_name,
        "version": vocabulary.version,
        "terms": [_term_to_dict(t) for t in vocabulary.terms],
    }
    if vocabulary.exclusions:
        document["exclusions"] = [
            {
                "first": {"relation": e.first[0], "args": list(e.first[1])},
                "second": {"relation": e.second[0], "args": list(e.second[1])},
            }
            for e in vocabulary.exclusions
        ]
    return document


def serialize_vocabulary(vocabulary: Vocabulary) -> str:
    return dumps_canonical(vocabulary_to_dict(vocabulary))
