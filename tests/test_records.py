"""Every record is a named tuple: its fields cannot be set, a parsed element's
``line`` takes no part in equality or hashing, a dict field's default is
shared by every instance, so it cannot be changed, and a vocabulary's cached
index is built from its terms as the loader sorted them."""

import json

import pytest

from scenkit import canonical, concretize, errors, functional, logical, lowering, testcase
from scenkit.vocabulary import Exclusion, Term, Vocabulary, vocabulary_from_dict

from conftest import DATA

RECORDS = [
    canonical.Field,
    concretize.ConcreteScenario, concretize.CoverageReport,
    errors.Finding, errors.Report,
    functional.EntityInstance, functional.RelationPhrase, functional.AttributeAssignment,
    functional.FunctionalScenario,
    logical.Distribution, logical.Parameter, logical.Inequality, logical.Correlation,
    logical.LogicalScenario,
    lowering.AttributeEffect, lowering.ParameterCatalog,
    testcase.TimeSeries, testcase.Check, testcase.ExpectedBehavior, testcase.TestCase,
    Term, Exclusion, Vocabulary,
]


@pytest.mark.parametrize("record", RECORDS, ids=[record.__name__ for record in RECORDS])
def test_a_field_cannot_be_set(record):
    value = record._make(["x"] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, "y")
    assert value == record._make(["x"] * len(record._fields))


LINED = [
    (errors.Finding, ("RANGE", "a.x out of range", ("a.x",))),
    (functional.EntityInstance, ("c1", "car")),
    (functional.RelationPhrase, ("follows", ("c1", "t1"))),
    (functional.AttributeAssignment, ("r1", "layout", "two-lane-motorway")),
]


@pytest.mark.parametrize("record, fields", LINED, ids=[record.__name__ for record, _ in LINED])
def test_line_takes_no_part_in_equality_or_hashing(record, fields):
    first, second = record(*fields, line=3), record(*fields, line=7)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second, record(*fields)}) == 1
    changed = record(*fields[:-1], "other", line=3)
    assert first != changed and not first == changed
    assert first != (*fields, 3)  # a value of another type is never equal


def test_no_default_can_be_changed():
    for record in RECORDS:
        for name, default in record._field_defaults.items():
            assert not isinstance(default, (dict, list, set)), f"{record.__name__}.{name}"
    source_ref = logical.LogicalScenario("s").source_ref
    assert source_ref == {}
    with pytest.raises(TypeError):
        source_ref["key"] = 1


def test_lookup_finds_every_term_after_the_terms_are_sorted():
    document = json.loads((DATA / "vocabulary.json").read_text())
    names = [term["name"] for term in document["terms"]]
    assert names != sorted(names)  # the loader re-sorts them
    vocabulary = vocabulary_from_dict(document)
    assert vocabulary.names() == sorted(names)
    for name in names:
        assert vocabulary.lookup(name).name == name
    assert vocabulary.lookup("bicycle") is None
