import json
import random

import pytest

from scenkit.errors import DanglingReference, DuplicateTerm, ScenarioSyntaxError, SchemaViolation
from scenkit.vocabulary import (
    load_vocabulary,
    normalize_name,
    serialize_vocabulary,
    vocabulary_from_dict,
    vocabulary_to_dict,
)


def make_doc(terms, exclusions=None):
    doc = {"domain_name": "motorway-traffic", "version": "1", "terms": terms}
    if exclusions is not None:
        doc["exclusions"] = exclusions
    return doc


FIVE_TERMS = [
    {"name": "car", "kind": "entity"},
    {"name": "truck", "kind": "entity"},
    {"name": "two-lane-motorway", "kind": "entity"},
    {"name": "follows", "kind": "relation", "arity": 2, "applies_to": ["car", "truck"]},
    {"name": "geometry", "kind": "attribute", "applies_to": ["two-lane-motorway"],
     "allowed_values": ["straight", "curve"]},
]


def test_load_five_terms():
    vocabulary = vocabulary_from_dict(make_doc(FIVE_TERMS))
    assert len(vocabulary.terms) == 5
    assert vocabulary.lookup("follows").arity == 2
    assert vocabulary.lookup("geometry").allowed_values == ("straight", "curve")


def test_empty_term_list_is_valid():
    vocabulary = vocabulary_from_dict(make_doc([]))
    assert vocabulary.terms == ()


def test_duplicate_term_rejected():
    terms = [{"name": "car", "kind": "entity"}, {"name": "car", "kind": "entity"}]
    with pytest.raises(DuplicateTerm):
        vocabulary_from_dict(make_doc(terms))


def test_declared_names_normalized():
    terms = [{"name": "Two Lane Motorway", "kind": "entity"}]
    vocabulary = vocabulary_from_dict(make_doc(terms))
    assert vocabulary.lookup("two-lane-motorway") is not None


def test_lookup_present_absent_and_case():
    vocabulary = vocabulary_from_dict(make_doc(FIVE_TERMS))
    assert vocabulary.lookup("truck").kind == "entity"
    assert vocabulary.lookup("bus") is None
    # lookup itself is exact; declared names were normalized to lowercase
    assert vocabulary.lookup("Truck") is None


def test_dangling_applies_to_rejected():
    terms = [{"name": "lane", "kind": "attribute", "applies_to": ["bus"],
              "allowed_values": ["left"]}]
    with pytest.raises(DanglingReference):
        vocabulary_from_dict(make_doc(terms))


def test_exclusion_on_an_unknown_relation_rejected():
    exclusions = [{"first": {"relation": "folows", "args": ["X", "Y"]},
                   "second": {"relation": "follows", "args": ["Y", "X"]}}]
    with pytest.raises(DanglingReference, match="unknown relation 'folows'"):
        vocabulary_from_dict(make_doc(FIVE_TERMS, exclusions))


def test_relation_arity_must_be_positive():
    terms = [{"name": "alone", "kind": "relation", "arity": 0}]
    with pytest.raises(SchemaViolation):
        vocabulary_from_dict(make_doc(terms))


def test_attribute_needs_allowed_values():
    terms = [{"name": "lane", "kind": "attribute", "allowed_values": []}]
    with pytest.raises(SchemaViolation):
        vocabulary_from_dict(make_doc(terms))


def test_exclusion_argument_count_checked():
    exclusions = [{"first": {"relation": "follows", "args": ["X"]},
                   "second": {"relation": "follows", "args": ["Y", "X"]}}]
    with pytest.raises(SchemaViolation):
        vocabulary_from_dict(make_doc(FIVE_TERMS, exclusions))


def test_bad_json_reports_position():
    with pytest.raises(ScenarioSyntaxError):
        load_vocabulary("{not json")


def test_round_trip_byte_identical():
    vocabulary = vocabulary_from_dict(make_doc(FIVE_TERMS))
    text = serialize_vocabulary(vocabulary)
    again = load_vocabulary(text)
    assert serialize_vocabulary(again) == text
    assert again == vocabulary


def test_term_order_does_not_matter():
    rng = random.Random(7)
    reference = serialize_vocabulary(vocabulary_from_dict(make_doc(FIVE_TERMS)))
    for _ in range(20):
        shuffled = list(FIVE_TERMS)
        rng.shuffle(shuffled)
        assert serialize_vocabulary(vocabulary_from_dict(make_doc(shuffled))) == reference


def test_normalize_name_rejects_garbage():
    assert normalize_name("  Straight ") == "straight"
    with pytest.raises(ScenarioSyntaxError):
        normalize_name("3lanes!")


def test_to_dict_round_trip_via_json():
    vocabulary = vocabulary_from_dict(make_doc(FIVE_TERMS, [
        {"first": {"relation": "follows", "args": ["X", "Y"]},
         "second": {"relation": "follows", "args": ["Y", "X"]}}]))
    doc = json.loads(json.dumps(vocabulary_to_dict(vocabulary)))
    assert vocabulary_from_dict(doc) == vocabulary
