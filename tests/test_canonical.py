"""``dumps_canonical`` must produce exactly the bytes of the ``json`` reference,
and refuse the ``NaN``/``Infinity`` spelling that no JSON loader here reads.
Each record table's compiled writer is checked against references that share
no code with it: stdlib ``json`` for the bytes, the table's reader for the
content, and the field table for the keys."""

import hashlib
import json
import math
import re
import sys
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit.canonical import Record, check_numbers, dumps_canonical
from scenkit.concretize import CONCRETE, SUITE, ConcreteScenario, CoverageReport
from scenkit.errors import Finding, SchemaViolation
from scenkit.functional import FUNCTIONAL
from scenkit.logical import LOGICAL
from scenkit.lowering import CATALOG
from scenkit.testcase import (
    EXPECTED,
    MANIFEST,
    TESTCASE,
    Check,
    ExpectedBehavior,
    TimeSeries,
)
from scenkit import testcase as tcmod
from scenkit.vocabulary import VOCABULARY, vocabulary_from_dict

from conftest import DATA, random_logical
from test_acceptance import (
    random_concrete_obj,
    random_functional_obj,
    random_testcase_obj,
    random_vocabulary_doc,
)


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def finite(value) -> bool:
    """Whether every float in ``value`` is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, (list, tuple)) or all(map(finite, value))


def check_against_reference(value):
    if finite(value):
        assert dumps_canonical(value) == reference(value)
    else:
        with pytest.raises(SchemaViolation, match="not finite"):
            dumps_canonical(value)


text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e16,
                     math.inf, -math.inf, math.nan, sys.float_info.max]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64),
                    floats, text)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(floats, max_size=8),
        st.lists(st.one_of(floats, st.booleans()), max_size=8),
        st.dictionaries(text, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_matches_json_reference(value):
    check_against_reference(value)


@pytest.mark.parametrize("value", [
    [0.0, -0.0, 0.0, 1.5, -0.0],
    [-0.0] * 4,
    [0.0] + [-0.0] * 3,
    [-0.0] + [0.0] * 3,
    [1.5] * 101,
    [math.nan] * 3,
    [-math.inf] * 3,
    [math.nan, math.nan, 1.0],
    [math.inf, -math.inf, 2.0, math.inf],
    [5e-324, 2.2250738585072014e-308, -5e-324],
    [True, 1.0, False, 0.0],
    [1, 1.0],
    (1.0, (2.0, [3]), ()),
    {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
    10 ** 40,
    -(10 ** 30),
    {"é\u0001\n\"\\": ["  \x7f ü", None], "\x00": "퟿"},
    "plain",
], ids=["signed-zeros", "negative-zeros", "zero-then-negative-zeros",
        "negative-zero-then-zeros", "constant", "constant-nan", "constant-infinity", "nan",
        "infinities", "subnormals", "bools-among-floats", "int-among-floats", "tuples", "empty-containers", "big-int",
        "big-negative-int", "control-and-non-ascii", "string"])
def test_matches_json_reference_fixed(value):
    check_against_reference(value)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", {1: "a"}, {"a": {(1, 2): 0}},
                                   [object()], {"a": frozenset()},
                                   ConcreteScenario("x", {"scenario_id": "s"}, {"a.x": 1.0},
                                                    "random", 0, {}),
                                   [Finding("RANGE", "a.x out of range", ("a.x",))]],
                         ids=["set", "bytes", "int-key", "tuple-key", "object", "frozenset",
                              "concrete-scenario", "finding"])
def test_rejects_non_json_types(value):
    """A record is a named tuple, which ``json`` writes as an array; it is
    written only through its table."""
    with pytest.raises(TypeError):
        dumps_canonical(value)


@pytest.mark.parametrize("number", [math.inf, -math.inf, math.nan])
def test_check_numbers_rejects_non_finite(number):
    with pytest.raises(SchemaViolation, match="'a' is not finite"):
        check_numbers({"b": 1, "a": number}, "assignments")
    assert check_numbers({"b": 1, "a": -0.0}, "assignments") == {"b": 1.0, "a": -0.0}


def test_value_too_deep_to_encode_is_a_schema_violation():
    value = 0
    for _ in range(sys.getrecursionlimit()):
        value = {"x": [value]}
    with pytest.raises(SchemaViolation, match="nested too deeply to encode"):
        dumps_canonical({"source_ref": value})


def write_error(value) -> str | None:
    """The error a writer must raise for ``value``, found by a walk without
    recursion: JSON has no NaN or infinity, and the recursive stdlib reference
    cannot write a value nested deeper than the recursion limit either."""
    stack, deepest = [(value, 0)], 0
    while stack:
        item, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(item, float) and not math.isfinite(item):
            return "cannot write a number that is not finite (NaN or an infinity)"
        if isinstance(item, Mapping):
            stack.extend((child, depth + 1) for child in item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend((child, depth + 1) for child in item)
    return "value nested too deeply to encode" if deepest > sys.getrecursionlimit() else None


def plain(value):
    """``value`` with every array a tuple, every mapping a dict and every
    number paired with its sign, so that a value read back equals the value
    written even where a table reads tuples, an integer as a float, or
    ``-0.0``."""
    if isinstance(value, (list, tuple)):
        return tuple(map(plain, value))
    if isinstance(value, Mapping):
        return {key: plain(item) for key, item in value.items()}
    if type(value) in (int, float):
        return value, str(value).startswith("-")
    return value


def field_values(record, value) -> list:
    """``value``'s item for each field of ``record``, in table order."""
    if record.make is tuple:
        return list(value)
    names = [field.attr or field.key for field in record.fields]
    if record.make is dict:
        return [value[name] for name in names]
    return [getattr(value, name) for name in names]


def check_writer(record, value):
    """``record.dumps`` and ``record.digest`` against references that share no
    code with the writer: the text is what stdlib ``json`` writes of the text
    read back, reads back through the table as ``value``, and has exactly the
    tag and every field that ``omit`` does not leave out."""
    error = write_error(value)
    if error is not None:
        with pytest.raises(SchemaViolation, match=re.escape(error)):
            record.dumps(value)
        return
    text = record.dumps(value)
    document = json.loads(text)
    assert text == reference(document)
    assert record.digest(value) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    # read without the table's ``check``: a random suite may list an id twice
    assert plain(Record(record.make, *record.fields, tag=record.tag).decode(document)) == plain(value)
    keys = {field.key for field, item in zip(record.fields, field_values(record, value))
            if not (field.omit and item == field.default)}
    assert set(document) == keys | ({record.tag[0]} if record.tag else set())


def random_suite(rng):
    coverage = CoverageReport(rng.random(), rng.random(), rng.randint(0, 9), rng.randint(0, 9))
    return ([random_concrete_obj(rng) for _ in range(rng.randint(0, 3))],
            coverage if rng.random() < 0.5 else None)


def random_manifest(rng):
    cases = [{"unique_id": f"tc-{n}", "hash": f"{rng.getrandbits(256):064x}", "file": f"tc-{n}.json"}
             for n in range(rng.randint(0, 3))]
    return {"case_count": len(cases), "cases": cases, "suite_hash": f"{rng.getrandbits(256):064x}"}


CATALOG_DOCUMENT = json.loads((DATA / "catalog.json").read_text())
# format: (record, a value of it from a random.Random), the values from A8's generators
FORMATS = {
    "vocabulary": (VOCABULARY, lambda rng: vocabulary_from_dict(random_vocabulary_doc(rng))),
    "catalog": (CATALOG, lambda rng: CATALOG.decode(CATALOG_DOCUMENT)),
    "functional": (FUNCTIONAL, random_functional_obj),
    "logical": (LOGICAL, lambda rng: random_logical(rng, max_parameters=5, max_constraints=3)),
    "concrete": (CONCRETE, random_concrete_obj),
    "suite": (SUITE, random_suite),
    "expected": (EXPECTED, lambda rng: random_testcase_obj(rng).expected),
    "testcase": (TESTCASE, random_testcase_obj),
    "manifest": (MANIFEST, random_manifest),
}


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=50, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_record_writer_matches_the_reference(name, rng):
    record, make = FORMATS[name]
    check_writer(record, make(rng))


def test_catalog_written_and_read_again_is_equal():
    """A relation template read from its ``expr`` shorthand is written as
    ``lhs``/``op``/``rhs`` and reads back the same."""
    catalog = CATALOG.decode(CATALOG_DOCUMENT)
    assert catalog["relations"]
    text = CATALOG.dumps(catalog)
    assert '"expr"' not in text
    assert CATALOG.loads(text) == catalog


def _deep():
    value = 0
    for _ in range(sys.getrecursionlimit()):
        value = {"x": [value]}
    return value


def _case(samples, dt=0.5, bound=10.0):
    return tcmod.TestCase(unique_id="tc-0", work_product_ref="req", preconditions="p", configuration="c",
                    environmental_conditions={"r1.w": 3.5},
                    input_data=(TimeSeries(parameter="c1.s", unit="m", dt=dt, samples=samples),),
                    expected=ExpectedBehavior("keeps a gap", (Check("gap", ">=", bound, 0.5),)),
                    source_ref={"scenario_id": "s", "hash": "0" * 64})


@pytest.mark.parametrize("record, value", [
    (TESTCASE, _case((0.0, -0.0, 0.0))),
    (TESTCASE, _case((-0.0, 0.0, -0.0))),
    (TESTCASE, _case((1.0, 2.0), dt=1)),
    (TESTCASE, _case((1.0,), bound=10)),
    (TESTCASE, _case((1.0, math.nan))),
    (TESTCASE, _case((1.0,), bound=math.nan)),
    (CONCRETE, ConcreteScenario("x", {"scenario_id": "s"}, {"a.x": 1.0}, provenance={"x": _deep()})),
], ids=["zero-then-negative-zero", "negative-zero-then-zero", "int-dt", "int-bound", "nan-sample",
        "nan-bound", "too-deep"])
def test_record_writer_matches_the_reference_fixed(record, value):
    check_writer(record, value)
