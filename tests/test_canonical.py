"""``dumps_canonical`` must produce exactly the bytes of the ``json`` reference,
and refuse the ``NaN``/``Infinity`` spelling that no JSON loader here reads."""

import hashlib
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenkit.canonical import check_numbers, content_hash, dumps_canonical
from scenkit.errors import SchemaViolation


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
                                   [object()], {"a": frozenset()}],
                         ids=["set", "bytes", "int-key", "tuple-key", "object", "frozenset"])
def test_rejects_non_json_types(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


def test_content_hash_uses_the_canonical_bytes():
    value = {"samples": [0.0, -0.0, 1.25], "id": "ü"}
    assert content_hash(value) == hashlib.sha256(reference(value).encode("utf-8")).hexdigest()


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
    with pytest.raises(SchemaViolation, match="nested too deeply to encode"):
        content_hash(value)
