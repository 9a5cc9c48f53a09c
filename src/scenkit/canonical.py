"""Canonical JSON conventions shared by every file format.

All artifacts serialize with sorted keys, 2-space indentation, ``\\n`` line
ends, and a trailing newline. Floats are rendered by ``repr``, which emits the
shortest decimal that round-trips to the same binary64 value, so canonical
bytes are stable across platforms.

The bytes are defined as those of ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False) + "\\n"``, and ``dumps_canonical`` must stay byte-equal to
that expression. It does not call it: with ``indent`` set, CPython's ``json``
falls back to its pure-Python encoder, which takes one generator step per
value and made encoding the trace samples of an export the slowest stage of a
pipeline run. The encoder below handles exactly the JSON value types, renders
strings with json's C string encoder, and joins an all-float array from
C-level reprs, formatting the value of a constant array once. Unlike ``json``,
it rejects a non-``str`` key with a ``TypeError`` instead of converting it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from json.encoder import encode_basestring

from .errors import ScenarioSyntaxError, SchemaViolation

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _floats(values, separator: str) -> str:
    """An all-float array body, joined from C-level reprs. A constant array,
    the common case for trace samples, formats its value once; not when that
    value is a zero, because ``0.0 == -0.0`` but they render differently."""
    first = values[0]
    if first and values.count(first) == len(values):
        text = separator.join([float.__repr__(first)] * len(values))
    else:
        text = separator.join(map(float.__repr__, values))
    if "n" in text:  # nan or inf: finite reprs are digits, ".", "e", "+" and "-"
        text = separator.join(map(_float, values))
    return text


def _encode(value, indent: str) -> str:
    """``value`` as canonical JSON; ``indent`` is the newline and indentation
    of the line it starts on."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = indent + "  "
    separator = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            body = _floats(value, separator)
        else:
            body = separator.join([_encode(item, inner) for item in value])
        return "[" + inner + body + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = separator.join([encode_basestring(key) + ": " + _encode(value[key], inner)
                               for key in sorted(value)])
        return "{" + inner + body + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    """``obj`` as canonical JSON; a value nested too deeply to encode is a
    ``SchemaViolation``."""
    try:
        return _encode(obj, "\n") + "\n"
    except RecursionError as exc:
        raise SchemaViolation("value nested too deeply to encode") from exc


def content_hash(obj) -> str:
    """sha256 hex digest of the canonical serialization of ``obj``."""
    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()


def load_json(source: str, loads=json.loads):
    """Decode a JSON document with ``loads``; malformed text, or text nested
    too deeply to decode, is a ``ScenarioSyntaxError``."""
    try:
        return loads(source)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ScenarioSyntaxError("JSON nested too deeply to decode") from exc


def check_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(f"{what} must be an object")
    return value


def check_records(value, what: str, fields=()) -> list[dict]:
    """An array of objects, each with the required fields."""
    if not isinstance(value, list):
        raise SchemaViolation(f"{what} must be an array")
    for record in value:
        check_document(record, f"{what} record", fields)
    return value


def check_strings(value, what: str) -> list[str]:
    """An array of strings."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise SchemaViolation(f"{what} must be an array of strings")
    return value


def check_text(record: dict, what: str, *keys: str) -> None:
    """Each of ``keys`` in ``record`` is a string."""
    for key in keys:
        if not isinstance(record[key], str):
            raise SchemaViolation(f"{what}: {key!r} must be a string")


def check_number(value, what: str, key=None, finite: bool = True) -> float:
    """A JSON number, as a float; a bool is no number here. With ``finite``,
    NaN, an infinity and an integer beyond the float range are rejected;
    without it they load as NaN or an infinity, for the caller to report.
    ``what`` names the value, or with ``key`` the object holding it."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer literal of more than 308 digits
            number = math.inf if value > 0 else -math.inf
        if not finite or math.isfinite(number):
            return number
        problem = "is not finite"
    else:
        problem = "is not a number"
    raise SchemaViolation(f"{what} {problem}" if key is None else f"{what}: {key!r} {problem}")


def check_numbers(value, what: str) -> dict[str, float]:
    """An object whose values are all finite JSON numbers, as floats."""
    return {key: check_number(number, what, key)
            for key, number in check_object(value, what).items()}


def check_document(document, what: str, fields=(), format_tag: str | None = None) -> dict:
    """Header check: an object, with the format tag if one is given, and the
    required top-level fields."""
    check_object(document, f"{what} document")
    if format_tag is not None and document.get("format") != format_tag:
        raise SchemaViolation(f"expected format {format_tag!r}")
    for key in fields:
        if key not in document:
            raise SchemaViolation(f"{what}: missing field {key!r}")
    return document


# A scenario id names its output files (``<id>.logical.json``, ``cases/<id>/``),
# so it must be a plain, visible file name: no separator, no leading dot.
SCENARIO_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def is_scenario_id(value) -> bool:
    return isinstance(value, str) and SCENARIO_ID.fullmatch(value) is not None
