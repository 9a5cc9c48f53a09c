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
it rejects a non-``str`` key with a ``TypeError`` instead of converting it,
and a float that is not finite with a ``SchemaViolation``: JSON has no NaN or
infinity, and ``json`` would write a bare ``NaN`` that no loader here reads.

Every artifact format is declared as field tables: a ``Record`` lists one
``Field`` per JSON key. ``Record.decode`` reads a loaded document through its
table and raises a ``SchemaViolation`` naming the record and the key;
``Record.encode`` builds the dict that ``dumps_canonical`` writes. A rule
beyond one field's JSON type lives with the module that owns the record.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter

from .errors import ScenarioSyntaxError, SchemaViolation


def _finite(text: str) -> str:
    """``text``, the repr of a float or the body of a float array, unless it
    holds a NaN or an infinity, which JSON cannot spell."""
    if "n" in text:  # nan or inf: finite reprs are digits, ".", "e", "+" and "-"
        raise SchemaViolation("cannot write a number that is not finite (NaN or an infinity)")
    return text


def _floats(values, separator: str) -> str:
    """An all-float array body, joined from C-level reprs. A constant array,
    the common case for trace samples, formats its value once; not when that
    value is a zero, because ``0.0 == -0.0`` but they render differently."""
    first = values[0]
    if first and values.count(first) == len(values):
        text = separator.join([float.__repr__(first)] * len(values))
    else:
        text = separator.join(map(float.__repr__, values))
    return _finite(text)


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
        return _finite(float.__repr__(value))
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
    """``obj`` as canonical JSON; a value nested too deeply to encode, or a
    float that is not finite, is a ``SchemaViolation``."""
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


# Each type reads a loaded JSON value with ``decode(value, where, key)``:
# ``where`` names the record holding the value and ``key`` its key there, or
# ``key`` is None and ``where`` names the value. ``encode``, unless None,
# turns a read value back into JSON values.

def _error(where: str, key, problem: str) -> SchemaViolation:
    return SchemaViolation(f"{where} {problem}" if key is None else f"{where}: {key!r} {problem}")


def _path(where: str, key) -> str:
    return where if key is None else f"{where}.{key}"


class Scalar:
    """A JSON value of exactly one Python type, read and written as it is."""

    encode = None

    def __init__(self, kind: type, noun: str, plural: str):
        self.kind, self.noun, self.plural = kind, noun, plural

    def decode(self, value, where: str, key=None):
        if type(value) is not self.kind:
            raise _error(where, key, f"must be {self.noun}")
        return value


STRING = Scalar(str, "a string", "strings")
INTEGER = Scalar(int, "an integer", "integers")  # a bool is no integer here
BOOL = Scalar(bool, "a boolean", "booleans")


class Number(Scalar):
    """A JSON number, read as a float; a bool is no number here. With
    ``finite``, NaN, an infinity and an integer beyond the float range are
    rejected; without it they read as NaN or an infinity, for the record's
    check to report. A number below ``minimum`` is rejected."""

    def __init__(self, finite: bool = True, minimum: float | None = None):
        super().__init__(float, "a number", "finite numbers" if finite else "numbers")
        self.finite, self.minimum = finite, minimum

    def decode(self, value, where: str, key=None) -> float:
        if type(value) not in (int, float):
            raise _error(where, key, "is not a number")
        try:
            number = float(value)
        except OverflowError:  # an integer literal of more than 308 digits
            number = math.inf if value > 0 else -math.inf
        if self.finite and not math.isfinite(number):
            raise _error(where, key, "is not finite")
        if self.minimum is not None and number < self.minimum:
            raise _error(where, key, f"must be >= {self.minimum!r}")
        return number


NUMBER = Number()


class Choice(Scalar):
    """One of a tuple of strings, or a value a function accepts; an error calls
    the value ``name``, or by its key."""

    def __init__(self, choices, name: str | None = None):
        super().__init__(str, "a string", "strings")
        self.accepts = choices.__contains__ if isinstance(choices, tuple) else choices
        self.name = name

    def decode(self, value, where: str, key=None):
        if not self.accepts(value):
            raise SchemaViolation(f"{where}: bad {self.name or key} {value!r}")
        return value


class List:
    """A JSON array of one type, read as a tuple. A scalar item of the wrong
    type is reported as the array's error, a record item under its index."""

    plural = "arrays"

    def __init__(self, item):
        self.item, self.noun = item, f"an array of {item.plural}"

    def decode(self, value, where: str, key=None) -> tuple:
        if isinstance(value, list):
            if not isinstance(self.item, Scalar):
                where = _path(where, key)
                return tuple([self.item.decode(item, f"{where}[{n}]")
                              for n, item in enumerate(value)])
            try:
                return tuple([self.item.decode(item, where, key) for item in value])
            except SchemaViolation:
                pass
        raise _error(where, key, f"must be {self.noun}")

    def encode(self, value) -> list:
        return list(value) if self.item.encode is None else list(map(self.item.encode, value))


class Map:
    """A JSON object of any keys whose values are of one type, read as a dict."""

    plural = "objects"

    def __init__(self, item):
        self.item, self.noun = item, f"an object of {item.plural}"

    def decode(self, value, where: str, key=None) -> dict:
        if not isinstance(value, dict):
            raise _error(where, key, f"must be {self.noun}")
        where = _path(where, key)
        return {name: self.item.decode(item, where, name) for name, item in value.items()}

    def encode(self, value) -> dict:
        encode = self.item.encode
        return dict(value) if encode is None else {name: encode(item)
                                                   for name, item in value.items()}


NUMBERS = Map(NUMBER)
check_numbers = NUMBERS.decode  # (value, what): an object of finite numbers, as floats
REQUIRED = object()  # the default of a field whose key must be present


@dataclass(frozen=True)
class Field:
    """One key of a record. A missing key reads as ``default``, or as what it
    returns if it is callable, and so does a ``null`` if the default is None;
    with ``omit``, a value equal to the default is not written. ``attr`` is
    the attribute, if not ``key``."""

    key: str
    type: object
    default: object = REQUIRED
    omit: bool = False
    attr: str | None = None


class Record:
    """A JSON object read into ``make(**fields)`` and written from the same
    attributes of an object, or, with ``make`` being ``tuple`` or ``dict``,
    read into and written from that of the field values. ``tag``, a ``(key,
    value)`` pair such as a format, must be in a read record and is put in a
    written one. ``check(made, where)`` holds the record's other rules and
    returns the record. ``name`` names a document's record in errors."""

    plural = "objects"

    def __init__(self, make, *fields: Field, tag: tuple[str, str] | None = None, check=None,
                 name: str = ""):
        self.make, self.tag, self.check, self.name = make, tag, check, name
        attrs = [field.attr or field.key for field in fields]
        self.readers = [(f.key, attr, f.type.decode, f.default) for f, attr in zip(fields, attrs)]
        self.writers = [(f.key, f.type.encode, f.omit, f.default) for f in fields]
        get = (itemgetter if make is dict else attrgetter)(*attrs)
        self.get = get if len(attrs) > 1 else lambda value: (get(value),)  # always a tuple

    def decode(self, value, where: str | None = None, key=None):
        where = self.name if where is None else where
        if not isinstance(value, dict):
            raise _error(where, key, "must be an object")
        where = _path(where, key)
        if self.tag is not None and value.get(self.tag[0]) != self.tag[1]:
            raise SchemaViolation(f"{where}: expected {self.tag[0]} {self.tag[1]!r}")
        values = {}
        for name, attr, decode, default in self.readers:
            item = value.get(name, REQUIRED)  # REQUIRED: the key is missing
            if item is not REQUIRED and (item is not None or default is not None):
                values[attr] = decode(item, where, name)
            elif default is REQUIRED:
                raise SchemaViolation(f"{where}: missing field {name!r}")
            else:
                values[attr] = default() if callable(default) else default
        made = tuple(values.values()) if self.make is tuple else self.make(**values)
        return made if self.check is None else self.check(made, where)

    def encode(self, value) -> dict:
        document = {} if self.tag is None else {self.tag[0]: self.tag[1]}
        items = value if self.make is tuple else self.get(value)
        for (key, encode, omit, default), item in zip(self.writers, items):
            if not (omit and item == default):
                document[key] = item if encode is None or item is None else encode(item)
        return document

    def loads(self, source: str):
        """A document's JSON text, read."""
        return self.decode(load_json(source))

    def dumps(self, value) -> str:
        """A document as canonical JSON text."""
        return dumps_canonical(self.encode(value))

    def digest(self, value) -> str:
        """The content hash of a document."""
        return content_hash(self.encode(value))


class Object:
    """An open record: a JSON object whose listed keys, where present, are of
    their types, and whose every key is kept. It is read into ``make`` of a
    copy of the object and written as a dict."""

    plural = "objects"
    encode = dict

    def __init__(self, make=dict, **types):
        self.make, self.types = make, types

    def decode(self, value, where: str, key=None):
        if not isinstance(value, dict):
            raise _error(where, key, "must be an object")
        for name, kind in self.types.items():
            if name in value:
                kind.decode(value[name], _path(where, key), name)
        return self.make(dict(value))


class Union:
    """Records told apart by the value of one key, each one's tag; an object
    is written by the record its attribute of that name selects."""

    plural = "objects"

    def __init__(self, key: str, *records: Record):
        self.key, self.records = key, {record.tag[1]: record for record in records}

    def decode(self, value, where: str, key=None):
        tag = value.get(self.key) if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in self.records:
            raise _error(where, key, f"must be an object with a known {self.key!r}, not {tag!r}")
        return self.records[tag].decode(value, where, key)

    def encode(self, value) -> dict:
        return self.records[getattr(value, self.key)].encode(value)


# A scenario id names its output files (``<id>.logical.json``, ``cases/<id>/``),
# so it must be a plain, visible file name: no separator, no leading dot.
SCENARIO_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def is_scenario_id(value) -> bool:
    return isinstance(value, str) and SCENARIO_ID_RE.fullmatch(value) is not None


SCENARIO_ID = Choice(is_scenario_id, "scenario id")
# The level a record was derived from: its scenario id and content hash.
SOURCE_REF = Object(scenario_id=STRING, hash=STRING)
