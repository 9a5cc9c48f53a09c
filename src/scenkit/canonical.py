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
it rejects a non-``str`` key, and a record (a named tuple, which ``json``
writes as an array), with a ``TypeError`` instead of converting it, and a
float that is not finite with a ``SchemaViolation``: JSON has no NaN or
infinity, and ``json`` would write a bare ``NaN`` that no loader here reads.

Every artifact format is declared as field tables: a ``Record`` lists one
``Field`` per JSON key. ``Record.decode`` reads a loaded document through its
table and raises a ``SchemaViolation`` naming the record and the key.
Every artifact and every hash is written only through a table's writer:
``Record.dumps`` and ``Record.digest`` write straight from a record's
attributes, through a writer compiled from the table, and hand it to
``dumps_canonical``, which makes every whole document. ``Record.encode`` is
that text read back with ``json.loads``, so a record's dict is exactly what a
reader of its file sees. A rule beyond one field's JSON type lives with the
module that owns the record.
"""

import hashlib
import json
import math
import re
from functools import cached_property
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import NamedTuple

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
    if type(value) is list or type(value) is tuple:  # a record is a tuple, but no JSON array
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


def dumps_canonical(value, write=_encode) -> str:
    """``write(value, indent)`` as a whole document: from the first column,
    with a trailing newline. By default, ``value`` is a JSON value; a table's
    writer writes a record. A value nested too deeply to encode, or a float
    that is not finite, is a ``SchemaViolation``."""
    try:
        return write(value, "\n") + "\n"
    except RecursionError as exc:
        raise SchemaViolation("value nested too deeply to encode") from exc


def load_json(source: str, loads=json.loads):
    """Decode a JSON document with ``loads``; malformed text, or text nested
    too deeply to decode, is a ``ScenarioSyntaxError``."""
    try:
        return loads(source)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise ScenarioSyntaxError("JSON nested too deeply to decode") from exc


# Each type reads a loaded JSON value with ``decode(value, where, key)``:
# ``where`` names the record holding the value and ``key`` its key there, or
# ``key`` is None and ``where`` names the value. ``write(value, indent)``
# writes a read value back as canonical JSON text; ``indent`` is as in
# ``_encode``.

def _error(where: str, key, problem: str) -> SchemaViolation:
    return SchemaViolation(f"{where} {problem}" if key is None else f"{where}: {key!r} {problem}")


def _path(where: str, key) -> str:
    return where if key is None else f"{where}.{key}"


class Scalar:
    """A JSON value of exactly one Python type, read and written as it is."""

    write = staticmethod(_encode)

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

    def write(self, value, indent: str) -> str:
        if isinstance(self.item, Scalar):  # one pass, so an all-float array is joined at once
            return _encode(value, indent)
        write, inner = self.item.write, indent + "  "
        items = [write(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


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

    def write(self, value, indent: str) -> str:
        write, inner = self.item.write, indent + "  "
        items = [encode_basestring(key) + ": " + write(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"


NUMBERS = Map(NUMBER)
check_numbers = NUMBERS.decode  # (value, what): an object of finite numbers, as floats
REQUIRED = object()  # the default of a field whose key must be present
# The default of a record's dict field: a named tuple's default is one object,
# shared by every instance, so it is an empty mapping that cannot be changed.
EMPTY = MappingProxyType({})


class Field(NamedTuple):
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
    returns the record. ``name`` names a document's record in errors. A key
    that is neither a field's nor the tag's is an error."""

    plural = "objects"

    def __init__(self, make, *fields: Field, tag: tuple[str, str] | None = None, check=None,
                 name: str = ""):
        self.make, self.tag, self.check, self.name = make, tag, check, name
        self.fields = fields
        attrs = [field.attr or field.key for field in fields]
        self.readers = [(f.key, attr, f.type.decode, f.default) for f, attr in zip(fields, attrs)]
        self.keys = frozenset([f.key for f in fields] + ([tag[0]] if tag else []))
        get = (itemgetter if make is dict else attrgetter)(*attrs)
        self.get = get if len(attrs) > 1 else lambda value: (get(value),)  # always a tuple

    def decode(self, value, where: str | None = None, key=None):
        where = self.name if where is None else where
        if not isinstance(value, dict):
            raise _error(where, key, "must be an object")
        where = _path(where, key)
        if self.tag is not None and value.get(self.tag[0]) != self.tag[1]:
            raise SchemaViolation(f"{where}: expected {self.tag[0]} {self.tag[1]!r}")
        if not self.keys.issuperset(value):
            undeclared = next(name for name in value if name not in self.keys)
            raise SchemaViolation(f"{where}: undeclared key {undeclared!r}")
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
        """A document as the dict its written text reads back as."""
        return json.loads(self.dumps(value))

    @cached_property
    def write(self):
        """``writer()``, compiled when a record of this table is first written."""
        return self.writer()

    def writer(self, **types):
        """``write(value, indent)``, compiled from the field table: the
        canonical JSON text of a record from ``indent`` on, written from the
        value's attributes. It has the tag and every field's key, but not one
        whose ``omit`` leaves out a value equal to its default. The keys are
        sorted here, once, and each field's type writes its value. ``types``
        replaces the type of the fields it names by key, e.g. with ``TEXT``
        for a value written before."""
        entries = [(self.tag[0], encode_basestring(self.tag[0]) + ": "
                    + encode_basestring(self.tag[1]), None, None, False, None)] if self.tag else []
        for n, field in enumerate(self.fields):
            entries.append((field.key, encode_basestring(field.key) + ": ", n,
                            types.get(field.key, field.type).write, field.omit, field.default))
        entries.sort(key=itemgetter(0))
        get = (lambda value: value) if self.make is tuple else self.get

        def write(value, indent: str) -> str:
            items = get(value)
            inner = indent + "  "
            parts = []
            for _, prefix, n, write_item, omit, default in entries:
                if n is None:  # the tag
                    parts.append(prefix)
                    continue
                item = items[n]
                if not (omit and item == default):
                    parts.append(prefix + ("null" if item is None else write_item(item, inner)))
            return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
        return write

    def loads(self, source: str):
        """A document's JSON text, read."""
        return self.decode(load_json(source))

    def dumps(self, value) -> str:
        """A document as canonical JSON text."""
        return dumps_canonical(value, self.write)

    def digest(self, value) -> str:
        """The content hash of a document."""
        return hashlib.sha256(self.dumps(value).encode("utf-8")).hexdigest()


class Object:
    """An open record: a JSON object whose listed keys, where present, are of
    their types, and whose every key is kept. It is read into ``make`` of a
    copy of the object and written as a dict."""

    plural = "objects"

    def __init__(self, make=dict, **types):
        self.make, self.types = make, types

    def decode(self, value, where: str, key=None):
        if not isinstance(value, dict):
            raise _error(where, key, "must be an object")
        for name, kind in self.types.items():
            if name in value:
                kind.decode(value[name], _path(where, key), name)
        return self.make(dict(value))

    @staticmethod
    def write(value, indent: str) -> str:
        return _encode(dict(value), indent)


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

    def write(self, value, indent: str) -> str:
        return self.records[getattr(value, self.key)].write(value, indent)


class _Text:
    """JSON text already written at the indent it is put at, written as it
    is; a type to write with, not to read."""

    plural = "texts"

    @staticmethod
    def write(text: str, indent: str) -> str:
        return text


TEXT = _Text()


# A scenario id names its output files (``<id>.logical.json``, ``cases/<id>/``),
# so it must be a plain, visible file name: no separator, no leading dot.
SCENARIO_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def is_scenario_id(value) -> bool:
    return isinstance(value, str) and SCENARIO_ID_RE.fullmatch(value) is not None


SCENARIO_ID = Choice(is_scenario_id, "scenario id")
# The level a record was derived from: its scenario id and content hash.
SOURCE_REF = Object(scenario_id=STRING, hash=STRING)
