"""Canonical JSON conventions shared by every file format.

All artifacts serialize with sorted keys, 2-space indentation, ``\\n`` line
ends, and a trailing newline. Floats are rendered by ``repr``, which emits the
shortest decimal that round-trips to the same binary64 value, so canonical
bytes are stable across platforms.
"""

from __future__ import annotations

import hashlib
import json

from .errors import ScenarioSyntaxError, SchemaViolation


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def content_hash(obj) -> str:
    """sha256 hex digest of the canonical serialization of ``obj``."""
    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()


def json_syntax_error(exc: json.JSONDecodeError) -> ScenarioSyntaxError:
    return ScenarioSyntaxError(exc.msg, line=exc.lineno, column=exc.colno)


def load_json(source: str):
    """Decode a JSON document; malformed text is a ``ScenarioSyntaxError``."""
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise json_syntax_error(exc) from exc


def check_document(document, what: str, fields=(), format_tag: str | None = None) -> dict:
    """Header check: an object, with the format tag if one is given, and the
    required top-level fields."""
    if not isinstance(document, dict):
        raise SchemaViolation(f"{what} document must be an object")
    if format_tag is not None and document.get("format") != format_tag:
        raise SchemaViolation(f"expected format {format_tag!r}")
    for key in fields:
        if key not in document:
            raise SchemaViolation(f"{what}: missing field {key!r}")
    return document
