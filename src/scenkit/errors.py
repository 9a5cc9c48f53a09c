"""Error types shared across the pipeline.

Exit codes follow the CLI contract: 0 ok, 1 findings, 2 I/O, 3 syntax/content,
4 infeasible, 5 internal.
"""

from typing import NamedTuple


def line_apart(record: type) -> type:
    """Class decorator for a named tuple whose last field is ``line``, the DSL
    source line of what it holds: ``line`` takes no part in its equality or
    hashing, so the same element read from another line is the same element."""
    record.__eq__ = lambda self, other: type(other) is type(self) and self[:-1] == other[:-1]
    record.__ne__ = lambda self, other: not self == other
    record.__hash__ = lambda self: hash(self[:-1])
    return record


@line_apart
class Finding(NamedTuple):
    """One rule violation; ``line`` is the DSL source line when known."""

    code: str
    message: str
    elements: tuple[str, ...] = ()
    line: int | None = None


class Report(NamedTuple):
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


class ScenarioError(Exception):
    """Base class for all scenkit errors."""

    exit_code = 5


class ScenarioSyntaxError(ScenarioError):
    """Malformed input document or DSL text."""

    exit_code = 3

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaViolation(ScenarioError):
    """Structurally valid JSON that does not match the expected schema."""

    exit_code = 3


# vocabulary
class DuplicateTerm(ScenarioError):
    exit_code = 3


class DanglingReference(ScenarioError):
    exit_code = 3


# functional DSL
class UnknownTerm(ScenarioSyntaxError):
    def __init__(self, word: str, line: int | None = None, hint: str | None = None):
        self.hint = hint
        message = f"unknown term {word!r}"
        if hint is not None:
            message += f" (did you mean {hint!r}?)"
        super().__init__(message, line=line)


class ArityMismatch(ScenarioSyntaxError):
    pass


class IllegalAttributeValue(ScenarioSyntaxError):
    pass


class IllegalApplication(ScenarioSyntaxError):
    pass


class DuplicateInstance(ScenarioSyntaxError):
    pass


# parameter catalog / lowering
class BadRange(ScenarioError):
    exit_code = 3


class BadDistribution(ScenarioError):
    exit_code = 3


class UnboundConstraintParameter(ScenarioError):
    exit_code = 3


class MissingTemplate(ScenarioError):
    exit_code = 3


class VocabularyMismatch(ScenarioError):
    exit_code = 3


class ConstraintInstantiationError(ScenarioError):
    exit_code = 3


class OverrideWidensRange(ScenarioError):
    exit_code = 3


# concretization
class BadK(ScenarioError):
    exit_code = 3


class BadN(ScenarioError):
    exit_code = 3


class InfeasibleLevels(ScenarioError):
    exit_code = 4


class SamplingExhausted(ScenarioError):
    exit_code = 4


class SourceMismatch(ScenarioError):
    exit_code = 3


# test cases
class BadTiming(ScenarioError):
    exit_code = 3


class MissingKinematicInputs(ScenarioError):
    exit_code = 3


class IncompleteField(ScenarioError):
    exit_code = 3

    def __init__(self, field: str):
        self.field = field
        super().__init__(f"mandatory test case field is empty: {field}")


class TraceMismatch(ScenarioError):
    exit_code = 5


class DuplicateId(ScenarioError):
    exit_code = 5
