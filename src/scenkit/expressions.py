"""Minimal infix expression grammar for numeric constraints.

Expressions range over qualified parameter names (``t1.s0``), real literals,
``+ - * ( )``, and the comparators ``< <= > >= =``. Identifiers use
underscores, never hyphens, so ``-`` always tokenizes as an operator.

Expression ASTs are plain tuples:

    ("num", value) | ("var", name) | ("neg", a) |
    ("add", a, b) | ("sub", a, b) | ("mul", a, b)

A tree deeper than ``MAX_DEPTH`` levels is a ``ScenarioSyntaxError``.
"""

from __future__ import annotations

import math
import operator
import re

from .errors import ScenarioSyntaxError

COMPARATORS = ("<=", ">=", "<", ">", "=")
# exact binary64 comparator semantics; ``=`` means exact equality
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "=": operator.eq}

# An instance id, or one part of a qualified parameter name
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{IDENTIFIER.pattern}(?:\.{IDENTIFIER.pattern})*)"
    r"|(?P<op><=|>=|[-+*()<>=])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ScenarioSyntaxError(f"bad token in expression: {rest[:10]!r}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


# levels of nesting one expression may have: every walk of a tree recurses,
# one Python frame per level, and the parser three per parenthesis
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _check_depth(root):
    """``root``, once its tree is known to be at most ``MAX_DEPTH`` deep; the
    walk keeps its own stack, so a deep tree cannot overflow it."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ScenarioSyntaxError(_TOO_DEEP)
        stack.extend((child, depth + 1) for child in node[1:] if isinstance(child, tuple))
    return root


class _Parser:
    """Recursive descent; a parenthesis or unary minus opens one level, and
    a factor more than ``MAX_DEPTH`` levels down is rejected."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ScenarioSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise ScenarioSyntaxError(f"expected {op!r}, found {tok[1]!r}")

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        tok = self.take()
        if tok in (("op", "-"), ("op", "(")):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ScenarioSyntaxError(_TOO_DEEP)
            if tok == ("op", "-"):
                node = ("neg", self.factor())
            else:
                node = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return node
        kind, text = tok
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ScenarioSyntaxError(f"number {text!r} is not finite")
            return ("num", float(text))
        if kind == "name":
            return ("var", text)
        raise ScenarioSyntaxError(f"unexpected token {text!r} in expression")


def _parse_tokens(tokens, text: str):
    parser = _Parser(tokens)
    node = parser.expr()
    if parser.peek() is not None:
        raise ScenarioSyntaxError(f"trailing input in expression: {text!r}")
    return _check_depth(node)


def parse_expression(text: str):
    return _parse_tokens(_tokenize(text), text)


def parse_comparison(text: str):
    """Split ``lhs <cmp> rhs`` and parse both sides. Returns (lhs, op, rhs)."""
    tokens = _tokenize(text)
    splits = [i for i, tok in enumerate(tokens) if tok[0] == "op" and tok[1] in COMPARATORS]
    if len(splits) != 1:
        raise ScenarioSyntaxError(f"expected exactly one comparator in {text!r}")
    i = splits[0]
    return _parse_tokens(tokens[:i], text), tokens[i][1], _parse_tokens(tokens[i + 1 :], text)


def expr_variables(node) -> set[str]:
    head = node[0]
    if head == "num":
        return set()
    if head == "var":
        return {node[1]}
    if head == "neg":
        return expr_variables(node[1])
    return expr_variables(node[1]) | expr_variables(node[2])


def rename_expr(node, rename):
    """``node`` with each variable ``name`` replaced by ``rename(name)``."""
    if node[0] == "var":
        return ("var", rename(node[1]))
    if node[0] == "num":
        return node
    return (node[0], *(rename_expr(child, rename) for child in node[1:]))


def eval_expr(node, env) -> float:
    head = node[0]
    if head == "num":
        return node[1]
    if head == "var":
        return env[node[1]]
    if head == "neg":
        return -eval_expr(node[1], env)
    a = eval_expr(node[1], env)
    b = eval_expr(node[2], env)
    if head == "add":
        return a + b
    if head == "sub":
        return a - b
    return a * b


def compile_expr(node, index):
    """A closure ``row -> value`` that evaluates ``node`` like ``eval_expr``,
    with the same float operations in the same order, reading each variable
    from ``row[index[name]]``."""
    head = node[0]
    if head == "num":
        value = node[1]
        return lambda row: value
    if head == "var":
        return operator.itemgetter(index[node[1]])
    if head == "neg":
        inner = compile_expr(node[1], index)
        return lambda row: -inner(row)
    a = compile_expr(node[1], index)
    b = compile_expr(node[2], index)
    if head == "add":
        return lambda row: a(row) + b(row)
    if head == "sub":
        return lambda row: a(row) - b(row)
    return lambda row: a(row) * b(row)


def compile_comparison(lhs, op: str, rhs, index):
    """A closure ``row -> bool``: ``comparison_holds`` over compiled sides."""
    left = compile_expr(lhs, index)
    right = compile_expr(rhs, index)
    compare = _COMPARE[op]
    return lambda row: compare(left(row), right(row))


def interval_expr(node, env) -> tuple[float, float]:
    """Evaluate over an environment of ``name -> (lo, hi)`` intervals."""
    head = node[0]
    if head == "num":
        return node[1], node[1]
    if head == "var":
        return env[node[1]]
    if head == "neg":
        lo, hi = interval_expr(node[1], env)
        return -hi, -lo
    alo, ahi = interval_expr(node[1], env)
    blo, bhi = interval_expr(node[2], env)
    if head == "add":
        return alo + blo, ahi + bhi
    if head == "sub":
        return alo - bhi, ahi - blo
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products)


def format_expr(node) -> str:
    """Deterministic textual form; fully parenthesizes nested sums."""
    head = node[0]
    if head == "num":
        return repr(node[1])
    if head == "var":
        return node[1]
    if head == "neg":
        return "-" + _atom(node[1])
    if head == "mul":
        return f"{_atom(node[1])}*{_atom(node[2])}"
    op = " + " if head == "add" else " - "
    return format_expr(node[1]) + op + _atom(node[2])


def _atom(node) -> str:
    if node[0] in ("add", "sub"):
        return "(" + format_expr(node) + ")"
    return format_expr(node)


def comparison_holds(lhs: float, op: str, rhs: float) -> bool:
    """Exact binary64 comparator semantics; ``=`` means exact equality."""
    return _COMPARE[op](lhs, rhs)


def comparison_possible(lhs: tuple[float, float], op: str, rhs: tuple[float, float]) -> bool:
    """Best-case interval check: can the comparison hold for any point values?"""
    llo, lhi = lhs
    rlo, rhi = rhs
    if op == "<":
        return llo < rhi
    if op == "<=":
        return llo <= rhi
    if op == ">":
        return lhi > rlo
    if op == ">=":
        return lhi >= rlo
    return llo <= rhi and rlo <= lhi
