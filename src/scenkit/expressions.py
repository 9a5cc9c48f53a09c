"""Minimal infix expression grammar for numeric constraints.

Expressions range over qualified parameter names (``t1.s0``), real literals,
``+ - * ( )``, and the comparators ``< <= > >= =``. Identifiers use
underscores, never hyphens, so ``-`` always tokenizes as an operator.

Expression ASTs are plain tuples:

    ("num", value) | ("var", name) | ("neg", a) |
    ("add", a, b) | ("sub", a, b) | ("mul", a, b)

A tree deeper than ``MAX_DEPTH`` levels is a ``ScenarioSyntaxError``.

A tree is evaluated (``eval_expr``, ``compile_expr``) or read as an affine
form over a box of ranges (``affine_expr``); ``comparison_possible`` judges
one comparison over a box by that form.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter

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


def affine_expr(node, box) -> tuple[dict[str, float], float, float]:
    """``node`` as ``(terms, lo, hi)``: the sum of ``coefficient * name`` over
    ``terms`` plus a constant in ``[lo, hi]``, over ``box`` (``name -> (lo, hi)``).
    A product of two varying sides is bounded over ``box`` into the constant, so
    the form is exact for linear trees (affine arithmetic; de Figueiredo &
    Stolfi, Numer. Algorithms 37, 2004)."""
    head = node[0]
    if head == "num":
        return {}, node[1], node[1]
    if head == "var":
        return {node[1]: 1.0}, 0.0, 0.0
    if head == "neg":
        return affine_expr(("mul", ("num", -1.0), node[1]), box)
    if head == "sub":
        return affine_expr(("add", node[1], ("neg", node[2])), box)
    a, b = affine_expr(node[1], box), affine_expr(node[2], box)
    if head == "add":
        terms = Counter(a[0])
        terms.update(b[0])  # like terms: their coefficients add
        return terms, a[1] + b[1], a[2] + b[2]
    for (terms, lo, hi), (factor_terms, c, c_hi) in ((a, b), (b, a)):
        if not factor_terms and c == c_hi:  # a constant factor scales the terms
            lo, hi = (hi * c, lo * c) if c < 0 else (lo * c, hi * c)
            return {name: coefficient * c for name, coefficient in terms.items()}, lo, hi
    products = [x * y for x in affine_range(a, box) for y in affine_range(b, box)]
    if any(math.isnan(p) for p in products):
        return {}, math.nan, math.nan
    return {}, min(products), max(products)


def affine_range(form, box) -> tuple[float, float]:
    """The least and greatest value of ``affine_expr``'s ``form`` over ``box``:
    each term at the endpoint its coefficient's sign picks."""
    terms, lo, hi = form
    for name, coefficient in terms.items():
        low, high = box[name][::-1] if coefficient < 0 else box[name]
        lo, hi = lo + coefficient * low, hi + coefficient * high
    return lo, hi


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


def comparison_possible(lhs, op: str, rhs, box) -> bool:
    """Can ``lhs op rhs`` hold at some point of ``box``? Not if the range of
    ``lhs - rhs`` rules it out, is not NaN (an overflow gives no verdict), and
    the tree is false at the corner the terms' signs pick (terms round apart)."""
    form = affine_expr(("sub", lhs, rhs), box)
    lo, hi = affine_range(form, box)
    lowest = op in ("<", "<=") or (op == "=" and lo > 0.0)  # toward the least value
    if math.isnan(lo) or math.isnan(hi) or (
            lo <= 0.0 <= hi if op == "=" else comparison_holds(lo if lowest else hi, op, 0.0)):
        return True
    # each name at the endpoint (a bool indexes ``bounds``) that moves lhs - rhs the way tested
    corner = {name: bounds[(form[0].get(name, 0.0) < 0) == lowest] for name, bounds in box.items()}
    return comparison_holds(eval_expr(lhs, corner), op, eval_expr(rhs, corner))
