import math

import pytest
from hypothesis import given, strategies as st

from scenkit.errors import ScenarioSyntaxError
from scenkit.expressions import (
    MAX_DEPTH,
    comparison_holds,
    eval_expr,
    expr_variables,
    format_expr,
    interval_expr,
    parse_comparison,
    parse_expression,
)

NAMES = ("t1.s0", "c1.s0", "a.x", "speed_limit")


def leaf():
    return st.one_of(
        st.sampled_from(NAMES).map(lambda n: ("var", n)),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: ("num", v)),
    )


def node(children):
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
    )


expr_asts = st.recursive(leaf(), node, max_leaves=8)
envs = st.fixed_dictionaries({n: st.floats(min_value=-10, max_value=10, allow_nan=False)
                              for n in NAMES})


def test_parse_simple_forms():
    assert parse_expression("t1.s0") == ("var", "t1.s0")
    assert parse_expression("2 * a.x + 1") == ("add", ("mul", ("num", 2.0), ("var", "a.x")),
                                               ("num", 1.0))
    assert parse_expression("-(a.x - 1)") == ("neg", ("sub", ("var", "a.x"), ("num", 1.0)))


def test_parse_comparison_splits_once():
    lhs, op, rhs = parse_comparison("t1.s0 > c1.s0")
    assert (lhs, op, rhs) == (("var", "t1.s0"), ">", ("var", "c1.s0"))
    for bad in ("a.x > b.y > c.z", "a.x + 1", "a.x >"):
        with pytest.raises(ScenarioSyntaxError):
            parse_comparison(bad)


def test_rejects_garbage():
    for bad in ("a.x @ 2", "()", "1 +", "a..b"):
        with pytest.raises(ScenarioSyntaxError):
            parse_expression(bad)


@given(expr_asts, envs)
def test_format_parse_preserves_value(ast, env):
    again = parse_expression(format_expr(ast))
    assert expr_variables(again) == expr_variables(ast)
    assert math.isclose(eval_expr(again, env), eval_expr(ast, env),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(expr_asts, envs)
def test_interval_contains_point_values(ast, env):
    intervals = {name: (value - 1.0, value + 1.0) for name, value in env.items()}
    lo, hi = interval_expr(ast, intervals)
    value = eval_expr(ast, env)
    assert lo - 1e-9 <= value <= hi + 1e-9


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_comparator_trichotomy(a, b):
    assert comparison_holds(a, "<", b) or comparison_holds(a, ">=", b)
    assert comparison_holds(a, "<=", b) == (comparison_holds(a, "<", b)
                                            or comparison_holds(a, "=", b))


@pytest.mark.parametrize("make", [
    lambda n: "-" * (n - 1) + "a.x",
    lambda n: "(" * (n - 1) + "a.x" + ")" * (n - 1),
    lambda n: " + ".join(["a.x"] * n),
    lambda n: "2" + " * a.x" * (n - 1),
], ids=["unary-minus", "parentheses", "sum", "product"])
def test_nesting_depth_limit(make):
    deepest = parse_expression(make(MAX_DEPTH))
    assert eval_expr(deepest, {"a.x": 1.0}) in (-1.0, 1.0, MAX_DEPTH, 2.0)
    for text in (make(MAX_DEPTH + 1), make(3000)):
        with pytest.raises(ScenarioSyntaxError, match="nested deeper than"):
            parse_expression(text)
        with pytest.raises(ScenarioSyntaxError, match="nested deeper than"):
            parse_comparison(f"{text} < 1")
