import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from scenkit.errors import ScenarioSyntaxError
from scenkit.expressions import (
    COMPARATORS,
    MAX_DEPTH,
    affine_expr,
    affine_range,
    comparison_holds,
    comparison_possible,
    eval_expr,
    expr_variables,
    format_expr,
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
    lo, hi = affine_range(affine_expr(ast, intervals), intervals)
    value = eval_expr(ast, env)
    assert lo - 1e-9 <= value <= hi + 1e-9


# ``a > a + (1.9*b + b) + -2.9*b`` holds at a = 0.3, b = 1.5, where the
# collected coefficient of b is exactly 0 and the tree's own rounding is not
ROUNDING = parse_comparison("a.x > a.x + (1.9*t1.s0 + t1.s0) + -2.9*t1.s0")
ROUNDING_ENV = {"t1.s0": 1.5, "c1.s0": 0.0, "a.x": 0.3, "speed_limit": 0.0}


def test_rounding_apart_from_the_collected_terms_is_possible():
    lhs, op, rhs = ROUNDING
    box = {name: (value, value) for name, value in ROUNDING_ENV.items()}
    assert affine_range(affine_expr(("sub", lhs, rhs), box), box) == (0.0, 0.0)
    assert comparison_holds(eval_expr(lhs, ROUNDING_ENV), op, eval_expr(rhs, ROUNDING_ENV))
    assert comparison_possible(lhs, op, rhs, box)


@given(expr_asts, st.sampled_from(COMPARATORS), expr_asts, envs)
@example(*ROUNDING, ROUNDING_ENV)
def test_a_comparison_that_holds_at_a_point_is_possible_on_its_box(lhs, op, rhs, env):
    box = {name: (value, value) for name, value in env.items()}
    if comparison_holds(eval_expr(lhs, env), op, eval_expr(rhs, env)):
        assert comparison_possible(lhs, op, rhs, box)


def linear_node(children):
    constant = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(
        lambda v: ("num", v))
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from(["add", "sub"]), children, children),
        st.tuples(st.just("mul"), constant, children),
        st.tuples(st.just("mul"), children, constant),
    )


# trees with no product of two sides that both read a variable
linear_asts = st.recursive(leaf(), linear_node, max_leaves=8)
boxes = st.fixed_dictionaries({
    name: st.tuples(st.floats(-10, 10), st.floats(0, 10)).map(lambda b: (b[0], b[0] + b[1]))
    for name in NAMES})


@settings(max_examples=60, deadline=None)
@given(linear_asts, linear_asts, boxes)
def test_affine_range_of_a_linear_difference_is_the_lp_optimum(lhs, rhs, box):
    """``linprog`` over the box, with each coefficient read off ``eval_expr``
    at a unit point, agrees with the collected terms' range. HiGHS takes a
    cost below its dual tolerance for 0, which moves its optimum by at most
    that tolerance per unit of box width, so the scale counts the widths."""
    difference = ("sub", lhs, rhs)
    origin = dict.fromkeys(NAMES, 0.0)
    constant = eval_expr(difference, origin)
    cost = [eval_expr(difference, {**origin, name: 1.0}) - constant for name in NAMES]
    bounds = [box[name] for name in NAMES]
    options = {"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10}
    least = linprog(cost, bounds=bounds, options=options).fun + constant
    greatest = constant - linprog([-c for c in cost], bounds=bounds, options=options).fun
    lo, hi = affine_range(affine_expr(difference, box), box)
    scale = abs(constant) + sum(abs(c) * max(map(abs, b)) + b[1] - b[0]
                                for c, b in zip(cost, bounds)) + 1.0
    assert math.isclose(lo, least, rel_tol=1e-9, abs_tol=1e-9 * scale)
    assert math.isclose(hi, greatest, rel_tol=1e-9, abs_tol=1e-9 * scale)


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
