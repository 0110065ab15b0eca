import math

import numpy as np
import pytest

from poissat import expr
from poissat.expr import EvalError, ExprError, Num, derive, evaluate, parse


def test_parse_and_eval_frozen_values():
    # frozen against math-module evaluation, independent of the tree walker
    assert evaluate(parse("sin(2*t)", 1), [0.3]) == pytest.approx(0.5646424733950354, abs=1e-15)
    assert evaluate(parse("exp(x)*cos(y)", 2), [0.5, 1.2]) == pytest.approx(
        0.5974269374088264, abs=1e-15
    )
    assert evaluate(parse("x^2 - 1/(1+x^2)", 1), [0.5]) == pytest.approx(-0.55, abs=1e-15)


def test_aliases_and_canonical_names():
    e = parse("x*y + sin(x1)", 2)
    assert evaluate(e, [0.2, 3.0]) == pytest.approx(0.6 + math.sin(0.2))
    assert evaluate(parse("z", 3), [1.0, 2.0, 5.0]) == 5.0
    assert evaluate(parse("th^2", 4), [0, 0, 0, 3.0]) == 9.0
    assert evaluate(parse("u2 - u1", 2), [1.0, 4.0]) == 3.0


def test_explicit_name_table():
    e = parse("sin(2*t) + th", 2, names={"t": 0, "th": 1})
    assert evaluate(e, [0.3, 1.0]) == pytest.approx(1.5646424733950354)
    with pytest.raises(ValueError):
        parse("t", 1, names={"t": 3})


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as err:
        parse("(x", 1)
    assert err.value.position == 2
    with pytest.raises(ExprError) as err:
        parse("x1 + x3", 2)
    assert "x3" in str(err.value)
    assert err.value.position == 5
    with pytest.raises(ExprError):
        parse("x ++ y", 2)
    with pytest.raises(ExprError):
        parse("sin(x,y)", 2)
    with pytest.raises(ExprError):
        parse("x^2.5", 1)
    with pytest.raises(ExprError):
        parse("log(x)", 1)


def test_eval_error_mentions_operation_and_point():
    with pytest.raises(EvalError) as err:
        evaluate(parse("1/x", 1), [0.0])
    assert "division" in str(err.value)
    assert err.value.point == (0.0,)
    with pytest.raises(EvalError) as err:
        evaluate(parse("exp(x^2)", 1), np.array([[1.0], [40.0]]))
    assert err.value.point == (40.0,)


@pytest.mark.parametrize("text,label", [
    ("x - 1e400", "subtraction"),
    ("x*1e400", "multiplication"),
    ("(x - x)^-1", "integer power"),
    ("sin(1e400)", "sin"),
    ("cos(1e400) + x", "cos"),
    ("1e400", "evaluation"),  # no checked node fails: the literal itself is inf
    # the first failing node in evaluation order, children first, left to right
    ("exp(1000*x) + 1/(x - x)", "exp"),
    ("1/(x - x) + exp(1000*x)", "division"),
    ("-(x/(x - x))", "division"),  # negation is not checked
    # 0*e, 0/e and e^0 fold only when e reads a variable or is a finite
    # literal, so non-finite literal arithmetic reaches evaluate
    ("0/0", "division"),
    ("0*(1/0)", "division"),
    ("(1/0)^0", "division"),
    # two literals fold only to a finite literal; overflow and NaN keep the node
    ("0*1e400", "multiplication"),
    ("1e200*1e200", "multiplication"),
    ("1e308+1e308", "addition"),
    ("-1e308-1e308", "subtraction"),
    ("1e300/1e-300", "division"),
    ("x + 0*1e400", "multiplication"),
])
@pytest.mark.build_independent
def test_eval_error_label_table(text, label):
    with pytest.raises(EvalError) as err:
        evaluate(parse(text, 1), [1.0])
    assert str(err.value) == f"non-finite result from {label} at point (1.0,)"


def test_eval_batch_matches_scalar():
    e = parse("x^2*sin(y) - y/(1+x^2)", 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(64, 2))
    batch = evaluate(e, pts)
    for p, v in zip(pts, batch):
        assert evaluate(e, p) == pytest.approx(v, abs=0.0)


def test_derive_exact_examples():
    d = derive(parse("sin(2*t)", 1), 0)
    assert evaluate(d, [0.3]) == pytest.approx(1.6506712298193567, abs=1e-15)
    # derivative of a constant is the zero expression
    assert derive(parse("3.5", 2), 1) == Num(0.0)
    assert derive(parse("x*y", 2), 1) == expr.Var(0)


def test_derivative_matches_central_differences():
    # spec-level invariant: 1000 seeded points, h = 1e-5, mixed expressions
    cases = [
        ("x^2*sin(y) + exp(x)/(2+cos(y))", 2),
        ("sin(2*x) - y^3*x + 1/(1+x^2+y^2)", 2),
        ("exp(x)*cos(x) - x^4", 1),
    ]
    rng = np.random.default_rng(42)
    h = 1e-5
    for text, arity in cases:
        e = parse(text, arity)
        pts = rng.uniform(-1.5, 1.5, size=(1000 // len(cases) + 1, arity))
        for i in range(arity):
            d = derive(e, i)
            exact = evaluate(d, pts)
            hi = pts.copy()
            lo = pts.copy()
            hi[:, i] += h
            lo[:, i] -= h
            approx = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            scale = 1.0 + np.abs(exact)
            assert np.all(np.abs(exact - approx) <= 1e-6 * scale)


def test_print_reparse_round_trip():
    texts = [
        "x^2 - 1/(1+x^2)",
        "-x + sin(2*x)*cos(x)^3",
        "(x - y)/(x*y - 2)",
        "exp(x)^2/(1 - x^4) - 0.125*y",
        "x/(y/(1+x))",
    ]
    rng = np.random.default_rng(7)
    for text in texts:
        e = parse(text, 2)
        for _ in range(3):
            pts = rng.uniform(-0.9, 0.9, size=(50, 2))
            r = parse(str(e), 2)
            a = evaluate(e, pts)
            b = evaluate(r, pts)
            assert np.all(np.abs(a - b) <= 1e-15 * (1 + np.abs(a)))
            e = derive(e, 0)


def test_print_non_finite_literals():
    # a non-finite literal prints as its repr; finite literals keep their form
    assert str(parse("x - 1e400", 1)) == "x1 - inf"
    assert str(parse("-1e400*x", 1)) == "-inf*x1"
    assert str(Num(math.nan)) == "nan"
    assert str(expr.Mul(expr.Var(0), Num(-math.inf))) == "x1*(-inf)"
    assert str(expr.Sub(Num(math.nan), expr.Var(0))) == "nan - x1"
    for text, printed in [("x - 3", "x1 - 3"), ("x*2.5", "x1*2.5"), ("x - 1e16", "x1 - 1e+16"),
                          ("x*(0-2)", "x1*(-2)"), ("x - 0.1", "x1 - 0.1")]:
        assert str(parse(text, 1)) == printed


def test_print_reparse_round_trip_non_finite_literals():
    # inf and nan read back as the literals str prints, so trees with
    # +-inf and NaN literals round-trip: the same tree, the same printed
    # form, and the same EvalError when evaluated
    x = expr.Var(0)
    trees = [parse("x - 1e400", 1), parse("-1e400*x", 1), parse("sin(x*1e400)", 1),
             expr.Mul(x, Num(-math.inf)), expr.Sub(Num(math.nan), x),
             expr.Add(x, expr.Pow(expr.Sub(Num(math.inf), x), 2)), expr.Div(Num(-math.nan), x)]
    pts = np.array([[0.5], [-2.0]])
    for tree in trees:
        back = parse(str(tree), 1)
        assert repr(back) == repr(tree) and str(back) == str(tree)
        errors = []
        for e in (tree, back):
            with pytest.raises(EvalError) as err:
                evaluate(e, pts)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    # a variable of that name still wins over the literal
    assert parse("inf - nan", 2, names={"inf": 0, "nan": 1}) == expr.Sub(expr.Var(0), expr.Var(1))


def test_round_trip_derivative_trees_property():
    # random points, derivative trees of increasing depth still round-trip
    e = parse("sin(x*y) + exp(x - y^2)", 2)
    for i in (0, 1, 0):
        e = derive(e, i)
    r = parse(str(e), 2)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(200, 2))
    assert np.array_equal(evaluate(e, pts), evaluate(r, pts))


def test_arity_zero_constant():
    e = parse("2^3 - 1.5", 0)
    assert evaluate(e, np.zeros((1, 0))) == pytest.approx([6.5])


@pytest.mark.build_independent
def test_arity_zero_has_no_u():
    # u names slot 0 at arity 1 or 2 only: at arity 0 there is no slot, and
    # a tree reading one would fail only when its compiled kernel runs
    with pytest.raises(ExprError, match="unknown variable 'u' for arity 0"):
        parse("u", 0)
    assert "u" not in expr.default_names(0)
    assert expr.default_names(1)["u"] == expr.default_names(2)["u"] == 0


def test_unary_minus_and_powers():
    assert evaluate(parse("-y", 3), [0, 2.0, 0]) == -2.0
    assert evaluate(parse("x^-2", 1), [2.0]) == 0.25
    assert evaluate(parse("-x^2", 1), [3.0]) == -9.0  # minus binds last
