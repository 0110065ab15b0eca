"""Compiled kernels against per-tree evaluate references, bit for bit."""

import numpy as np
import pytest

from poissat import cli
from poissat.expr import (
    Add,
    Call,
    Div,
    EvalError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_kernel,
    derive,
    evaluate,
    parse,
)
from poissat.field import BivectorField
from poissat.fixtures import FIXTURES
from poissat.submanifold import Chart

POISSON_FIXTURES = [name for name, text in FIXTURES.items() if "[poisson]" in text]


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def random_tree(rng, arity, depth, pool):
    """Raw constructors only, so no folding hides ±0.0 leaves or sharing."""
    if pool and rng.uniform() < 0.25:
        return pool[rng.integers(len(pool))]  # the same object: a shared subtree
    if depth == 0 or rng.uniform() < 0.2:
        kind = rng.integers(4)
        if kind == 0:
            return Num(float(rng.choice([0.0, -0.0, 1.0, -2.5, 0.3])))
        return Var(int(rng.integers(arity)))
    kind = rng.integers(8)
    sub = lambda: random_tree(rng, arity, depth - 1, pool)  # noqa: E731
    if kind < 4:
        node = (Add, Sub, Mul, Div)[kind](sub(), sub())
    elif kind == 4:
        node = Pow(sub(), int(rng.integers(-2, 4)))
    elif kind == 5:
        node = Neg(sub())
    else:
        node = Call(str(rng.choice(["sin", "cos", "exp"])), sub())
    pool.append(node)
    return node


def entrywise(trees, pts):
    """Reference: one evaluate call per tree, in order; raises the first EvalError."""
    return np.stack([evaluate(t, pts) for t in trees], axis=-1)


def assert_same_result(kernel, trees, pts):
    """The kernel returns the reference bitwise, or raises its EvalError."""
    try:
        ref = entrywise(trees, pts)
    except EvalError as exc:
        with pytest.raises(EvalError) as err:
            kernel(pts)
        assert str(err.value) == str(exc)
        assert err.value.point == exc.point
    else:
        assert_bitwise(kernel(pts), ref)


@pytest.mark.parametrize("seed", range(40))
def test_random_trees_match_evaluate_bitwise(seed):
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(1, 4))
    pool = []
    trees = [random_tree(rng, arity, 4, pool) for _ in range(6)]
    # structurally equal, separately built copies are merged by the kernel
    trees.append(Mul(Call("sin", Var(0)), Num(2.0)))
    trees.append(Mul(Call("sin", Var(0)), Num(2.0)))
    kernel = compile_kernel([((i,), t) for i, t in enumerate(trees)], (len(trees),))
    singles = [compile_kernel([((0,), t)], (1,)) for t in trees]
    for m in (1, 5):
        pts = rng.uniform(-2, 2, size=(m, arity))
        pts[0, 0] = rng.choice([0.0, -0.0, 1.0])
        for group, k in [(trees, kernel)] + [([t], s) for t, s in zip(trees, singles)]:
            assert_same_result(k, group, pts)


def test_kernel_keeps_signed_zeros_apart_and_shares_subtrees():
    x = Var(0)
    trees = [Mul(x, Num(0.0)), Mul(x, Num(-0.0)), Call("sin", x), Add(Call("sin", x), x)]
    kernel = compile_kernel([((i,), t) for i, t in enumerate(trees)], (4,))
    out = kernel(np.array([[1.5]]))
    assert_bitwise(out, entrywise(trees, np.array([[1.5]])))
    assert np.signbit(out[0, 1]) and not np.signbit(out[0, 0])
    assert kernel.source.count("sin(") == 1


def fixture_objects(name):
    scene = cli.parse_scene(FIXTURES[name])
    bv = cli.build_bivector(scene)
    return bv, cli.build_chart(scene, bv.dim)


def matrix_ref(bv, pts):
    n = bv.dim
    out = np.zeros((len(pts), n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if bv.entry(i, j) != Num(0.0):
                out[:, i, j] = evaluate(bv.entry(i, j), pts)
                out[:, j, i] = -out[:, i, j]
    return out


def matrix_jac_ref(bv, pts):
    n = bv.dim
    out = np.zeros((len(pts), n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                d = derive(bv.entry(i, j), k)
                if d != Num(0.0):
                    out[:, i, j, k] = evaluate(d, pts)
                    out[:, j, i, k] = -out[:, i, j, k]
    return out


def points_ref(chart, us):
    return np.stack([evaluate(c, us) for c in chart.components], axis=-1)


def jacobian_ref(chart, us):
    out = np.zeros((len(us), chart.ambient_dim, chart.param_dim))
    for i, row in enumerate(chart._jac):
        for a, d in enumerate(row):
            if d != Num(0.0):
                out[:, i, a] = evaluate(d, us)
    return out


@pytest.mark.parametrize("name", POISSON_FIXTURES)
def test_fixture_kernels_match_entrywise(name):
    bv, chart = fixture_objects(name)
    rng = np.random.default_rng(3)
    xs = np.vstack([rng.uniform(bv.domain[:, 0], bv.domain[:, 1], size=(9, bv.dim)),
                    chart.points(chart.grid(3))])
    us = np.vstack([chart.grid(3), chart.sample(7, seed=5)])
    for pts in (xs, xs[:1]):
        assert_bitwise(bv.matrix(pts), matrix_ref(bv, pts))
        assert_bitwise(bv.matrix_jac(pts), matrix_jac_ref(bv, pts))
    for pts in (us, us[:1]):
        assert_bitwise(chart.points(pts), points_ref(chart, pts))
        assert_bitwise(chart.jacobian(pts), jacobian_ref(chart, pts))


def test_eval_error_unchanged_through_kernels():
    point = np.array([[0.0, 1.0, 2.0]])
    # entry order decides: (1, 2) comes before (2, 3), so the power is named
    bv = BivectorField(3, {(0, 1): "x^-1", (1, 2): "1/x"}, certify=False)
    with pytest.raises(EvalError) as err:
        bv.matrix(point)
    with pytest.raises(EvalError) as ref:
        evaluate(parse("x^-1", 3), point)
    assert str(err.value) == str(ref.value)
    assert "integer power" in str(err.value)
    assert err.value.point == (0.0, 1.0, 2.0)
    with pytest.raises(EvalError) as err:
        bv.matrix_jac(point)
    assert "integer power" in str(err.value)

    chart = Chart(1, 2, ["1/u", "u"], domain=[(-1, 1)], check=False)
    with pytest.raises(EvalError) as err:
        chart.points([[0.0]])
    assert str(err.value) == "non-finite result from division at point (0.0,)"
    assert err.value.point == (0.0,)
    with pytest.raises(EvalError):
        chart.jacobian([[0.0]])


def test_constant_chart_component_raises_eval_error():
    # a constant component goes through the kernel like any other, so an
    # infinite literal is reported, not passed through as inf
    chart = Chart(1, 2, ["u", "1e400"], domain=[(-1, 1)])
    with pytest.raises(EvalError) as err:
        chart.points([[0.5]])
    assert str(err.value) == "non-finite result from evaluation at point (0.5,)"
    assert err.value.point == (0.5,)


# Raw constructors, so nothing folds: -0.0 from a negated sine, a power and
# a quotient that only the kernel computes, and an unlisted slot left 0.0.
CONSTANT_SLOTS = [
    ((0, 1), Neg(Call("sin", Num(0.0)))),
    ((1, 0), Div(Num(1.0), Num(3.0))),
    ((1, 2), Pow(Num(-2.5), 3)),
    ((2, 1), Add(Call("exp", Num(0.3)), Num(-1.0))),
]


@pytest.mark.build_independent
def test_constant_kernel_matches_its_uncached_result_bitwise():
    kernel = compile_kernel(CONSTANT_SLOTS, (3, 3))
    assert kernel.constant and not compile_kernel([((0,), Var(0))], (1,)).constant
    rng = np.random.default_rng(4)
    for warm in (False, True):
        if warm:
            kernel(rng.uniform(-1, 1, (3, 2)))
        for m in (0, 1, 7):
            pts = rng.uniform(-1, 1, (m, 2))
            uncached = compile_kernel(CONSTANT_SLOTS, (3, 3))(pts)
            assert_bitwise(kernel(pts), uncached)
            ref = np.zeros((m, 3, 3))
            for (i, j), t in CONSTANT_SLOTS:
                ref[:, i, j] = entrywise([t], pts)[:, 0]
            assert_bitwise(uncached, ref)
    assert np.signbit(kernel(pts)[:, 0, 1]).all()


@pytest.mark.build_independent
def test_constant_kernel_returns_a_fresh_writable_array_per_call():
    kernel = compile_kernel(CONSTANT_SLOTS, (3, 3))
    pts = np.zeros((4, 2))
    first = kernel(pts)
    second = kernel(pts)
    expected = second.copy()
    for out in (first, second):
        assert out.flags.writeable and out.flags.c_contiguous and out.flags.owndata
    second[:] = 7.0
    first[0, 1, 0] = -1.0
    assert_bitwise(kernel(pts), expected)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("tree,operation", [
    (Div(Num(1.0), Num(0.0)), "division"),  # Python 1.0 / 0.0 raises in the kernel
    (Num(float("inf")), "evaluation"),  # the kernel fills inf without raising
    (Call("exp", Num(1000.0)), "exp"),
])
@pytest.mark.build_independent
def test_constant_kernel_failure_is_never_cached(tree, operation):
    kernel = compile_kernel([((0,), Num(2.0)), ((1,), tree)], (2,))
    assert kernel.constant
    assert kernel(np.zeros((0, 1))).shape == (0, 2)  # no row, nothing to name
    for point in (0.25, -1.5, 3.0):
        with pytest.raises(EvalError) as err:
            kernel(np.array([[point], [9.0]]))
        assert str(err.value) == f"non-finite result from {operation} at point ({point},)"
        assert err.value.point == (point,)
