import numpy as np
import pytest

from poissat import field
from poissat.expr import EvalError
from poissat.field import BivectorField, JacobiError, jacobi_residual


def fd_schouten_residual(bv, pt, h=1e-6):
    """Independent oracle: Schouten residual via central differences."""
    n = bv.dim
    pt = np.asarray(pt, dtype=float)

    def dmat(k):
        hi, lo = pt.copy(), pt.copy()
        hi[k] += h
        lo[k] -= h
        return (bv.matrix_at(hi) - bv.matrix_at(lo)) / (2 * h)

    p = bv.matrix_at(pt)
    d = [dmat(k) for k in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = sum(
                    p[l, k] * d[l][i, j] + p[l, i] * d[l][j, k] + p[l, j] * d[l][k, i]
                    for l in range(n)
                )
                worst = max(worst, abs(s))
    return worst


def test_all_standard_structures_certify():
    for make in (
        field.so3_star,
        field.log_symplectic_plane,
        field.flat_rank2_r3,
        field.symplectic_r4,
        field.flat_rank2_r3s1,
        field.zero_structure,
    ):
        bv = make()
        pts = np.random.default_rng(0).uniform(-1, 1, size=(200, bv.dim))
        assert np.max(jacobi_residual(bv, pts)) <= 1e-10


@pytest.mark.parametrize("make,constant", [
    (field.so3_star, False),
    (field.log_symplectic_plane, False),
    (field.flat_rank2_r3, True),
    (field.symplectic_r4, True),
    (field.flat_rank2_r3s1, True),
    (field.zero_structure, True),
])
@pytest.mark.build_independent
def test_constant_structures_certify_without_partials(monkeypatch, make, constant):
    bv = make()
    assert bv.constant is constant
    pts = np.random.default_rng(0).uniform(-1, 1, size=(200, bv.dim))
    calls = []
    real = BivectorField.matrix_jac

    def counting(self, pts):
        calls.append(len(pts))
        return real(self, pts)

    monkeypatch.setattr(BivectorField, "matrix_jac", counting)
    res = jacobi_residual(bv, pts)
    if constant:
        assert calls == []
        assert np.array_equal(res, np.zeros(200)) and not np.signbit(res).any()
    else:
        assert calls == [200]


def test_constant_means_no_entry_reads_a_coordinate():
    # zero partials, yet the value rounds differently at x = 0.9
    bv = BivectorField(2, {(0, 1): "(x + 1) - x"})
    assert not bv.constant
    assert bv.matrix([[0.5, 0.0], [0.9, 0.0]])[:, 0, 1].tolist() == [1.0, 1.0 - 2.0**-53]
    # a non-finite constant is still evaluated, and named at the first point
    inf = BivectorField(2, {(0, 1): "1e400"}, certify=False)
    assert inf.constant
    with pytest.raises(EvalError) as err:
        jacobi_residual(inf, [[0.5, -0.25], [0.0, 0.0]])
    assert err.value.point == (0.5, -0.25)


def test_so3_matrix_frozen():
    bv = field.so3_star()
    m = bv.matrix_at([1.0, 0.0, 0.0])
    assert np.array_equal(m, np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float))
    m2 = bv.matrix_at([0.5, -1.0, 2.0])
    assert m2[0, 1] == 2.0 and m2[1, 2] == 0.5 and m2[2, 0] == -1.0
    assert np.array_equal(m2, -m2.T)


def test_lower_triangle_entries_negate():
    # "3 1 y" style input: PI^31 = y means PI^13 = -y
    bv = BivectorField(3, {(2, 0): "y"}, certify=False)
    m = bv.matrix_at([0.0, 3.0, 0.0])
    assert m[2, 0] == 3.0 and m[0, 2] == -3.0


def test_overflowing_jacobi_residual_raises_instead_of_certifying():
    # at scale 1 these entries are not Poisson; at 1e200 every Schouten
    # product overflows, and a NaN residual must not pass the certificate
    entries = {(0, 1): "z", (1, 2): "x", (2, 0): "x"}
    with pytest.raises(JacobiError):
        BivectorField(3, entries)
    with pytest.raises(EvalError) as err:
        BivectorField(3, {ij: f"1e200*{e}" for ij, e in entries.items()})
    first = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1000, 3))[0]
    assert str(err.value) == f"non-finite Jacobi residual at point {tuple(first.tolist())}"
    assert err.value.point == tuple(first.tolist())


def test_corrupted_so3_residual_frozen():
    # PI^12 = z + 0.1 x^2 breaks Jacobi with residual |0.2 x y|
    with pytest.raises(JacobiError) as err:
        BivectorField(
            3,
            {(0, 1): "z + 0.1*x^2", (1, 2): "x", (2, 0): "y"},
            domain=[[-2, 2]] * 3,
        )
    assert err.value.residual > 0.1
    bad = BivectorField(
        3, {(0, 1): "z + 0.1*x^2", (1, 2): "x", (2, 0): "y"}, certify=False
    )
    pt = np.array([0.7, -0.5, 0.3])
    got = jacobi_residual(bad, pt[None, :])[0]
    assert got == pytest.approx(abs(0.2 * 0.7 * -0.5), abs=1e-12)
    assert got == pytest.approx(fd_schouten_residual(bad, pt), abs=1e-8)


def test_jacobi_formula_against_fd_oracle():
    # non-Poisson structure with all entries varying
    bv = BivectorField(
        3,
        {(0, 1): "x^2 - y", (1, 2): "sin(x*z)", (0, 2): "exp(y)*z"},
        certify=False,
    )
    rng = np.random.default_rng(1)
    for pt in rng.uniform(-1, 1, size=(10, 3)):
        fast = jacobi_residual(bv, pt[None, :])[0]
        slow = fd_schouten_residual(bv, pt)
        assert fast == pytest.approx(slow, rel=1e-6, abs=1e-8)


def test_sharp_convention_and_batch():
    bv = field.so3_star()
    # sharp(dx) at (0,0,1) is (0,-1,0) under sharp(a) = PI @ a
    v = bv.matrix_at(np.array([0.0, 0.0, 1.0])) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, -1.0, 0.0])
    xs = np.random.default_rng(2).uniform(-1, 1, size=(40, 3))
    als = np.random.default_rng(3).uniform(-1, 1, size=(40, 3))
    batch = np.einsum("mij,mj->mi", bv.matrix(xs), als)
    for x, a, row in zip(xs, als, batch):
        assert np.allclose(bv.matrix_at(x) @ a, row)


def test_domain_mask():
    bv = field.so3_star()
    mask = bv.inside(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    assert mask.tolist() == [True, False]
