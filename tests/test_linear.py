import numpy as np
import pytest

from poissat import linear
from poissat.linear import (
    DiracSpace,
    NotPoisson,
    RankDeficient,
    SkewForm,
    annihilator,
    dirac_gauge,
    dirac_graph,
    dirac_pullback,
    dirac_to_bivector,
    lagrangian_complement,
    rank_svd,
    subspace_equal,
    subspace_intersect,
)


def so3_matrix(x, y, z):
    return np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])


def random_skew(rng, n):
    m = rng.standard_normal((n, n))
    return m - m.T


def random_dirac(rng, n):
    # mix of bivector graphs, two-form graphs and gauged pullbacks
    kind = rng.integers(3)
    if kind == 0:
        return dirac_graph(random_skew(rng, n), "bivector")
    if kind == 1:
        return dirac_graph(SkewForm(random_skew(rng, n)), "two_form")
    big = dirac_graph(random_skew(rng, n + 1), "bivector")
    a = rng.standard_normal((n + 1, n))
    return dirac_pullback(dirac_gauge(big, SkewForm(random_skew(rng, n + 1))), a)


def test_rank_svd_so3_frozen():
    # determinant of the so(3)* matrix vanishes identically, so rank is 2
    # away from the origin and 0 at it
    rank, col, ns = rank_svd(so3_matrix(1.0, 0.0, 0.0))
    assert rank == 2
    assert ns.shape == (3, 1)
    assert np.allclose(np.abs(ns[:, 0]), [1.0, 0.0, 0.0])
    assert rank_svd(so3_matrix(0.0, 0.0, 0.0))[0] == 0
    assert rank_svd(so3_matrix(0.3, -0.2, 0.9))[0] == 2


def test_rank_svd_near_rank_boundary():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert rank_svd(m)[0] == 2
    assert rank_svd(m, tol_rel=1e-15)[0] == 3
    assert rank_svd(m, tol_rel=0.1)[0] == 1


def test_rank_parity_of_skew_matrices():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            assert rank_svd(random_skew(rng, n))[0] % 2 == 0


def test_annihilator_involution_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        k = int(rng.integers(0, d + 1))
        basis = rng.standard_normal((d, k))
        ann = annihilator(basis, dim=d)
        assert ann.shape[1] == d - rank_svd(basis)[0] if k else d
        back = annihilator(ann, dim=d)
        assert subspace_equal(back, basis if k else np.zeros((d, 0)))


def test_subspace_intersect():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    cap = subspace_intersect(a, b)
    assert cap.shape[1] == 1
    assert np.allclose(np.abs(cap[:, 0]), [1.0, 0.0, 0.0])


def test_skewform_exact_antisymmetry():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5))
    f = SkewForm(m)
    assert np.array_equal(f.matrix, -f.matrix.T)
    u, w = rng.standard_normal(5), rng.standard_normal(5)
    assert u @ f.matrix @ w == pytest.approx(-(w @ f.matrix @ u), abs=0.0)


def test_dirac_graph_isotropy_and_blocks():
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    L = dirac_graph(p, "bivector")
    assert L.n == 2
    # graph contains (sharp(dy), dy) = (e1, e2*)
    v = np.concatenate([p @ [0, 1], [0, 1]])
    coeff = L.basis.T @ v
    assert np.linalg.norm(L.basis @ coeff - v) <= 1e-12
    G = dirac_graph(SkewForm(p), "two_form")
    assert G.kernel_dim() == 0
    with pytest.raises(ValueError):
        dirac_graph(p, "volume_form")


def test_dirac_rejects_non_isotropic():
    bad = np.vstack([np.eye(2), np.eye(2)])  # <(e,a),(e,a)> = 2
    with pytest.raises(ValueError):
        DiracSpace(bad)


def test_gauge_is_a_group_action():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        L = random_dirac(rng, n)
        a, b = random_skew(rng, n), random_skew(rng, n)
        lhs = dirac_gauge(dirac_gauge(L, SkewForm(a)), SkewForm(b))
        rhs = dirac_gauge(L, SkewForm(a + b))
        assert subspace_equal(lhs.basis, rhs.basis)
        zero = dirac_gauge(L, SkewForm(np.zeros((n, n))))
        assert subspace_equal(zero.basis, L.basis)


def test_bivector_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        p = random_skew(rng, n)
        back = dirac_to_bivector(dirac_graph(p, "bivector"))
        assert np.max(np.abs(back - p)) <= 1e-9 * (1 + np.max(np.abs(p)))


def test_two_form_graph_extraction_inverse():
    # graph of an invertible two-form C extracts to -C^{-1}
    c = np.array([[0.0, -1.0], [1.0, 0.0]])
    p = dirac_to_bivector(dirac_graph(SkewForm(c), "two_form"))
    assert np.allclose(p, -np.linalg.inv(c))


def test_not_poisson_defect_dimension():
    # two-form with kernel: graph meets V + 0 in the kernel directions
    c = np.zeros((3, 3))
    c[0, 1], c[1, 0] = 1.0, -1.0
    L = dirac_graph(SkewForm(c), "two_form")
    with pytest.raises(NotPoisson) as err:
        dirac_to_bivector(L)
    assert err.value.defect == 1
    assert L.kernel_dim() == 1


def test_pullback_composes_contravariantly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m, k = 5, 4, 2
        L = random_dirac(rng, n)
        a = rng.standard_normal((n, m))
        b = rng.standard_normal((m, k))
        one = dirac_pullback(L, a @ b)
        two = dirac_pullback(dirac_pullback(L, a), b)
        assert subspace_equal(one.basis, two.basis)


def test_pullback_of_bivector_graph_along_submersion():
    # bundle projection pr(u, z) = u: cotangent part lifts as (b, 0)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    L = dirac_graph(p, "bivector")
    dpr = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    up = dirac_pullback(L, dpr)
    assert up.n == 3
    # contains the whole fiber direction
    fiber = np.zeros(6)
    fiber[2] = 1.0
    coeff = up.basis.T @ fiber
    assert np.linalg.norm(up.basis @ coeff - fiber) <= 1e-12


def test_pullback_rank_deficiency_detected():
    c = np.zeros((2, 2))
    L = dirac_graph(SkewForm(c), "two_form")  # {(v, 0)}
    # map into the zero tangent directions only: backward image collapses
    a = np.zeros((2, 3))
    with pytest.raises(RankDeficient):
        dirac_pullback(L, a)


def test_fiberwise_minus_one_gauge_identity():
    # pulling the gauged space back under (u, z) -> (u, -z) equals
    # gauging by the negated form, for pairing-block gauge forms
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        L = random_dirac(rng, k)
        big = dirac_pullback(L, np.hstack([np.eye(k), np.zeros((k, r))]))
        j = rng.standard_normal((k, r))
        c = np.zeros((k + r, k + r))
        c[:k, k:] = j
        c[k:, :k] = -j.T
        mirror = np.diag(np.concatenate([np.ones(k), -np.ones(r)]))
        lhs = dirac_pullback(dirac_gauge(big, SkewForm(c)), mirror)
        rhs = dirac_gauge(big, SkewForm(-c))
        assert subspace_equal(lhs.basis, rhs.basis, tol=1e-10)


def test_lagrangian_complement_postconditions():
    rng = np.random.default_rng(7)
    std = lambda ell: np.block(
        [[np.zeros((ell, ell)), np.eye(ell)], [-np.eye(ell), np.zeros((ell, ell))]]
    )
    for _ in range(40):
        ell = int(rng.integers(1, 4))
        d = 2 * ell + int(rng.integers(0, 3))
        s = linear.orth(rng.standard_normal((d, 2 * ell)))
        # conjugate the standard form by a random invertible map; the
        # preimage of the standard Lagrangian is then Lagrangian for it
        q = rng.standard_normal((2 * ell, 2 * ell))
        q += np.eye(2 * ell) * 2.0  # keep it comfortably invertible
        omega = q.T @ std(ell) @ q
        l0 = s @ np.linalg.solve(q, np.eye(2 * ell)[:, :ell])
        v_comp = lagrangian_complement(s, omega, l0)
        assert v_comp.shape[1] == ell
        coords = s.T @ v_comp
        scale = 1 + np.max(np.abs(omega))
        assert np.max(np.abs(coords.T @ omega @ coords)) <= 1e-8 * scale
        assert rank_svd(np.hstack([l0, v_comp]))[0] == 2 * ell


def test_gram_schmidt_smoothness_and_align():
    # align_frame follows a rotating subspace smoothly
    ref = np.array([[1.0], [0.0], [0.0]])
    prev = ref
    for t in np.linspace(0, 0.5, 50):
        basis = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        f = linear.align_frame(basis, prev)
        assert f.T @ f == pytest.approx(1.0)
        assert np.linalg.norm(f - basis) <= 1e-12  # same ray, same sign
        prev = f


def _stack_cases(rng):
    """Seeded matrices of the shapes the regularity gate decides ranks on:
    full rank, rank deficient, all zero, empty, with and without a scale."""
    cases = []
    for d, k in [(3, 3), (4, 4), (4, 2), (6, 3), (8, 8), (3, 1)]:
        for rank in range(min(d, k) + 1):
            for _ in range(4):
                m = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, k))
                cases.append((m, None))
                cases.append((1e-9 * m, float(rng.uniform(0.5, 2.0))))
    cases += [(np.zeros((3, 3)), None), (np.zeros((4, 2)), 1.0), (np.zeros((0, 3)), None),
              (np.zeros((3, 0)), None), (np.zeros((0, 0)), 2.0)]
    order = rng.permutation(len(cases))  # interleave the shape groups
    return [cases[i] for i in order]


@pytest.mark.parametrize("tol_rel", [None, 1e-6])
def test_stacked_rank_svd_many_is_bitwise_rank_svd(tol_rel):
    cases = _stack_cases(np.random.default_rng(7))
    many = linear.rank_svd_many([m for m, _ in cases], tol_rel=tol_rel,
                                scales=[s for _, s in cases])
    assert len(many) == len(cases)
    for (m, scale), (rank, col, nul) in zip(cases, many):
        ref_rank, ref_col, ref_nul = rank_svd(m, tol_rel=tol_rel, scale=scale)
        assert rank == ref_rank
        assert np.array_equal(col, ref_col) and col.shape == ref_col.shape
        assert np.array_equal(nul, ref_nul) and nul.shape == ref_nul.shape
    assert {r[0] for r in many} == set(range(9))  # every rank class is exercised


def _intersect_per_row(a, b):
    # the per-pair loop the stacked intersection replaced
    qa, qb = linear.orth(a), linear.orth(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros((qa.shape[0], 0))
    ns = linear.null(np.hstack([qa, -qb]))
    if ns.shape[1] == 0:
        return np.zeros((qa.shape[0], 0))
    return linear.orth(qa @ ns[: qa.shape[1]])


def test_stacked_subspace_intersect_many_is_bitwise_per_pair():
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(60):
        shared = rng.standard_normal((5, rng.integers(0, 3)))
        a = np.hstack([shared, rng.standard_normal((5, rng.integers(0, 3)))])
        b = np.hstack([rng.standard_normal((5, rng.integers(0, 2))), shared])
        pairs.append((a, b))
    pairs.append((np.zeros((5, 2)), rng.standard_normal((5, 2))))
    got = linear.subspace_intersect_many([a for a, _ in pairs], [b for _, b in pairs])
    dims = set()
    for (a, b), cap in zip(pairs, got):
        ref = _intersect_per_row(a, b)
        assert cap.shape == ref.shape and np.array_equal(cap, ref)
        assert np.array_equal(subspace_intersect(a, b), ref)
        dims.add(cap.shape[1])
    assert dims == {0, 1, 2}


def test_is_orthonormal_agrees_with_allclose_at_the_boundary():
    def old(m, tol=1e-12):
        return np.allclose(m.T @ m, np.eye(m.shape[1]), atol=tol)

    cases = []
    # off-diagonal Gram entry exactly at the tolerance, and one step either side
    for off in (1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0)):
        cases.append(np.array([[1.0, off], [0.0, 1.0]]))
    # diagonal Gram entries walking across 1 + 1e-5 (+ tol)
    edge = np.sqrt(1.0 + 1e-5 + 1e-12)
    for step in range(-3, 4):
        a = edge
        for _ in range(abs(step)):
            a = np.nextafter(a, np.sign(step) * np.inf)
        cases.append(np.array([[a]]))
    cases += [np.array([[np.nan]]), np.array([[np.inf], [0.0]]), np.array([[1.0, np.nan]]),
              np.zeros((3, 0)), np.eye(3)]
    verdicts = [linear._is_orthonormal(m) for m in cases]
    assert verdicts == [old(m) for m in cases]
    assert verdicts[:2] == [True, True] and verdicts[2] is False  # the boundary is inclusive
    assert True in verdicts[3:10] and False in verdicts[3:10]
    assert verdicts[10:13] == [False, False, False]
