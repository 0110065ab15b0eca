import re

import numpy as np
import pytest

from poissat import field, linear, model, submanifold
from poissat.linear import (
    NotPoisson,
    RankDeficient,
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
        return dirac_graph(random_skew(rng, n), "two_form")
    big = dirac_graph(random_skew(rng, n + 1), "bivector")
    a = rng.standard_normal((n + 1, n))
    return dirac_pullback(dirac_gauge(big, random_skew(rng, n + 1)), a)


def _defect(basis):
    # dim of L cap (V + 0): n minus the rank of the cotangent block
    n = len(basis) // 2
    return n - rank_svd(basis[n:])[0]


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
    # singular values either side of TOL_REL * s[0] = 1e-8
    assert rank_svd(np.diag([1.0, 1e-3, 1e-12]))[0] == 2
    assert rank_svd(np.diag([1.0, 2e-8, 5e-9]))[0] == 2
    assert rank_svd(np.diag([1.0, 2e-8, 2e-8]))[0] == 3
    assert rank_svd(np.diag([1.0, 5e-9, 5e-9]))[0] == 1
    assert rank_svd(np.diag([2.0, 1.5e-8, 5e-9]))[0] == 1  # the threshold scales with s[0]
    assert rank_svd(np.diag([1e-3, 5e-9]), scale=1.0)[0] == 1  # ... or with scale


@pytest.mark.build_independent
def test_empty_spans_take_the_general_path():
    # callers take annihilators and complements of empty spans with no
    # branch of their own: null of a (0, n) matrix is eye(n) and orth of an
    # (n, 0) one is (n, 0), bitwise, one matrix or stacked
    for n in range(1, 7):
        wide, tall = np.zeros((0, n)), np.zeros((n, 0))
        eye, none = np.eye(n), np.zeros((n, 0))
        assert _same(linear.null(wide), eye) and _same(annihilator(tall), eye)
        assert _same(linear.orth(tall), none)
        assert all(_same(a, eye) for a in linear.null_many([wide, wide]))
        assert all(_same(a, none) for a in linear.orth_many([tall, tall]))
        rows = linear.rank_svd_many([wide, tall, wide])
        assert [row[0] for row in rows] == [0, 0, 0]
        assert _same(rows[0][1], np.zeros((0, 0))) and _same(rows[0][2], eye)
        assert _same(rows[1][1], none) and _same(rows[1][2], np.eye(0))


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
        ann = annihilator(basis)
        assert ann.shape[1] == d - rank_svd(basis)[0] if k else d
        back = annihilator(ann)
        assert subspace_equal(back, basis if k else np.zeros((d, 0)))


def test_subspace_intersect():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    cap = subspace_intersect(a, b)
    assert cap.shape[1] == 1
    assert np.allclose(np.abs(cap[:, 0]), [1.0, 0.0, 0.0])


def test_dirac_graph_isotropy_and_blocks():
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    L = dirac_graph(p, "bivector")
    assert L.shape == (4, 2)
    # graph contains (sharp(dy), dy) = (e1, e2*)
    v = np.concatenate([p @ [0, 1], [0, 1]])
    coeff = L.T @ v
    assert np.linalg.norm(L @ coeff - v) <= 1e-12
    G = dirac_graph(p, "two_form")
    assert _defect(G) == 0
    with pytest.raises(ValueError):
        dirac_graph(p, "volume_form")


def test_dirac_rejects_non_isotropic():
    bad = np.vstack([np.eye(2), np.eye(2)])  # <(e,a),(e,a)> = 2
    with pytest.raises(ValueError):
        linear.raise_first(linear.dirac_spaces(bad[None]))


def test_gauge_is_a_group_action():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        L = random_dirac(rng, n)
        a, b = random_skew(rng, n), random_skew(rng, n)
        lhs = dirac_gauge(dirac_gauge(L, a), b)
        rhs = dirac_gauge(L, a + b)
        assert subspace_equal(lhs, rhs)
        zero = dirac_gauge(L, np.zeros((n, n)))
        assert subspace_equal(zero, L)


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
    p = dirac_to_bivector(dirac_graph(c, "two_form"))
    assert np.allclose(p, -np.linalg.inv(c))


def test_not_poisson_defect_dimension():
    # two-form with kernel: graph meets V + 0 in the kernel directions
    c = np.zeros((3, 3))
    c[0, 1], c[1, 0] = 1.0, -1.0
    L = dirac_graph(c, "two_form")
    with pytest.raises(NotPoisson) as err:
        dirac_to_bivector(L)
    assert err.value.defect == 1
    assert _defect(L) == 1


def test_pullback_composes_contravariantly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m, k = 5, 4, 2
        L = random_dirac(rng, n)
        a = rng.standard_normal((n, m))
        b = rng.standard_normal((m, k))
        one = dirac_pullback(L, a @ b)
        two = dirac_pullback(dirac_pullback(L, a), b)
        assert subspace_equal(one, two)


def test_pullback_of_bivector_graph_along_submersion():
    # bundle projection pr(u, z) = u: cotangent part lifts as (b, 0)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    L = dirac_graph(p, "bivector")
    dpr = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    up = dirac_pullback(L, dpr)
    assert up.shape == (6, 3)
    # contains the whole fiber direction
    fiber = np.zeros(6)
    fiber[2] = 1.0
    coeff = up.T @ fiber
    assert np.linalg.norm(up @ coeff - fiber) <= 1e-12


def test_pullback_rank_deficiency_detected():
    c = np.zeros((2, 2))
    L = dirac_graph(c, "two_form")  # {(v, 0)}
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
        lhs = dirac_pullback(dirac_gauge(big, c), mirror)
        rhs = dirac_gauge(big, -c)
        assert subspace_equal(lhs, rhs, tol=1e-10)


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


def _align_reference(basis, ref):
    """align_frame one matrix at a time: modified Gram-Schmidt with 1-D dots
    and np.linalg.norm."""
    if basis.shape[1] == 0:
        return basis
    m = basis @ (basis.T @ ref)
    for j in range(m.shape[1]):
        for i in range(j):
            m[:, j] -= (m[:, i] @ m[:, j]) * m[:, i]
        nrm = np.linalg.norm(m[:, j])
        if nrm < 1e-13:
            raise RankDeficient("gram_schmidt given rank deficient columns")
        m[:, j] /= nrm
    return m


@pytest.mark.parametrize("layout", ["svd-columns", "transposed-rows"])
@pytest.mark.build_independent
def test_stacked_align_frames_is_bitwise_per_row(layout):
    # seeded stacks in the layouts rank_svd hands out (column slices of U, the
    # transposed row slices of V^T as null returns them), each row bitwise
    # the one-row align_frame and a per-row reference; one row perpendicular
    # to the reference fails alone.  A unit-stride copy changes the bits from
    # d = 4 on under OpenBLAS, which sums strided dots in two halves
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        for k in range(0, min(d, 4) + 1):
            squares = [np.linalg.svd(rng.standard_normal((d, d)))[0] for _ in range(6)]
            first = 0 if layout == "svd-columns" else d - k  # a basis's first column in q

            def basis(q):
                return q[:, :k] if layout == "svd-columns" else q.T[d - k:].T

            ref = linear.fix_signs(rng.standard_normal((d, k)) + 2.0 * basis(squares[0]))
            if 0 < k < d:  # row 3's first column orthogonal to ref's span, in the same layout
                squares[3][:, first] = np.linalg.svd(ref)[0][:, k]
            bases = [basis(q) for q in squares]
            assert len({b.strides for b in bases}) == 1
            got = linear.align_frames(bases, ref)
            for i, (b, frame) in enumerate(zip(bases, got)):
                if 0 < k < d and i == 3:
                    assert isinstance(frame, RankDeficient)
                    with pytest.raises(RankDeficient):
                        _align_reference(b, ref)
                    continue
                for other in (linear.align_frame(b, ref), _align_reference(b, ref)):
                    assert frame.shape == other.shape and frame.tobytes() == other.tobytes()
            if k:
                with pytest.raises(ValueError, match="reference frame dimension mismatch"):
                    linear.align_frame(bases[0], ref[:, 1:])


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


@pytest.mark.build_independent
def test_stacked_rank_svd_many_is_bitwise_rank_svd():
    cases = _stack_cases(np.random.default_rng(7))
    many = linear.rank_svd_many([m for m, _ in cases], scales=[s for _, s in cases])
    assert len(many) == len(cases)
    for (m, scale), (rank, col, nul) in zip(cases, many):
        ref_rank, ref_col, ref_nul = rank_svd(m, scale=scale)
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


@pytest.mark.build_independent
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
    verdicts = linear._orthonormal_each(cases)
    assert verdicts == [old(m) for m in cases]
    assert verdicts[:2] == [True, True] and verdicts[2] is False  # the boundary is inclusive
    assert True in verdicts[3:10] and False in verdicts[3:10]
    assert verdicts[10:13] == [False, False, False]


# --- stacked rank rules and Dirac steps against the per-row code they replaced ---


def _rank_ref(m, scale=None):
    # the per-matrix rank rules that the array form replaced
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d, k = m.shape
    if d == 0 or k == 0 or not m.any():
        return 0, np.zeros((d, 0)), np.eye(k)
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    ref = s[0] if scale is None else max(s[0], float(scale))
    rank = int(np.count_nonzero(s > linear.TOL_REL * ref))
    return rank, u[:, :rank], vt[rank:].T


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.build_independent
def test_stacked_rank_rules_mixed_rows(monkeypatch):
    rng = np.random.default_rng(17)
    rows = []
    for d, k in [(3, 3), (5, 2), (2, 5), (6, 3)]:
        for rank in range(min(d, k) + 1):
            m = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, k))
            rows += [(m, None), (m, float(rng.uniform(0.5, 3.0))), (1e-9 * m, 1.0),
                     (m, np.float64(0.0))]
    minus_zero = np.zeros((3, 3))
    minus_zero[1, 2] = -0.0
    rows += [(np.zeros((3, 3)), None), (minus_zero, 2.0), (-np.zeros((5, 2)), None),
             (np.zeros((0, 4)), None), (np.zeros((4, 0)), 1.5), (np.zeros((0, 0)), None),
             (np.full((3, 3), np.nextafter(0.0, 1.0)), None)]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    assert sum(1 for _, s in rows if s is None) not in (0, len(rows))
    many = linear.rank_svd_many([m for m, _ in rows], scales=[s for _, s in rows])
    for (m, scale), got in zip(rows, many):
        for ref in (rank_svd(m, scale=scale), _rank_ref(m, scale=scale)):
            assert got[0] == ref[0] and type(got[0]) is int
            assert _same(got[1], ref[1]) and _same(got[2], ref[2])
    # a (g, d, k) stack, strided or not, is one shape group
    stack = np.array([m for m, _ in rows if m.shape == (6, 3)])
    for view in (stack, stack[:, ::2], np.zeros((0, 6, 3))):
        for got, m in zip(linear.rank_svd_many(view), view):
            ref = _rank_ref(m)
            assert got[0] == ref[0] and _same(got[1], ref[1]) and _same(got[2], ref[2])
    assert len(stack) == 16 and linear.rank_svd_many(np.zeros((0, 6, 3))) == []
    # all-zero and empty rows never reach the SVD: a batch of them alone makes none
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    trivial = [m for m, _ in rows if not m.size or not m.any()]
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert [r[0] for r in linear.rank_svd_many(trivial)] == [0] * len(trivial)
    assert len(trivial) >= 7 and not calls


def _orthonormal_ref(m):
    eye = np.eye(m.shape[1])
    return bool(np.all(np.abs(m.T @ m - eye) <= 1e-12 + 1e-5 * np.abs(eye)))


def _space_ref(basis):
    # dirac_spaces' checks one basis at a time, as before stacking
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    n = basis.shape[0] // 2
    if basis.shape[1] != n:
        rank, basis, _ = _rank_ref(basis)
        if rank != n:
            raise ValueError(f"Dirac space must have dimension {n}, got {rank}")
    if n and not _orthonormal_ref(basis):
        basis = _rank_ref(basis)[1]
        if basis.shape[1] != n:
            raise ValueError("Dirac basis is rank deficient")
    g = basis.T @ linear.dirac_pairing(n) @ basis
    worst = float(np.max(np.abs(g))) if n else 0.0
    if worst > 1e-10:
        raise ValueError(f"not isotropic: pairing residual {worst:.2e}")
    return basis


def _skew_ref(m):
    # the per-matrix antisymmetrisation that linear.skew stacks
    lower = np.tril((m - m.T) / 2.0, -1)
    return lower - lower.T


def _graph_ref(obj, kind):
    if kind == "bivector":
        return _space_ref(np.vstack([obj, np.eye(len(obj))]))
    c = _skew_ref(obj)
    return _space_ref(np.vstack([np.eye(len(c)), c.T]))


def _gauge_ref(basis, eta):
    n = basis.shape[0] // 2
    c = _skew_ref(eta)
    return _space_ref(np.vstack([basis[:n], basis[n:] + c.T @ basis[:n]]))


def _pullback_ref(basis, a):
    n, k = a.shape
    if k and _rank_ref(a)[0] != min(n, k):
        raise RankDeficient("pullback along a rank-deficient map")
    pairs = _rank_ref(np.hstack([a, -basis[:n]]))[2]
    rank, image, _ = _rank_ref(np.vstack([pairs[:k], a.T @ basis[n:] @ pairs[k:]]))
    if rank != k:
        raise RankDeficient(f"pullback produced dimension {rank}, expected {k}")
    return _space_ref(image)


def _to_bivector_ref(basis):
    n = basis.shape[0] // 2
    rank = _rank_ref(basis[n:])[0]
    if rank < n:
        raise NotPoisson(f"no bivector presentation, defect dimension {n - rank}", n - rank)
    p = basis[:n] @ np.linalg.inv(basis[n:])
    asym = np.max(np.abs(p + p.T)) if n else 0.0
    scale = 1.0 + (np.max(np.abs(p)) if n else 0.0)
    if asym > 1e-8 * scale:
        raise NotPoisson(f"extracted matrix not antisymmetric ({asym:.2e})", 0)
    return (p - p.T) / 2.0


def _forms(rng, n, count):
    """Seeded two-forms on R^n, every third one degenerate: of rank 2 for
    n > 2, zero otherwise."""
    out = []
    for i in range(count):
        m = random_skew(rng, n)
        if i % 3 == 2:
            b = rng.standard_normal((n, 2))
            m = b @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ b.T if n > 2 else np.zeros((n, n))
        out.append(m)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.build_independent
def test_stacked_dirac_graph_and_spaces_are_bitwise_per_row(n):
    rng = np.random.default_rng(20 + n)
    forms = _forms(rng, n, 9)
    for kind, objs in [("bivector", forms), ("two_form", forms),
                       ("two_form", linear.skew(forms)), ("two_form", list(forms)),
                       ("two_form", rng.standard_normal((9, n, n)))]:
        graphs = linear.dirac_graph_many(objs, kind)
        assert len(graphs) == 9
        for obj, graph in zip(objs, graphs):
            assert graph.shape == (2 * n, n)
            assert _same(graph, dirac_graph(obj, kind))
            assert _same(graph, _graph_ref(obj, kind))
    # spaces given in (2n, m) bases with m != n take the rank step first
    bases = np.array([np.hstack([g, g @ rng.standard_normal((n, 1))])
                      for g in linear.dirac_graph_many(forms, "two_form")])
    for space, basis in zip(linear.dirac_spaces(bases), bases):
        assert _same(space, linear.raise_first(linear.dirac_spaces(basis[None]))[0])
        assert _same(space, _space_ref(basis))
    assert linear.dirac_spaces(np.zeros((0, 2 * n, n))) == []


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.build_independent
def test_stacked_dirac_gauge_and_extraction_are_bitwise_per_row(n):
    rng = np.random.default_rng(30 + n)
    forms = _forms(rng, n, 12)
    spaces = (linear.dirac_graph_many(forms[:6], "bivector")
              + linear.dirac_graph_many(forms[6:], "two_form"))
    etas = 0.3 * rng.standard_normal((12, n, n))
    for gauged_etas in (etas, list(etas), linear.skew(etas)):
        gauged = linear.dirac_gauge_many(spaces, gauged_etas)
        for space, eta, got in zip(spaces, etas, gauged):
            assert _same(got, dirac_gauge(space, eta))
            assert _same(got, _gauge_ref(space, eta))
    outcomes = linear.dirac_to_bivector_many(spaces + gauged)
    defects = []
    for space, got in zip(spaces + gauged, outcomes):
        try:
            ref = _to_bivector_ref(space)
        except NotPoisson as exc:
            assert isinstance(got, NotPoisson)
            assert (str(got), got.defect) == (str(exc), exc.defect)
            with pytest.raises(NotPoisson, match=f"^{re.escape(str(exc))}$"):
                dirac_to_bivector(space)
            defects.append(got.defect)
            continue
        assert _same(got, ref) and _same(got, dirac_to_bivector(space))
    assert defects and len(defects) < len(outcomes)  # both outcomes are exercised


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (2, 4), (4, 6), (4, 0)])
@pytest.mark.build_independent
def test_stacked_dirac_pullback_is_bitwise_per_row(n, k):
    rng = np.random.default_rng(40 + 10 * n + k)
    forms = _forms(rng, n, 8)
    spaces = (linear.dirac_graph_many(forms[:4], "bivector")
              + linear.dirac_graph_many(forms[4:], "two_form"))
    maps = rng.standard_normal((8, n, k))
    pulled = linear.dirac_pullback_many(spaces, maps)
    for space, a, got in zip(spaces, maps, pulled):
        assert got.shape == (2 * k, k)
        assert _same(got, dirac_pullback(space, a))
        assert _same(got, _pullback_ref(space, a))


def _graphs(kind):
    def case(rng):
        forms = _forms(rng, 3, 6)
        return linear.dirac_graph_many(forms, kind), [_graph_ref(f, kind) for f in forms]
    return case


def _gauged(rng):
    spaces = linear.dirac_graph_many(_forms(rng, 3, 6), "bivector")
    etas = rng.standard_normal((6, 3, 3))
    return linear.dirac_gauge_many(spaces, etas), [_gauge_ref(s, e) for s, e in zip(spaces, etas)]


def _pulled(rng):
    spaces = linear.dirac_graph_many(_forms(rng, 3, 6), "two_form")
    maps = rng.standard_normal((6, 3, 2))
    return (linear.dirac_pullback_many(spaces, maps),
            [_pullback_ref(s, a) for s, a in zip(spaces, maps)])


def _chart_pullbacks(route):
    def case(rng):
        bv = field.so3_star()
        chart = submanifold.Chart(2, 3, ["cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)"],
                                  domain=[[-0.6, 0.6], [-0.6, 0.6]])
        pds = submanifold.point_data_rows(bv, chart, chart.sample(4, seed=int(rng.integers(99))))
        got = [submanifold.pullback_dirac(pd, route=route) for pd in pds]
        if route == "perp":
            # the route's SVD basis is orthonormal and isotropic: the check keeps it
            return got, [_space_ref(space) for space in got]
        return got, [_pullback_ref(_graph_ref(pd.p, "bivector"), pd.dx) for pd in pds]
    return case


def _marle(rng):
    bv = field.symplectic_r4()
    chart = submanifold.Chart(1, 4, ["0", "u", "0", "0"], domain=[[-1.0, 1.0]])
    comp = model.ComplementChoice(bv, chart, mode="pre_poisson")
    us = chart.sample(3, seed=int(rng.integers(99)))
    return ([row["dirac"] for row in model.marle_invariants(comp, us)],
            [_pullback_ref(_graph_ref(fr.p, "bivector"), fr.dx) for fr in comp.frames(us)])


@pytest.mark.parametrize("case", [
    pytest.param(_graphs("bivector"), id="dirac_graph_many-bivector"),
    pytest.param(_graphs("two_form"), id="dirac_graph_many-two_form"),
    pytest.param(_gauged, id="dirac_gauge_many"),
    pytest.param(_pulled, id="dirac_pullback_many"),
    pytest.param(_chart_pullbacks("generic"), id="pullback_dirac-generic"),
    pytest.param(_chart_pullbacks("perp"), id="pullback_dirac-perp"),
    pytest.param(_marle, id="marle_invariants"),
])
@pytest.mark.build_independent
def test_dirac_spaces_are_checked_arrays(case):
    # every producer of Dirac spaces hands out plain (2n, n) arrays, bitwise
    # the per-row reference checks
    got, refs = case(np.random.default_rng(60))
    assert len(got) == len(refs) > 0
    for space, ref in zip(got, refs):
        n = len(space) // 2
        assert type(space) is np.ndarray and space.shape == (2 * n, n)
        assert _same(space, ref)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("order", ["isotropy-first", "dimension-first"])
@pytest.mark.build_independent
def test_stacked_dirac_spaces_raises_as_per_row(order):
    # a later step's failure in an earlier row wins over an earlier step's
    # failure in a later row, as the per-row loop would raise it
    rng = np.random.default_rng(50)
    n = 3
    good = dirac_graph(random_skew(rng, n), "bivector")
    flat = np.vstack([np.eye(n), np.diag([1.0, 2.0, 3.0])])  # symmetric: not isotropic
    wide = rng.standard_normal((2 * n, n + 1))  # dimension n + 1
    extra = rng.standard_normal((n, 1))
    rows = [np.hstack([good, good @ extra]), np.hstack([flat, flat @ extra]), wide]
    if order == "dimension-first":
        rows = [rows[0], rows[2], rows[1]]
    outcomes = linear.dirac_spaces(np.array(rows))
    batch = _raised(lambda: linear.raise_first(outcomes))

    def per_row():
        for b in rows:
            linear.raise_first(linear.dirac_spaces(b[None]))

    assert batch == _raised(per_row) == _raised(lambda: [_space_ref(b) for b in rows])
    assert batch[0] is ValueError
    assert batch[1].startswith("not isotropic" if order == "isotropy-first"
                               else "Dirac space must have dimension 3")
    # every row keeps its own outcome: the good row passes, bitwise
    for b, got in zip(rows, outcomes):
        try:
            ref = _space_ref(b)
        except ValueError as exc:
            assert type(got) is ValueError and str(got) == str(exc)
            continue
        assert _same(got, ref)


@pytest.mark.build_independent
def test_stacked_dirac_pullback_raises_as_per_row():
    rng = np.random.default_rng(51)
    n, k = 4, 2
    spaces = linear.dirac_graph_many(_forms(rng, n, 4), "bivector")
    maps = rng.standard_normal((4, n, k))
    maps[1] = np.outer(rng.standard_normal(n), [1.0, 2.0])  # rank 1 < k
    maps[3] = 0.0
    outcomes = linear.dirac_pullback_many(spaces, maps)
    batch = _raised(lambda: linear.raise_first(outcomes))

    def per_row():
        for space, a in zip(spaces, maps):
            dirac_pullback(space, a)

    ref = _raised(lambda: [_pullback_ref(s, a) for s, a in zip(spaces, maps)])
    assert batch == _raised(per_row) == ref
    assert batch == (RankDeficient, "pullback along a rank-deficient map")
    assert [type(got) for got in outcomes] == [np.ndarray, RankDeficient] * 2
    # the passing rows, in the batch or alone, are bitwise those of the
    # one-row function
    kept = [0, 2]
    alone = linear.dirac_pullback_many([spaces[i] for i in kept], maps[kept])
    for i, got in zip(kept, alone):
        assert _same(got, dirac_pullback(spaces[i], maps[i]))
        assert _same(outcomes[i], got)


@pytest.mark.build_independent
def test_stacked_dirac_to_bivector_keeps_not_poisson_per_row():
    # NotPoisson is a per-row outcome: the other rows still extract, bitwise
    rng = np.random.default_rng(52)
    n = 4
    forms = _forms(rng, n, 6)
    spaces = (linear.dirac_graph_many(forms[:3], "bivector")
              + linear.dirac_graph_many(forms[3:], "two_form"))
    outcomes = linear.dirac_to_bivector_many(spaces)
    failed = [i for i, p in enumerate(outcomes) if isinstance(p, NotPoisson)]
    assert failed == [5]  # the rank-2 two-form: its graph meets V + 0 in 2 dimensions
    assert outcomes[5].defect == 2
    for space, got in zip(spaces, outcomes):
        if isinstance(got, NotPoisson):
            assert _raised(lambda: dirac_to_bivector(space)) == (NotPoisson, str(got))
        else:
            assert _same(got, dirac_to_bivector(space))
    assert linear.dirac_to_bivector_many([]) == []


@pytest.mark.build_independent
def test_stacked_on_live_keeps_errors_and_groups_in_order():
    calls = []

    def step(rows, tags):
        calls.append((list(rows), list(tags)))
        return [(row, tag) for row, tag in zip(rows, tags)]

    err = RankDeficient("row 1 failed")
    rows = ["a", err, "bb", "c", "dd", ValueError("row 5 failed")]
    tags = [0, 1, 2, 3, 4, 5]
    out = linear.on_live(step, rows, tags, key=len)
    # an error row keeps the identical exception object; every live row gets
    # its own outcome back in row order
    assert out[1] is err and out[5] is rows[5]
    assert [out[i] for i in (0, 2, 3, 4)] == [("a", 0), ("bb", 2), ("c", 3), ("dd", 4)]
    # one call per key group, in first-seen order, with the extras aligned
    assert calls == [(["a", "c"], [0, 3]), (["bb", "dd"], [2, 4])]
    # all live and in one group: the whole list and the extras as they are,
    # with the outcomes the grouped path gives
    calls.clear()
    live = ["a", "c", "e"]
    extra = np.array([7, 8, 9])
    fast = linear.on_live(lambda rows, tags: calls.append(tags) or step(rows, tags), live, extra)
    assert calls[0] is extra
    grouped = linear.on_live(step, [*live, err], [*extra, -1])
    assert grouped[:3] == fast and grouped[3] is err
    assert linear.on_live(step, [], []) == []
    assert linear.on_live(step, [err], [0]) == [err]


@pytest.mark.build_independent
def test_on_distinct_runs_each_distinct_row_once_and_copies_back():
    calls = []
    err = RankDeficient("row failed")

    def step(rows, tags):
        calls.append((len(rows), list(tags)))
        return [err if tag < 0 else row[:, ::2] * tag for row, tag in zip(rows, tags)]

    a, b = np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(3, 2)
    zero = np.zeros((2, 3))
    rows = [a, b, a.copy(), zero, -zero, a, zero]
    tags = np.array([2.0, 2.0, 2.0, 1.0, 1.0, -1.0, 1.0])
    out = linear.on_distinct(step, rows, tags)
    # one call, on the first row of each distinct (row, tag) by shape and
    # bits, in first-seen order: b has a's bits in another shape, and -0.0
    # is not +0.0
    assert calls == [(5, [2.0, 2.0, 1.0, 1.0, -1.0])]
    assert all(got.tobytes() == (row[:, ::2] * tag).tobytes()
               for got, row, tag in zip(out, rows, tags) if tag > 0)
    assert out[5] is err
    # every repeated array outcome is a fresh copy with its strides: writing
    # to one row moves no other
    assert out[0].strides == out[2].strides == (a[:, ::2] * 2.0).strides
    arrays = [i for i, o in enumerate(out) if isinstance(o, np.ndarray)]
    before = {i: out[i].copy() for i in arrays}
    for i in arrays:
        out[i][...] = np.nan
        assert all(_same(out[j], before[j]) for j in arrays if j != i)
        out[i][...] = before[i]
    # no row repeats: the step takes the rows and the extras as they are
    calls.clear()
    stack = np.stack([a, a + 1.0])
    assert [o.tobytes() for o in linear.on_distinct(step, stack, tags[:2])] == [
        (a[:, ::2] * 2.0).tobytes(), ((a + 1.0)[:, ::2] * 2.0).tobytes()]
    assert calls == [(2, [2.0, 2.0])]
    assert linear.on_distinct(step, [], []) == []


@pytest.mark.build_independent
def test_dirac_graph_many_graphs_each_distinct_matrix_once(monkeypatch):
    # a stack that repeats one form is graphed and checked once; every row
    # is bitwise the graph of its form alone, and no two rows alias
    rng = np.random.default_rng(11)
    forms = [random_skew(rng, 3) for _ in range(2)]
    stack = np.array([forms[0], forms[1], forms[0], forms[0]])
    checked = []
    real = linear.dirac_spaces
    monkeypatch.setattr(linear, "dirac_spaces", lambda bases: checked.append(len(bases))
                        or real(bases))
    for kind in ("two_form", "bivector"):
        checked.clear()
        out = linear.dirac_graph_many(stack, kind)
        assert checked == [2]
        assert all(_same(got, dirac_graph(form, kind)) for got, form in zip(out, stack))
        out[0][...] = 0.0
        assert _same(out[2], dirac_graph(forms[0], kind)) and _same(out[3], out[2])


def test_lagrangian_complement_rejects_nan_at_each_check():
    # every check fails on NaN input instead of passing it
    omega = [[0.0, 1.0], [-1.0, 0.0]]
    with pytest.raises(ValueError, match="L0 is not contained in S"):
        lagrangian_complement(np.eye(2), omega, [[np.nan], [0.0]])
    with pytest.raises(RankDeficient, match="L0 is not isotropic for omega"):
        lagrangian_complement(np.eye(2), [[0.0, np.nan], [np.nan, 0.0]], [[1.0], [0.0]])
    # a NaN seed complement carries through the alignment and the correction
    with pytest.raises(RankDeficient, match="complement correction failed isotropy"):
        lagrangian_complement(np.eye(2), omega, [[1.0], [0.0]], ref=[[np.nan], [np.nan]])


def _outcomes(rows):
    """Each row's basis bytes, or its error's type and message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r.tobytes() for r in rows]


@pytest.mark.build_independent
def test_skew_is_the_per_matrix_arithmetic_bitwise():
    # one stacked antisymmetrisation: bitwise the per-matrix arithmetic on
    # +-0, NaN and huge entries, idempotent, and what the Dirac steps that
    # take forms apply themselves, so feeding them skew(c) changes no bit
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        forms = rng.standard_normal((8, n, n))
        forms[1] = -0.0
        forms[2][-1, 0] = -0.0
        forms[3][0, -1] = np.nan  # the NaN lands in the lower triangle
        forms[4] *= 1e300
        forms[5] = rng.choice([0.0, -0.0], size=(n, n))
        forms[6] = random_skew(rng, n)
        got = linear.skew(forms)
        assert got.shape == forms.shape
        for form, row in zip(forms, got):
            assert _same(row, _skew_ref(form))
            assert _same(linear.skew(form), row)
            assert _same(linear.skew(row), row)
        finite = np.isfinite(got).all(axis=(1, 2))
        assert np.array_equal(got[finite], -np.swapaxes(got[finite], 1, 2))
        assert _same(linear.skew(forms.tolist()), got)
        tame = forms[[0, 1, 2, 5, 6, 7]]  # no NaN or overflow for the Dirac checks
        spaces = linear.dirac_graph_many(tame, "two_form")
        assert _outcomes(spaces) == _outcomes(linear.dirac_graph_many(linear.skew(tame), "two_form"))
        etas = rng.standard_normal((6, n, n))
        etas[1:3] = tame[1:3]
        assert _outcomes(linear.dirac_gauge_many(spaces, etas)) == _outcomes(
            linear.dirac_gauge_many(spaces, linear.skew(etas)))
    for bad in (np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros(3), np.zeros((1, 2, 2, 2))):
        with pytest.raises(ValueError, match="square matrix required"):
            linear.skew(bad)


@pytest.mark.build_independent
def test_stacked_intersect_orth_many_is_bitwise_per_pair():
    # mixed shapes, mixed ranks and zero-column bases in one call: each pair
    # is bitwise the one-pair call and the per-pair np.hstack loop
    rng = np.random.default_rng(24)
    pairs = []
    for d in (3, 5):
        for _ in range(30):
            shared = rng.standard_normal((d, rng.integers(0, 3)))
            a = np.hstack([shared, rng.standard_normal((d, rng.integers(0, 2)))])
            b = np.hstack([rng.standard_normal((d, rng.integers(0, 2))), shared])
            pairs.append((a, b))
    pairs += [(np.zeros((3, 0)), rng.standard_normal((3, 2))), (np.zeros((5, 2)), np.eye(5)[:, :1])]
    order = rng.permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    qas, qbs = (linear.orth_many([p[j] for p in pairs]) for j in (0, 1))
    got = linear.intersect_orth_many(qas, qbs)
    dims, shapes = set(), set()
    for (a, b), qa, qb, cap in zip(pairs, qas, qbs, got):
        assert _same(cap, subspace_intersect(a, b))
        assert _same(cap, _intersect_per_row(a, b))
        dims.add(cap.shape[1])
        shapes.add((qa.shape, qb.shape))
    assert dims == {0, 1, 2} and len(shapes) > 6 and min(s[0][1] for s in shapes) == 0


@pytest.mark.build_independent
def test_stacked_rank_svd_joined_is_bitwise_per_row_hstack_and_vstack():
    rng = np.random.default_rng(25)
    pairs = []
    for _ in range(40):
        d, ka, kb = rng.integers(1, 4, size=3)
        rank = rng.integers(0, d + 1)
        a = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, ka))
        pairs.append((a, rng.standard_normal((d, kb)) if rng.integers(2) else a[:, :kb].copy()))
    pairs.append((np.zeros((2, 0)), -np.zeros((2, 1))))
    for axis, join in ((1, np.hstack), (0, lambda ab: np.vstack([ab[0].T, ab[1].T]))):
        rows = pairs if axis else [(a.T, b.T) for a, b in pairs]
        for negate in (False, True):
            got = linear.rank_svd_joined(rows, axis=axis, negate=negate)
            for (a, b), out in zip(pairs, got):
                ref = _rank_ref(join([a, -b] if negate else [a, b]))
                assert out[0] == ref[0] and _same(out[1], ref[1]) and _same(out[2], ref[2])
                assert (out[1].strides, out[2].strides) == (ref[1].strides, ref[2].strides)
    assert linear.rank_svd_joined([]) == []


@pytest.mark.build_independent
def test_stacked_orth_and_null_of_a_mixed_rank_stack_keep_per_row_strides():
    # one (g, d, k) stack of every rank: its orth and null rows are views
    # handed out per rank group, equal to per-row rank_svd in bits, shape and
    # strides (BLAS picks its summation order by stride)
    rng = np.random.default_rng(26)
    for d, k in [(4, 4), (6, 3), (3, 5)]:
        ranks = rng.permutation(np.repeat(np.arange(min(d, k) + 1), 3))
        stack = np.array([rng.standard_normal((d, r)) @ rng.standard_normal((r, k)) for r in ranks])
        for view in (stack, stack[::-1], np.swapaxes(np.swapaxes(stack, 1, 2).copy(), 1, 2)):
            many = linear.rank_svd_many(view)
            for m, got, orth_row, null_row in zip(view, many, linear.orth_many(view),
                                                  linear.null_many(view)):
                for ref in (rank_svd(m), _rank_ref(m)):
                    assert got[0] == ref[0]
                    for out, want in ((got[1], ref[1]), (orth_row, ref[1]), (got[2], ref[2]),
                                      (null_row, ref[2])):
                        assert _same(out, want) and out.strides == want.strides
            assert sorted(r[0] for r in many) == sorted(ranks.tolist())


@pytest.mark.build_independent
def test_rank_rows_decide_each_distinct_matrix_once(monkeypatch):
    # repeated matrices, matrices that differ only by the sign of a zero,
    # mixed ranks, an all-zero row and per-row scales (one matrix repeated
    # under three scales decides three ranks): the SVD runs once per
    # distinct live matrix, and every row is still bitwise rank_svd of its
    # matrix alone, with the same strides and a buffer no other row shares
    rng = np.random.default_rng(41)
    d, k = 4, 3
    plus = np.eye(d, k)
    minus = plus.copy()
    minus[0, 1] = -0.0
    distinct = [rng.standard_normal((d, r)) @ rng.standard_normal((r, k)) for r in (3, 2, 1, 3)]
    distinct += [plus, minus, np.zeros((d, k))]
    order = [0, 1, 0, 4, 2, 5, 6, 1, 3, 4, 0, 5, 2, 6, 0]
    scales = [None, 2.0, 1e9, None, 0.5, None, None, None, 3.0, 1.0, 5.0, None, None, 1.0, None]
    real = np.linalg.svd
    seen = []

    def svd(a, *args, **kwargs):
        seen.append(len(a) if a.ndim == 3 else 1)
        return real(a, *args, **kwargs)

    stack = np.array([distinct[i] for i in order])
    for ms, row_scales in ((stack, scales), (list(stack), scales), (stack[::-1], scales[::-1]),
                           (list(np.asfortranarray(stack)), scales)):
        rows = list(ms)
        refs = [rank_svd(m, s) for m, s in zip(rows, row_scales)]
        seen.clear()
        monkeypatch.setattr(np.linalg, "svd", svd)
        got = linear.rank_svd_many(ms, row_scales)
        monkeypatch.setattr(np.linalg, "svd", real)
        assert sum(seen) == len(distinct) - 1  # the zero matrix never reaches the SVD
        assert len({r[0] for r in got}) > 2
        for m, s, out, ref in zip(rows, row_scales, got, refs):
            for want in (ref, _rank_ref(m, s)):
                assert out[0] == want[0]
                for a, b in ((out[1], want[1]), (out[2], want[2])):
                    assert _same(a, b) and a.strides == b.strides
        arrays = [(i, a) for i, out in enumerate(got) for a in out[1:] if a.size]
        for i, a in arrays:
            for j, b in arrays:
                assert i == j or not np.shares_memory(a, b)


def _angles_ref(a, b):
    # the per-pair angle rules that principal_angles_many replaced
    qa = a if linear._orthonormal_rows(a[None])[0] else rank_svd(a)[1]
    qb = b if linear._orthonormal_rows(b[None])[0] else rank_svd(b)[1]
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    m = qa.T @ qb
    mn = min(qa.shape[1], qb.shape[1])
    cosines = np.linalg.svd(m, compute_uv=False)[:mn]
    sines = np.sort(np.linalg.svd(qb - qa @ m, compute_uv=False))[:mn]
    return np.where(cosines**2 >= 0.5, np.arcsin(np.clip(sines, 0.0, 1.0)),
                    np.arccos(np.clip(cosines, -1.0, 1.0)))


@pytest.mark.build_independent
def test_stacked_principal_angles_and_subspace_equal_are_bitwise_per_pair():
    # pairs of several shapes in one call: orthonormal and loose bases,
    # rank-deficient ones, empty spans, equal and nearly equal spans, and a
    # Fortran-ordered basis; every row is bitwise the per-pair rules, and
    # spans_equal on stacked rank decisions is the rank test plus the angle
    # test per pair
    rng = np.random.default_rng(42)
    pairs = []
    for d, ka, kb in [(5, 2, 2), (5, 3, 2), (4, 2, 3), (6, 3, 3), (4, 0, 2)]:
        for _ in range(3):
            a = rng.standard_normal((d, ka))
            b = a @ rng.standard_normal((ka, kb)) if ka else rng.standard_normal((d, kb))
            pairs += [(a, b), (np.linalg.qr(a)[0], b + 1e-9 * rng.standard_normal((d, kb))),
                      (np.asfortranarray(a), rng.standard_normal((d, kb)))]
    low = rng.standard_normal((5, 1)) @ rng.standard_normal((1, 2))
    pairs += [(low, low), (low, rng.standard_normal((5, 2))), (np.zeros((5, 2)), np.zeros((5, 2)))]
    as_, bs = [p[0] for p in pairs], [p[1] for p in pairs]
    for got, one, (a, b) in zip(linear.principal_angles_many(as_, bs),
                                [linear.principal_angles(a, b) for a, b in pairs], pairs):
        want = _angles_ref(a, b)
        assert _same(got, want) and _same(one, want)
    for tol in (1e-10, 1e-6):
        verdicts = linear.spans_equal(as_, linear.rank_svd_many(as_), bs,
                                      linear.rank_svd_many(bs), tol)
        assert verdicts == [subspace_equal(a, b, tol) for a, b in pairs]
        assert verdicts == [rank_svd(a)[0] == rank_svd(b)[0]
                            and bool(_angles_ref(a, b).max(initial=0.0) <= tol) for a, b in pairs]
        assert True in verdicts and False in verdicts
