"""Dense linear algebra for subspaces, skew forms and Dirac spaces.

Everything lives in coordinates on R^d with d <= 12, so all operations
are plain numpy SVD / solve calls.  Rank decisions use a relative
threshold against the largest singular value (TOL_REL unless a caller
overrides), and subspaces compare through principal angles, never by
comparing basis matrices entrywise.

Convention (recorded in reports): pairing on V + V* is
<(u,a),(v,b)> = a(v) + b(u), no 1/2 factor; a bivector P acts as
sharp(a) = P @ a; a two-form C acts as omega(u,w) = u^T C w with
i_v omega having coefficient vector C^T v.
"""

from __future__ import annotations

import numpy as np

TOL_REL = 1e-8


class NotPoisson(ValueError):
    """Dirac space has no bivector presentation; .defect is dim(L cap V)."""

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = defect


class RankDeficient(ValueError):
    pass


def rank_svd(m, tol_rel=None, scale=None):
    """Rank, column space and (right) null space of a matrix.

    Parameters
    ----------
    m : (d, k) array
    tol_rel : float, optional
        Relative threshold against the largest singular value.
    scale : float, optional
        External magnitude reference; thresholds use max(s[0], scale).
        Needed when m is a product that is analytically zero: its own
        largest singular value is then rounding noise and a relative
        test reports spurious rank.

    Returns
    -------
    rank : int
    column_space : (d, rank) orthonormal array
    null_space : (k, k - rank) orthonormal array
    """
    return _rank_rows([np.atleast_2d(np.asarray(m, dtype=float))], tol_rel, [scale])[0]


def rank_svd_many(ms, tol_rel=None, scales=None):
    """rank_svd of every matrix in ms, with one SVD call per matrix shape.

    ms is a list of matrices or one (g, d, k) stack; scales, when given,
    holds one scale (or None) per matrix.  numpy runs LAPACK gesdd on each
    matrix of a stack in turn, so every result is bitwise the one rank_svd
    gives for that matrix alone.
    """
    ms = [np.atleast_2d(np.asarray(m, dtype=float)) for m in ms]
    return _rank_rows(ms, tol_rel, [None] * len(ms) if scales is None else scales)


def _rank_rows(ms, tol_rel, scales):
    """The one copy of the rank rules, in array operations per shape group.

    An empty or all-zero matrix has rank 0 and never reaches the SVD.  The
    threshold is tol_rel * max(s[0], scale); a None scale is NaN here, which
    never exceeds s[0], as with Python's max.
    """
    tol_rel = TOL_REL if tol_rel is None else tol_rel
    out = [None] * len(ms)
    shapes = {}
    for i, m in enumerate(ms):
        shapes.setdefault(m.shape, []).append(i)
    for (d, k), rows in shapes.items():
        stack = np.stack([ms[i] for i in rows])
        live = stack.reshape(len(rows), -1).any(axis=1).tolist()
        if not all(live):
            for i, on in zip(rows, live):
                if not on:
                    out[i] = 0, np.zeros((d, 0)), np.eye(k)
            if not any(live):
                continue
            rows, stack = [i for i, on in zip(rows, live) if on], stack[np.array(live)]
        u, s, vt = np.linalg.svd(stack, full_matrices=True)
        ref = s[:, :1]
        if any(scales[i] is not None for i in rows):
            scale = np.array([[np.nan if scales[i] is None else float(scales[i])] for i in rows])
            ref = np.where(scale > ref, scale, ref)
        ranks = (s > tol_rel * ref).sum(axis=1).tolist()
        for i, rank, ui, vti in zip(rows, ranks, u, vt):
            out[i] = rank, ui[:, :rank], vti[rank:].T
    return out


def orth(m):
    return rank_svd(m)[1]


def null(m):
    return rank_svd(m)[2]


def orth_many(ms):
    return [r[1] for r in rank_svd_many(ms)]


def null_many(ms):
    return [r[2] for r in rank_svd_many(ms)]


def gram_schmidt(m):
    """Orthonormalize full-rank columns without reordering.

    Modified Gram-Schmidt; smooth in the input (unlike SVD bases), which
    matters when frames are differentiated by finite differences.
    """
    m = np.array(m, dtype=float)
    d, k = m.shape
    for j in range(k):
        for i in range(j):
            m[:, j] -= (m[:, i] @ m[:, j]) * m[:, i]
        nrm = np.linalg.norm(m[:, j])
        if nrm < 1e-13:
            raise RankDeficient("gram_schmidt given rank deficient columns")
        m[:, j] /= nrm
    return m


def fix_signs(basis):
    """Deterministic sign choice: largest-magnitude entry positive."""
    basis = np.array(basis, dtype=float)
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def align_frame(target_basis, ref_frame):
    """Frame of span(target_basis) closest to ref_frame.

    Projects the reference columns onto the target subspace and
    re-orthonormalizes.  Requires the subspaces to be non-perpendicular
    (principal angles < pi/2), which holds along any fine enough chain.
    """
    target_basis = np.asarray(target_basis, dtype=float)
    ref_frame = np.asarray(ref_frame, dtype=float)
    if target_basis.shape[1] == 0:
        return target_basis
    if ref_frame.shape[1] != target_basis.shape[1]:
        raise ValueError("reference frame dimension mismatch")
    proj = target_basis @ (target_basis.T @ ref_frame)
    return gram_schmidt(proj)


def principal_angles(a, b):
    """Principal angles (radians, ascending) between two column spans.

    Small angles come from the sine-based formula (singular values of
    the projection of one basis onto the other's complement); plain
    arccos of cosines bottoms out near sqrt(machine eps) and cannot
    certify agreement at 1e-10.
    """
    qa = a if _is_orthonormal(a) else orth(a)
    qb = b if _is_orthonormal(b) else orth(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    m = qa.T @ qb
    mn = min(qa.shape[1], qb.shape[1])
    cosines = np.linalg.svd(m, compute_uv=False)[:mn]  # angle ascending
    sines = np.sort(np.linalg.svd(qb - qa @ m, compute_uv=False))[:mn]
    return np.where(
        cosines**2 >= 0.5,
        np.arcsin(np.clip(sines, 0.0, 1.0)),
        np.arccos(np.clip(cosines, -1.0, 1.0)),
    )


def _is_orthonormal(m):
    m = np.asarray(m, dtype=float)
    return m.ndim == 2 and bool(_orthonormal_rows(m[None])[0])


def _orthonormal_rows(stack, tol=1e-12):
    """Per (d, k) matrix of a stack: are its columns orthonormal?"""
    g = np.swapaxes(stack, 1, 2) @ stack
    eye = np.eye(stack.shape[2])
    # np.allclose(g, eye, atol=tol) without its overhead: the same rtol, and
    # a NaN or inf entry fails
    return np.all(np.abs(g - eye) <= tol + 1e-5 * np.abs(eye), axis=(1, 2))


def subspace_equal(a, b, tol=1e-10):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    ra = rank_svd(a)[0] if a.shape[1] else 0
    rb = rank_svd(b)[0] if b.shape[1] else 0
    if ra != rb:
        return False
    if ra == 0:
        return True
    ang = principal_angles(a, b)
    return bool(ang.size == 0 or np.max(ang) <= tol)


def subspace_intersect(a, b):
    """Orthonormal basis of span(a) cap span(b)."""
    return subspace_intersect_many([a], [b])[0]


def subspace_intersect_many(as_, bs):
    """subspace_intersect of every pair (a, b), with stacked SVDs."""
    return intersect_orth_many(orth_many(as_), orth_many(bs))


def intersect_orth_many(qas, qbs):
    """Orthonormal basis of span(qa) cap span(qb) for each pair of bases
    that orth returned, with stacked SVDs."""
    out = [np.zeros((qa.shape[0], 0)) for qa in qas]
    rows = [i for i, (qa, qb) in enumerate(zip(qas, qbs)) if qa.shape[1] and qb.shape[1]]
    nss = dict(zip(rows, null_many([np.hstack([qas[i], -qbs[i]]) for i in rows])))
    rows = [i for i in rows if nss[i].shape[1]]
    for i, q in zip(rows, orth_many([qas[i] @ nss[i][: qas[i].shape[1]] for i in rows])):
        out[i] = q
    return out


def annihilator(basis, dim=None):
    """Covectors vanishing on span(basis), via the Euclidean pairing.

    Involution (annihilator of the annihilator recovers the span) is a
    tested invariant.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if dim is not None and basis.shape[1] == 0:
        basis = np.zeros((dim, 0))
    return null(basis.T)


class SkewForm:
    """Skew bilinear form; stores the strict lower triangle only, so the
    reconstructed matrix is antisymmetric exactly, by construction."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("square matrix required")
        self._lower = _strict_lower(m)

    @property
    def n(self):
        return self._lower.shape[0]

    @property
    def matrix(self):
        return self._lower - self._lower.T

    def rank(self):
        return rank_svd(self.matrix)[0]


def _strict_lower(m):
    """Strict lower triangle of the antisymmetric part of every matrix of m."""
    return np.tril((m - np.swapaxes(m, -1, -2)) / 2.0, -1)


def _skew_rows(forms):
    """SkewForm(f).matrix (f.matrix for a SkewForm) of every form, stacked."""
    return np.stack([(f if isinstance(f, SkewForm) else SkewForm(f)).matrix for f in forms])


def dirac_pairing(n):
    p = np.zeros((2 * n, 2 * n))
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return p


class DiracSpace:
    """Maximal isotropic subspace of V + V*, dim V = n.

    Basis is a (2n, n) orthonormal matrix, tangent block in rows 0..n-1
    and cotangent block in rows n..2n-1.  Construction enforces dimension
    exactly n and isotropy under <(u,a),(v,b)> = a(v) + b(u) to 1e-10.
    It is the one-row case of dirac_spaces.
    """

    def __init__(self, basis):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        [self.basis] = raise_first(_dirac_rows(basis[None]))
        self.n = self.basis.shape[0] // 2

    @classmethod
    def _checked(cls, basis):
        space = cls.__new__(cls)
        space.basis, space.n = basis, basis.shape[0] // 2
        return space

    @property
    def tangent(self):
        return self.basis[: self.n]

    @property
    def cotangent(self):
        return self.basis[self.n :]

    def tangent_part(self):
        """Orthonormal basis of L cap (V + 0), as tangent vectors."""
        ns = null(self.cotangent)
        if ns.shape[1] == 0:
            return np.zeros((self.n, 0))
        return orth(self.tangent @ ns)

    def kernel_dim(self):
        return self.tangent_part().shape[1]


# Stacked Dirac steps.  Each takes a batch of rows of one shape and runs
# every SVD, inverse and product of a step on the whole batch.  It returns
# one outcome per row: the row's result, bitwise what the one-row function
# gives (that function is the one-row case), or the error the row raises
# alone.  A row that arrives as an error takes no step and keeps it, so a
# chain of steps leaves each row its first failure, and raise_first raises
# the first failing row's, in read order, as a per-row loop would.


def raise_first(outcomes, keep=()):
    """outcomes, unless a row holds an error that is not of a keep type:
    then the first such row's error."""
    for out in outcomes:
        if isinstance(out, Exception) and not isinstance(out, keep):
            raise out
    return outcomes


def _live(rows):
    """Indices of the rows that hold no error."""
    return [i for i, row in enumerate(rows) if not isinstance(row, Exception)]


def _dirac_rows(stack):
    """DiracSpace's checks on every (2n, m) basis of a stack: per row the
    checked basis, or the error the row raises alone."""
    g, rows, m = stack.shape
    if rows % 2 != 0:
        raise ValueError("basis rows must split into tangent/cotangent blocks")
    n = rows // 2
    out = list(stack)
    if m != n:
        for i, (rank, basis, _) in enumerate(rank_svd_many(stack)):
            out[i] = basis if rank == n else ValueError(
                f"Dirac space must have dimension {n}, got {rank}")
    live = _live(out)
    if n and live:
        loose = np.compress(~_orthonormal_rows(np.stack([out[i] for i in live])), live)
        for i, q in zip(loose, orth_many([out[i] for i in loose])):
            out[i] = q if q.shape[1] == n else ValueError("Dirac basis is rank deficient")
        live = _live(out)
    if n and live:
        bases = np.stack([out[i] for i in live])
        pairings = np.swapaxes(bases, 1, 2) @ dirac_pairing(n) @ bases
        for i, worst in zip(live, np.abs(pairings).max(axis=(1, 2))):
            if worst > 1e-10:
                out[i] = ValueError(f"not isotropic: pairing residual {worst:.2e}")
    return out


def dirac_spaces(bases):
    """DiracSpace of every basis of a (g, 2n, m) stack, in stacked steps."""
    bases = np.asarray(bases, dtype=float)
    if not len(bases):
        return []
    return [b if isinstance(b, Exception) else DiracSpace._checked(b) for b in _dirac_rows(bases)]


def dirac_graph(obj, kind):
    """Graph Dirac space of a bivector or a two-form.

    kind="bivector": {(P a, a)} for the antisymmetric matrix P.
    kind="two_form": {(v, i_v omega)} for a SkewForm (or matrix) omega.
    """
    if kind == "bivector":
        obj = np.atleast_2d(np.asarray(obj, dtype=float))
    [space] = raise_first(dirac_graph_many([obj], kind))
    return space


def dirac_graph_many(objs, kind):
    """dirac_graph of every bivector or two-form of objs, in stacked steps."""
    if kind == "bivector":
        ps = np.asarray(objs, dtype=float)
        eyes = np.broadcast_to(np.eye(ps.shape[-1]), ps.shape)
        return dirac_spaces(np.concatenate([ps, eyes], axis=1))
    if kind == "two_form":
        cs = _skew_rows(objs)
        eyes = np.broadcast_to(np.eye(cs.shape[-1]), cs.shape)
        return dirac_spaces(np.concatenate([eyes, np.swapaxes(cs, 1, 2)], axis=1))
    raise ValueError(f"kind must be 'bivector' or 'two_form', got {kind!r}")


def dirac_gauge(L, eta):
    """Gauge transform L^eta = {(v, a + i_v eta) : (v, a) in L}."""
    [space] = raise_first(dirac_gauge_many([L], [eta]))
    return space


def dirac_gauge_many(spaces, etas):
    """dirac_gauge of every (L, eta) pair, in stacked steps."""
    out = list(spaces)
    live = _live(out)
    if not live:
        return out
    cs = _skew_rows([etas[i] for i in live])
    bases = np.stack([out[i].basis for i in live])
    n = bases.shape[1] // 2
    if cs.shape[-1] != n:
        raise ValueError("gauge form dimension mismatch")
    v = bases[:, :n]
    gauged = np.concatenate([v, bases[:, n:] + np.swapaxes(cs, 1, 2) @ v], axis=1)
    for i, space in zip(live, dirac_spaces(gauged)):
        out[i] = space
    return out


def dirac_pullback(L, a):
    """Backward image of L under the linear map with matrix a.

    a is (n, k), the differential of a map from the k-dim source into
    L's n-dim ambient space; covers both immersions (chart inclusions)
    and submersions (bundle projections).  Result is a Dirac space on
    the source: {(u, a^T b) : (a u, b) in L}.
    """
    [space] = raise_first(dirac_pullback_many([L], [np.atleast_2d(np.asarray(a, dtype=float))]))
    return space


def dirac_pullback_many(spaces, maps):
    """dirac_pullback of every (L, a) pair, in stacked steps."""
    out = list(spaces)
    live = _live(out)
    if not live:
        return out
    maps = np.asarray(maps, dtype=float)[live]
    bases = np.stack([out[i].basis for i in live])
    _, n, k = maps.shape
    if n != bases.shape[1] // 2:
        raise ValueError("map target dimension mismatch")
    ok = list(range(len(live)))  # positions in live of the rows still passing
    if k:
        ranks = [rank for rank, _, _ in rank_svd_many(maps)]
        for i, rank in zip(live, ranks):
            if rank != min(n, k):
                out[i] = RankDeficient("pullback along a rank-deficient map")
        ok = [j for j, rank in enumerate(ranks) if rank == min(n, k)]
    pairs = null_many(np.concatenate([maps[ok], -bases[ok, :n]], axis=2))
    images = rank_svd_many([np.vstack([p[:k], maps[j].T @ bases[j, n:] @ p[k:]])
                            for j, p in zip(ok, pairs)])
    for j, (rank, basis, _) in zip(ok, images):
        out[live[j]] = basis if rank == k else RankDeficient(
            f"pullback produced dimension {rank}, expected {k}")
    live = _live(out)
    if live:
        for i, space in zip(live, dirac_spaces(np.stack([out[i] for i in live]))):
            out[i] = space
    return out


def dirac_to_bivector(L):
    """Antisymmetric matrix P with L = {(P a, a)}.

    Raises NotPoisson when L meets V + 0, reporting the defect dimension.
    """
    [p] = raise_first(dirac_to_bivector_many([L]))
    return p


def dirac_to_bivector_many(spaces):
    """dirac_to_bivector of every Dirac space of one dimension, in stacked
    steps: per row its P, or the NotPoisson the row raises alone."""
    out = list(spaces)
    live = _live(out)
    if not live:
        return out
    bases = np.stack([out[i].basis for i in live])
    n = bases.shape[1] // 2
    ranks = [rank for rank, _, _ in rank_svd_many(bases[:, n:])]
    for i, rank in zip(live, ranks):
        if rank < n:
            out[i] = NotPoisson(f"no bivector presentation, defect dimension {n - rank}",
                                n - rank)
    ok = [j for j, rank in enumerate(ranks) if rank >= n]
    if not ok:
        return out
    p = bases[ok, :n] @ np.linalg.inv(bases[ok, n:])
    pt = np.swapaxes(p, 1, 2)
    asym = np.abs(p + pt).max(axis=(1, 2), initial=0.0)
    scale = 1.0 + np.abs(p).max(axis=(1, 2), initial=0.0)
    for j, a, b, q in zip(ok, asym, scale, (p - pt) / 2.0):
        out[live[j]] = q if a <= 1e-8 * b else NotPoisson(
            f"extracted matrix not antisymmetric ({a:.2e})", 0)
    return out


def lagrangian_complement(s_basis, omega, l0_basis, ref=None):
    """Lagrangian complement of l0 inside the symplectic space (S, omega).

    Parameters
    ----------
    s_basis : (d, 2l) orthonormal basis of S in ambient coordinates
    omega : (2l, 2l) matrix of the form in s_basis coordinates
    l0_basis : (d, l) basis of a Lagrangian subspace of S
    ref : optional (2l, l) seed complement in s_basis coordinates; when
        given, the working complement is aligned to it so the result
        varies smoothly along a family of inputs

    Returns
    -------
    (d, l) basis V with S = l0 + V and omega(V, V) = 0.
    """
    s_basis = np.atleast_2d(np.asarray(s_basis, dtype=float))
    omega = np.asarray(omega, dtype=float)
    l0 = np.atleast_2d(np.asarray(l0_basis, dtype=float))
    two_l = s_basis.shape[1]
    ell = two_l // 2
    if two_l != 2 * ell or l0.shape[1] != ell:
        raise ValueError("need dim S = 2 dim L0")
    if ell == 0:
        return np.zeros((s_basis.shape[0], 0))
    b = s_basis.T @ l0  # L0 in S coordinates
    resid = np.max(np.abs(s_basis @ b - l0))
    if resid > 1e-9:
        raise ValueError("L0 is not contained in S")
    if np.max(np.abs(b.T @ omega @ b)) > 1e-9 * (1 + np.max(np.abs(omega))):
        raise ValueError("L0 is not isotropic for omega")
    w0 = null(b.T)  # any complement of L0 in S coordinates
    if ref is not None:
        w0 = align_frame(w0, np.asarray(ref, dtype=float))
    m = w0.T @ omega @ b
    om_w = w0.T @ omega @ w0
    c = np.linalg.solve(m, -0.5 * om_w)
    v = s_basis @ (w0 + b @ c)
    v = gram_schmidt(v)
    check = v.T @ s_basis @ omega @ s_basis.T @ v
    if np.max(np.abs(check)) > 1e-8 * (1 + np.max(np.abs(omega))):
        raise RankDeficient("complement correction failed isotropy")
    return v
