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
    m = np.atleast_2d(np.asarray(m, dtype=float))
    svd = None if _trivial(m) else np.linalg.svd(m, full_matrices=True)
    return _decide(m.shape, svd, tol_rel, scale)


def rank_svd_many(ms, tol_rel=None, scales=None):
    """rank_svd of every matrix in ms, with one SVD call per matrix shape.

    scales, when given, holds one scale (or None) per matrix.  numpy runs
    LAPACK gesdd on each matrix of a stack in turn, so every result is
    bitwise the one rank_svd gives for that matrix alone.
    """
    ms = [np.atleast_2d(np.asarray(m, dtype=float)) for m in ms]
    scales = [None] * len(ms) if scales is None else scales
    out = [None] * len(ms)
    groups = {}
    for i, m in enumerate(ms):
        if _trivial(m):
            out[i] = _decide(m.shape, None, tol_rel, scales[i])
        else:
            groups.setdefault(m.shape, []).append(i)
    for shape, rows in groups.items():
        stack = ms[rows[0]][None] if len(rows) == 1 else np.stack([ms[i] for i in rows])
        for i, svd in zip(rows, zip(*np.linalg.svd(stack, full_matrices=True))):
            out[i] = _decide(shape, svd, tol_rel, scales[i])
    return out


def _trivial(m):
    """Empty or all-zero: rank 0 without an SVD."""
    return m.shape[0] == 0 or m.shape[1] == 0 or not m.any()


def _decide(shape, svd, tol_rel, scale):
    """rank_svd's result from the (u, s, vt) of a matrix of the given shape
    (None for a trivial one); the one copy of the rank rules."""
    d, k = shape
    if svd is None:
        return 0, np.zeros((d, 0)), np.eye(k)
    u, s, vt = svd
    ref = s[0] if scale is None else max(s[0], float(scale))
    tol = (TOL_REL if tol_rel is None else tol_rel) * ref
    rank = int(np.count_nonzero(s > tol))
    return rank, u[:, :rank], vt[rank:].T


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


def _is_orthonormal(m, tol=1e-12):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        return False
    g = m.T @ m
    eye = np.eye(m.shape[1])
    # np.allclose(g, eye, atol=tol) without its overhead: the same rtol, and
    # a NaN or inf entry fails
    return bool(np.all(np.abs(g - eye) <= tol + 1e-5 * np.abs(eye)))


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
        self._lower = np.tril((m - m.T) / 2.0, -1)

    @property
    def n(self):
        return self._lower.shape[0]

    @property
    def matrix(self):
        return self._lower - self._lower.T

    def rank(self):
        return rank_svd(self.matrix)[0]


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
    """

    def __init__(self, basis):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if basis.shape[0] % 2 != 0:
            raise ValueError("basis rows must split into tangent/cotangent blocks")
        n = basis.shape[0] // 2
        if basis.shape[1] != n:
            rank, basis, _ = rank_svd(basis)
            if rank != n:
                raise ValueError(f"Dirac space must have dimension {n}, got {rank}")
        if n and not _is_orthonormal(basis):
            basis = orth(basis)
            if basis.shape[1] != n:
                raise ValueError("Dirac basis is rank deficient")
        g = basis.T @ dirac_pairing(n) @ basis
        worst = float(np.max(np.abs(g))) if n else 0.0
        if worst > 1e-10:
            raise ValueError(f"not isotropic: pairing residual {worst:.2e}")
        self.basis = basis
        self.n = n

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


def dirac_graph(obj, kind):
    """Graph Dirac space of a bivector or a two-form.

    kind="bivector": {(P a, a)} for the antisymmetric matrix P.
    kind="two_form": {(v, i_v omega)} for a SkewForm (or matrix) omega.
    """
    if kind == "bivector":
        p = np.atleast_2d(np.asarray(obj, dtype=float))
        n = p.shape[0]
        return DiracSpace(np.vstack([p, np.eye(n)]))
    if kind == "two_form":
        c = obj.matrix if isinstance(obj, SkewForm) else SkewForm(obj).matrix
        n = c.shape[0]
        return DiracSpace(np.vstack([np.eye(n), c.T]))
    raise ValueError(f"kind must be 'bivector' or 'two_form', got {kind!r}")


def dirac_gauge(L, eta):
    """Gauge transform L^eta = {(v, a + i_v eta) : (v, a) in L}."""
    c = eta.matrix if isinstance(eta, SkewForm) else SkewForm(eta).matrix
    if c.shape[0] != L.n:
        raise ValueError("gauge form dimension mismatch")
    v = L.tangent
    return DiracSpace(np.vstack([v, L.cotangent + c.T @ v]))


def dirac_pullback(L, a):
    """Backward image of L under the linear map with matrix a.

    a is (n, k), the differential of a map from the k-dim source into
    L's n-dim ambient space; covers both immersions (chart inclusions)
    and submersions (bundle projections).  Result is a Dirac space on
    the source: {(u, a^T b) : (a u, b) in L}.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n, k = a.shape
    if n != L.n:
        raise ValueError("map target dimension mismatch")
    if k and rank_svd(a)[0] != min(n, k):
        raise RankDeficient("pullback along a rank-deficient map")
    pairs = null(np.hstack([a, -L.tangent]))
    u = pairs[:k]
    c = pairs[k:]
    stacked = np.vstack([u, a.T @ L.cotangent @ c])
    rank, basis, _ = rank_svd(stacked)
    if rank != k:
        raise RankDeficient(f"pullback produced dimension {rank}, expected {k}")
    return DiracSpace(basis)


def dirac_to_bivector(L):
    """Antisymmetric matrix P with L = {(P a, a)}.

    Raises NotPoisson when L meets V + 0, reporting the defect dimension.
    """
    xi = L.cotangent
    rank = rank_svd(xi)[0]
    if rank < L.n:
        defect = L.n - rank
        raise NotPoisson(f"no bivector presentation, defect dimension {defect}", defect)
    p = L.tangent @ np.linalg.inv(xi)
    asym = np.max(np.abs(p + p.T)) if L.n else 0.0
    scale = 1.0 + (np.max(np.abs(p)) if L.n else 0.0)
    if asym > 1e-8 * scale:
        raise NotPoisson(f"extracted matrix not antisymmetric ({asym:.2e})", 0)
    return (p - p.T) / 2.0


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
