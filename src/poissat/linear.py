"""Dense linear algebra for subspaces, skew forms and Dirac spaces.

Everything lives in coordinates on R^d with d <= 12, so all operations
are plain numpy SVD / solve calls.  Rank decisions use one relative
threshold, TOL_REL, against the largest singular value, and subspaces
compare through principal angles, never by comparing basis matrices
entrywise.

Convention (recorded in reports): pairing on V + V* is
<(u,a),(v,b)> = a(v) + b(u), no 1/2 factor; a bivector P acts as
sharp(a) = P @ a; a two-form C acts as omega(u,w) = u^T C w with
i_v omega having coefficient vector C^T v.

Skew forms and Dirac spaces are plain arrays; a Dirac space on R^n is a
(2n, n) basis that dirac_spaces checked.
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


def rank_svd(m, scale=None):
    """Rank, column space and (right) null space of a matrix.

    Parameters
    ----------
    m : (d, k) array
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
    return _rank_rows(np.atleast_2d(np.asarray(m, dtype=float))[None],
                      None if scale is None else [scale])[0]


def rank_svd_many(ms, scales=None):
    """rank_svd of every matrix in ms, with one SVD call per matrix shape.

    ms is a list of matrices or one (g, d, k) stack, which is used as it
    is; scales, when given, holds one scale (or None) per matrix.  numpy
    copies each matrix of a stack into its own buffer and runs LAPACK gesdd
    on it in turn, so every result is bitwise the one rank_svd gives for
    that matrix alone, however the stack was formed.
    """
    if not (isinstance(ms, np.ndarray) and ms.ndim == 3 and ms.dtype == float):
        ms = [m if isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype == float
              else np.atleast_2d(np.asarray(m, dtype=float)) for m in ms]
    return _rank_rows(ms, scales)


def _rank_rows(ms, scales):
    """The one copy of the rank rules, in array operations per shape group.

    ms is a list of 2-D matrices, regrouped by shape, or a (g, d, k) stack,
    which is one group.  An empty or all-zero matrix has rank 0 and never
    reaches the SVD, so null of a (0, k) matrix is eye(k) and orth of a
    (d, 0) one is (d, 0).  The threshold is TOL_REL * max(s[0], scale); a
    None scale is NaN here, which never exceeds s[0], as with Python's max.
    The rows of one rank get their orth and null as views of their U and
    V^T (copied once per rank when a group holds several), with the strides
    u[:, :rank] and vt[rank:].T have for one matrix, on which BLAS picks
    its summation order (see _stack_rows).  It groups by shape itself, in
    one np.array copy per group, rather than through on_live: its rows
    never hold errors, and it is the hottest loop of the stacked layer.

    Stages hand it the same matrix many times (every sample of a constant
    structure repeats PI and its frames), so a group runs the SVD on the
    first occurrence of each distinct matrix only, keyed on its raw bytes
    (-0.0 and +0.0, and NaN payloads, stay apart), and gathers U, s and V^T
    back to every row by index: each row still owns its own buffer, with
    the strides it had, and its own scale.  Nothing is kept between calls.
    """
    out = [None] * len(ms)
    if scales is not None:
        scales = np.array(scales, dtype=float).reshape(-1, 1)
    if isinstance(ms, np.ndarray):
        groups = [(np.arange(len(ms)), ms)] if out else []
    else:
        shapes = {}
        for i, m in enumerate(ms):
            shapes.setdefault(m.shape, []).append(i)
        groups = ((np.array(rows), np.array([ms[i] for i in rows])) for rows in shapes.values())
    for rows, stack in groups:
        g, d, k = stack.shape
        live = stack.reshape(g, d * k).any(axis=1)
        if not live.all():
            for i in rows[~live].tolist():
                out[i] = 0, np.zeros((d, 0)), np.eye(k)
            if not live.any():
                continue
            rows, stack = rows[live], stack[live]
        u, s, vt = _svd_distinct(stack)
        ref = s[:, :1]
        if scales is not None:
            scale = scales[rows]
            ref = np.where(scale > ref, scale, ref)
        ranks = (s > TOL_REL * ref).sum(axis=1)
        distinct = set(ranks.tolist())
        for rank in distinct:
            sel = ranks == rank if len(distinct) > 1 else slice(None)
            for i, col, nul in zip(rows[sel].tolist(), u[sel][:, :, :rank],
                                   np.swapaxes(vt[sel][:, rank:], 1, 2)):
                out[i] = rank, col, nul
    return out


def _svd_distinct(stack):
    """np.linalg.svd of a (g, d, k) stack, run on the first occurrence of
    each distinct matrix only and gathered back to every row by index, so
    every row gets a fresh copy of its matrix's U, s and V^T."""
    g = len(stack)
    if g > 1:
        flat = np.ascontiguousarray(stack).reshape(g, -1)
        keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()
        # in the reversed pairs each matrix's first row comes last, so it wins
        first = dict(zip(keys[::-1], range(g - 1, -1, -1)))
        if len(first) < g:
            at = np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=g)
            distinct = np.flatnonzero(at == np.arange(g))
            slot = np.empty(g, dtype=np.intp)
            slot[distinct] = np.arange(len(distinct))
            gather = slot[at]
            u, s, vt = np.linalg.svd(stack[distinct], full_matrices=True)
            return u[gather], s[gather], vt[gather]
    return np.linalg.svd(stack, full_matrices=True)


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
    matters when frames are differentiated by finite differences.  It is
    the one-row case of gram_schmidt_many.
    """
    return raise_first(gram_schmidt_many(np.asarray(m, dtype=float)[None]))[0]


def gram_schmidt_many(ms):
    """gram_schmidt of every (d, k) matrix of a (g, d, k) stack: per row its
    frame, or the RankDeficient it raises alone.

    Every dot and norm is a stacked (g, 1, d) @ (g, d, 1) product, which
    numpy hands to BLAS ddot row by row on the strides a 1-D dot of one
    C-ordered matrix has (columns for the dots, a contiguous copy for the
    norm, as np.linalg.norm takes), so every row is bitwise its one-row case.
    """
    m = np.array(ms, dtype=float)
    ok = np.ones(len(m), dtype=bool)
    for j in range(m.shape[2]):
        for i in range(j):
            m[:, :, j] -= (m[:, None, :, i] @ m[:, :, j, None])[:, 0] * m[:, :, i]
        col = np.ascontiguousarray(m[:, :, j])
        nrm = np.sqrt(col[:, None, :] @ col[:, :, None])[:, 0]
        ok &= ~(nrm[:, 0] < 1e-13)
        m[:, :, j] /= np.where(ok[:, None], nrm, 1.0)  # a failed row divides no further
    return [row if on else RankDeficient("gram_schmidt given rank deficient columns")
            for row, on in zip(m, ok)]


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
    It is the one-row case of align_frames.
    """
    return raise_first(align_frames([target_basis], ref_frame))[0]


def align_frames(bases, ref_frame, key=None):
    """align_frame of every basis in bases (a list, or one (g, d, k) stack)
    to one reference frame: per row its frame, or the error it raises alone;
    a row that arrives as an error keeps it.

    A basis whose column count differs from the reference's is a
    RankDeficient naming key (the frame's name, if given) and both counts:
    the frame changed dimension.  The bases of one shape and strides are
    projected and re-orthonormalized as one stack that keeps their strides,
    so every row is bitwise its one-row case; a basis with no columns, like
    its reference, is returned as it is.
    """
    ref_frame = np.asarray(ref_frame, dtype=float)

    def step(group):
        k = group[0].shape[1]
        if ref_frame.shape[1] != k:
            name = "" if key is None else f" for {key!r}"
            return [RankDeficient(f"reference frame dimension mismatch{name}: {ref_frame.shape[1]}"
                                  f" columns in the reference, {k} in the basis") for _ in group]
        if k == 0:
            return group
        ts = _stack_rows(group)
        return gram_schmidt_many(ts @ (np.swapaxes(ts, 1, 2) @ ref_frame))

    return on_live(step, [b if isinstance(b, Exception) else np.asarray(b, dtype=float)
                          for b in bases], key=lambda b: (b.shape, b.strides))


def _stack_rows(arrays):
    """np.stack of arrays of one shape and strides, whose rows keep those
    strides.  BLAS may pick a dot product's summation order by stride
    (OpenBLAS sums unit strides in order, others in two interleaved halves
    from length 4 on), so a stacked product is bitwise the one-row product
    only on the rows' own strides."""
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    if not first.size or min(first.strides) < 0:
        return np.stack(arrays)
    span = first.itemsize + sum((n - 1) * s for n, s in zip(first.shape, first.strides))
    stack = np.lib.stride_tricks.as_strided(
        np.empty(len(arrays) * span // first.itemsize), (len(arrays), *first.shape),
        (span, *first.strides))
    return np.stack(arrays, out=stack)


def principal_angles(a, b):
    """Principal angles (radians, ascending) between two column spans.

    Small angles come from the sine-based formula (singular values of
    the projection of one basis onto the other's complement); plain
    arccos of cosines bottoms out near sqrt(machine eps) and cannot
    certify agreement at 1e-10.  It is the one-row case of
    principal_angles_many.
    """
    return principal_angles_many([a], [b])[0]


def principal_angles_many(as_, bs):
    """principal_angles of every pair (a, b), with stacked SVDs."""
    return _angles(_bases(as_), _bases(bs))


def _bases(ms, orths=None):
    """Per matrix: itself when its columns are orthonormal, else its orth,
    taken from orths (each matrix's rank_svd orth, when already decided) or
    from one orth_many over the matrices that need it."""
    ms = [np.asarray(m, dtype=float) for m in ms]
    fits = _orthonormal_each(ms)
    loose = [i for i, fit in enumerate(fits) if not fit]
    if orths is None:
        orths = dict(zip(loose, orth_many([ms[i] for i in loose])))
    for i in loose:
        ms[i] = orths[i]
    return ms


def _angles(qas, qbs):
    """The one copy of the angle rules, on pairs of orthonormal bases.

    The pairs of one shape share two stacked singular-value calls, which
    numpy runs matrix by matrix; the products qa^T qb and qb - qa (qa^T qb)
    stay on each row's own operands, and the rest is elementwise, so every
    row is bitwise its one-row case.
    """

    def step(pairs):
        mn = min(pairs[0][0].shape[1], pairs[0][1].shape[1])
        if not mn:
            return [np.zeros(0)] * len(pairs)
        ms = [qa.T @ qb for qa, qb in pairs]
        cosines = np.linalg.svd(np.array(ms), compute_uv=False)  # angle ascending
        sines = np.sort(np.linalg.svd(np.array([qb - qa @ m for (qa, qb), m in zip(pairs, ms)]),
                                      compute_uv=False), axis=1)[:, :mn]
        return np.where(
            cosines**2 >= 0.5,
            np.arcsin(np.clip(sines, 0.0, 1.0)),
            np.arccos(np.clip(cosines, -1.0, 1.0)),
        )

    return on_live(step, list(zip(qas, qbs)), key=lambda p: (p[0].shape, p[1].shape))


def _orthonormal_each(ms):
    """Per array: are its columns orthonormal, as np.allclose(m.T @ m, eye,
    atol=1e-12) judges?  One stacked test per group of 2-D matrices that
    share shape and strides (the strides the product has for one matrix,
    see _stack_rows)."""

    def step(group):
        if group[0].ndim != 2:
            return [False] * len(group)
        return _orthonormal_rows(_stack_rows(group)).tolist()

    return on_live(step, ms, key=lambda m: (m.shape, m.strides))


def _orthonormal_rows(stack):
    """Per (d, k) matrix of a stack: are its columns orthonormal?"""
    g = np.swapaxes(stack, 1, 2) @ stack
    eye = np.eye(stack.shape[2])
    # np.allclose(g, eye, atol=1e-12) without its overhead: the same rtol,
    # and a NaN or inf entry fails
    return np.all(np.abs(g - eye) <= 1e-12 + 1e-5 * np.abs(eye), axis=(1, 2))


def subspace_equal(a, b, tol=1e-10):
    """Do the column spans of a and b agree, to principal angles of tol?
    It is the one-row case of spans_equal."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return spans_equal([a], [rank_svd(a)], [b], [rank_svd(b)], tol)[0]


def spans_equal(as_, decided_a, bs, decided_b, tol):
    """subspace_equal of every pair (a, b) of 2-D matrices whose rank_svd
    results are decided already (by one rank_svd_many per side, say):
    spans of unequal rank differ, and the others compare through principal
    angles on the decided orths."""
    rows = [i for i, (da, db) in enumerate(zip(decided_a, decided_b)) if da[0] == db[0]]
    angles = _angles(_bases([as_[i] for i in rows], [decided_a[i][1] for i in rows]),
                     _bases([bs[i] for i in rows], [decided_b[i][1] for i in rows]))
    out = [False] * len(as_)
    for i, ang in zip(rows, angles):
        out[i] = bool(ang.max(initial=0.0) <= tol)
    return out


def subspace_intersect(a, b):
    """Orthonormal basis of span(a) cap span(b)."""
    return subspace_intersect_many([a], [b])[0]


def subspace_intersect_many(as_, bs):
    """subspace_intersect of every pair (a, b), with stacked SVDs."""
    return intersect_orth_many(orth_many(as_), orth_many(bs))


def intersect_orth_many(qas, qbs):
    """Orthonormal basis of span(qa) cap span(qb) for each pair of bases
    that orth returned, with stacked SVDs; each [qa | -qb] is joined in its
    shape group's stack, and each product qa @ ns stays on the row's own
    operands."""
    out = [np.zeros((qa.shape[0], 0)) for qa in qas]
    rows = [i for i, (qa, qb) in enumerate(zip(qas, qbs)) if qa.shape[1] and qb.shape[1]]
    nss = dict(zip(rows, [r[2] for r in rank_svd_joined(
        [(qas[i], qbs[i]) for i in rows], negate=True)]))
    rows = [i for i in rows if nss[i].shape[1]]
    for i, q in zip(rows, orth_many([qas[i] @ nss[i][: qas[i].shape[1]] for i in rows])):
        out[i] = q
    return out


def rank_svd_joined(pairs, axis=1, negate=False):
    """rank_svd_many of every pair (a, b) joined as [a | b] (axis 1) or as
    [a; b] (axis 0), with -b for b if negate: the pairs of one shape are
    stacked, negated and joined by one np.concatenate, and each such stack
    is one rank_svd_many call.  Copies and a negation move no bit, so every
    row is bitwise rank_svd of its np.hstack (np.vstack)."""

    def step(group):
        a, b = np.array([p[0] for p in group]), np.array([p[1] for p in group])
        return rank_svd_many(np.concatenate([a, -b if negate else b], axis=axis + 1))

    return on_live(step, list(pairs), key=lambda p: (p[0].shape, p[1].shape))


def annihilator(basis):
    """Covectors vanishing on span of the (d, k) basis, via the Euclidean
    pairing; k = 0 gives eye(d).

    Involution (annihilator of the annihilator recovers the span) is a
    tested invariant.
    """
    return null(np.atleast_2d(np.asarray(basis, dtype=float)).T)


def skew(m):
    """The exactly antisymmetric part of an (n, n) matrix or of every matrix
    of a (g, n, n) stack: L - L^T for L the strict lower triangle of
    (m - m^T)/2.  Every step is elementwise, so skew is bitwise idempotent."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError("square matrix required")
    lower = np.tril((m - np.swapaxes(m, -1, -2)) / 2.0, -1)
    return lower - np.swapaxes(lower, -1, -2)


def dirac_pairing(n):
    p = np.zeros((2 * n, 2 * n))
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return p


# Stacked Dirac steps.  Each takes a batch of rows of one shape and runs
# every SVD, inverse and product of a step on the whole batch.  It returns
# one outcome per row: the row's result, bitwise what the one-row function
# gives (that function is the one-row case), or the error the row raises
# alone.  on_live is the protocol: a row that arrives as an error takes no
# step and keeps it, so a chain of steps leaves each row its first failure,
# and raise_first raises the first failing row's, in read order, as a
# per-row loop would.


def raise_first(outcomes, keep=()):
    """outcomes, unless a row holds an error that is not of a keep type:
    then the first such row's error."""
    for out in outcomes:
        if isinstance(out, Exception) and not isinstance(out, keep):
            raise out
    return outcomes


def on_live(step, rows, *extras, key=None):
    """One stacked step over rows that may hold errors, with one outcome per row.

    step maps a list of rows, and the matching items of each extra list, to
    one outcome per row.  It runs on the rows that hold no error, once per
    group of rows with one key(row) (one group without a key), the groups
    in first-seen order; a row that holds an error keeps it.  The outcomes
    come back in row order.  When every row is live and in one group, step
    takes the whole list and the extras as they are.
    """
    out = list(rows)
    groups = {}
    for i, row in enumerate(out):
        if not isinstance(row, Exception):
            groups.setdefault(None if key is None else key(row), []).append(i)
    if len(groups) == 1 and len(next(iter(groups.values()))) == len(out):
        return list(step(out, *extras))
    for idx in groups.values():
        for i, res in zip(idx, step([out[i] for i in idx], *[[e[i] for i in idx] for e in extras])):
            out[i] = res
    return out


def dirac_spaces(bases):
    """The one check of Dirac spaces, on every (2n, m) basis of a (g, 2n, m)
    stack: per row the checked basis, or the error the row raises alone;
    [] for an empty stack.  A checked basis is (2n, n), orthonormal (a basis
    of m != n or of loose columns gives way to its orth), tangent block over
    cotangent block, and isotropic to 1e-10; every Dirac step's result is one."""
    stack = np.asarray(bases, dtype=float)
    if not len(stack):
        return []
    _, rows, m = stack.shape
    if rows % 2 != 0:
        raise ValueError("basis rows must split into tangent/cotangent blocks")
    n = rows // 2
    out = list(stack)
    if m != n:
        out = [basis if rank == n else ValueError(
            f"Dirac space must have dimension {n}, got {rank}")
            for rank, basis, _ in rank_svd_many(stack)]
    if not n:
        return out

    def orthonormal(bases):
        loose = np.flatnonzero(~_orthonormal_rows(np.array(bases)))
        for i, q in zip(loose, orth_many([bases[i] for i in loose])):
            bases[i] = q if q.shape[1] == n else ValueError("Dirac basis is rank deficient")
        return bases

    def isotropic(bases):
        stacked = np.array(bases)
        pairings = np.swapaxes(stacked, 1, 2) @ dirac_pairing(n) @ stacked
        return [ValueError(f"not isotropic: pairing residual {worst:.2e}") if worst > 1e-10
                else basis for basis, worst in zip(bases, np.abs(pairings).max(axis=(1, 2)))]

    return on_live(isotropic, on_live(orthonormal, out))


def dirac_graph(obj, kind):
    """Graph Dirac space of a bivector or a two-form.

    kind="bivector": {(P a, a)} for the antisymmetric matrix P.
    kind="two_form": {(v, i_v omega)} for skew(omega).
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
        cs = skew(objs)
        eyes = np.broadcast_to(np.eye(cs.shape[-1]), cs.shape)
        return dirac_spaces(np.concatenate([eyes, np.swapaxes(cs, 1, 2)], axis=1))
    raise ValueError(f"kind must be 'bivector' or 'two_form', got {kind!r}")


def dirac_gauge(L, eta):
    """Gauge transform L^eta = {(v, a + i_v eta) : (v, a) in L}."""
    [space] = raise_first(dirac_gauge_many([L], [eta]))
    return space


def dirac_gauge_many(spaces, etas):
    """dirac_gauge of every (L, eta) pair, in stacked steps."""

    def step(spaces, etas):
        cs = skew(etas)
        bases = np.array(spaces)
        n = bases.shape[1] // 2
        if cs.shape[-1] != n:
            raise ValueError("gauge form dimension mismatch")
        v = bases[:, :n]
        return dirac_spaces(np.concatenate([v, bases[:, n:] + np.swapaxes(cs, 1, 2) @ v], axis=1))

    return on_live(step, spaces, etas)


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

    def step(spaces, maps):
        maps = np.asarray(maps, dtype=float)
        bases = np.array(spaces)
        _, n, k = maps.shape
        if n != bases.shape[1] // 2:
            raise ValueError("map target dimension mismatch")
        rows = list(zip(maps, bases))
        if k:
            rows = [row if rank == min(n, k) else RankDeficient(
                "pullback along a rank-deficient map")
                for row, (rank, _, _) in zip(rows, rank_svd_many(maps))]

        def images(rows):
            pairs = [r[2] for r in rank_svd_joined([(a, b[:n]) for a, b in rows], negate=True)]
            images = rank_svd_joined([(p[:k], a.T @ b[n:] @ p[k:])
                                      for (a, b), p in zip(rows, pairs)], axis=0)
            return [basis if rank == k else RankDeficient(
                f"pullback produced dimension {rank}, expected {k}") for rank, basis, _ in images]

        return on_live(lambda images: dirac_spaces(np.array(images)), on_live(images, rows))

    return on_live(step, spaces, maps)


def dirac_to_bivector(L):
    """Antisymmetric matrix P with L = {(P a, a)}.

    Raises NotPoisson when L meets V + 0, reporting the defect dimension.
    """
    [p] = raise_first(dirac_to_bivector_many([L]))
    return p


def dirac_to_bivector_many(spaces):
    """dirac_to_bivector of every Dirac space of one dimension, in stacked
    steps: per row its P, or the NotPoisson the row raises alone."""

    def step(spaces):
        bases = np.array(spaces)
        n = bases.shape[1] // 2
        return on_live(extract, [basis if rank >= n else NotPoisson(
            f"no bivector presentation, defect dimension {n - rank}", n - rank)
            for basis, (rank, _, _) in zip(bases, rank_svd_many(bases[:, n:]))])

    def extract(bases):
        bases = np.array(bases)
        n = bases.shape[1] // 2
        p = bases[:, :n] @ np.linalg.inv(bases[:, n:])
        pt = np.swapaxes(p, 1, 2)
        asym = np.abs(p + pt).max(axis=(1, 2), initial=0.0)
        scale = 1.0 + np.abs(p).max(axis=(1, 2), initial=0.0)
        return [q if a <= 1e-8 * b else NotPoisson(
            f"extracted matrix not antisymmetric ({a:.2e})", 0)
            for a, b, q in zip(asym, scale, (p - pt) / 2.0)]

    return on_live(step, spaces)


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

    Raises RankDeficient where L0 or V is not isotropic, ValueError where
    the shapes do not match or L0 is not inside S.
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
    # each check is written "not ... <=" so that a NaN fails it
    if not np.max(np.abs(s_basis @ b - l0)) <= 1e-9:
        raise ValueError("L0 is not contained in S")
    if not np.max(np.abs(b.T @ omega @ b)) <= 1e-9 * (1 + np.max(np.abs(omega))):
        raise RankDeficient("L0 is not isotropic for omega")
    w0 = null(b.T)  # any complement of L0 in S coordinates
    if ref is not None:
        w0 = align_frame(w0, np.asarray(ref, dtype=float))
    m = w0.T @ omega @ b
    om_w = w0.T @ omega @ w0
    c = np.linalg.solve(m, -0.5 * om_w)
    v = s_basis @ (w0 + b @ c)
    v = gram_schmidt(v)
    check = v.T @ s_basis @ omega @ s_basis.T @ v
    if not np.max(np.abs(check)) <= 1e-8 * (1 + np.max(np.abs(omega))):
        raise RankDeficient("complement correction failed isotropy")
    return v
