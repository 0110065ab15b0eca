"""Parametrized submanifolds of a Poisson coordinate box.

A Chart is a parametrization u -> X(u) (never a level set), with exact
Jacobian trees; components and Jacobian are compiled once into numpy
kernels.  point_data collects the tangent space TX, its annihilator TX0,
the bivector image TXperp = sharp(TX0) and the pulled back Dirac space
(point_data_rows does so at many parameters with stacked rank decisions);
regularity_scan samples the rank of TXperp over a parameter grid and
refines near rank boundaries; classify reduces the sampled ranks to the
standard submanifold classes.

All verdicts are about the sampled set only and are reported as such.
"""

from __future__ import annotations

import numpy as np

from . import expr, linear
from .expr import Num, compile_kernel, derive
from .field import BivectorField
from .linear import (
    RankDeficient,
    annihilator,
    dirac_graph_many,
    dirac_pullback_many,
    dirac_spaces,
    fix_signs,
    on_live,
    orth,
    raise_first,
    rank_svd,
    rank_svd_many,
)


class Chart:
    """Immersed parametrization of a k-dim patch in R^n.

    Args:
        param_dim: number of parameters k (0 allowed: a single point).
        ambient_dim: ambient dimension n.
        components: n expressions (trees or text) in the parameters.
        domain: (k, 2) parameter box, default [-1, 1]^k.
        names: optional name table for parsing text components.
    """

    def __init__(self, param_dim, ambient_dim, components, domain=None, names=None, check=True):
        if len(components) != ambient_dim:
            raise ValueError("need one component per ambient coordinate")
        self.param_dim = int(param_dim)
        self.ambient_dim = int(ambient_dim)
        self.components = [
            expr.parse(c, param_dim, names) if isinstance(c, str) else c for c in components
        ]
        if domain is None:
            domain = np.array([[-1.0, 1.0]] * self.param_dim)
        self.domain = np.asarray(domain, dtype=float).reshape(self.param_dim, 2)
        self._jac = [
            [derive(c, a) for a in range(self.param_dim)] for c in self.components
        ]
        self._points_kernel = compile_kernel(
            [((i,), c) for i, c in enumerate(self.components)], (self.ambient_dim,)
        )
        self._jacobian_kernel = compile_kernel(
            [((i, a), d) for i, row in enumerate(self._jac) for a, d in enumerate(row)
             if d != Num(0.0)],
            (self.ambient_dim, self.param_dim),
        )
        if check and self.param_dim:
            self._immersion_check()

    def _immersion_check(self):
        pts = np.vstack([self.grid(3), self.sample(5, seed=11)])
        for u, (rank, _, _) in zip(pts, rank_svd_many(self.jacobian(pts))):
            if rank != self.param_dim:
                raise ValueError(f"chart is not an immersion at u = {tuple(u.tolist())}")

    def points(self, us):
        return self._points_kernel(np.atleast_2d(np.asarray(us, dtype=float)))

    def point_at(self, u):
        return self.points(np.atleast_1d(np.asarray(u, dtype=float))[None, :])[0]

    def jacobian(self, us):
        return self._jacobian_kernel(np.atleast_2d(np.asarray(us, dtype=float)))

    def jac_at(self, u):
        return self.jacobian(np.atleast_1d(np.asarray(u, dtype=float))[None, :])[0]

    def center(self):
        return self.domain.mean(axis=1)

    def grid(self, counts):
        """Regular parameter grid; odd counts include the box center, and a
        count of 1 is the axis midpoint."""
        if self.param_dim == 0:
            return np.zeros((1, 0))
        if np.isscalar(counts):
            counts = [int(counts)] * self.param_dim
        axes = [
            np.linspace(self.domain[a, 0], self.domain[a, 1], int(counts[a]))
            if int(counts[a]) != 1 else self.center()[a:a + 1]
            for a in range(self.param_dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def sample(self, count, seed=0):
        if self.param_dim == 0:
            return np.zeros((max(count, 1), 0))
        rng = np.random.default_rng(seed)
        return rng.uniform(self.domain[:, 0], self.domain[:, 1], size=(count, self.param_dim))


class PointData:
    """Pointwise linear data of (chart, bivector) at a parameter value."""

    def __init__(self, u, x, dx, p, tx, txperp, corank):
        self.u = u
        self.x = x
        self.dx = dx  # (n, k) chart differential
        self.p = p  # (n, n) bivector matrix at x
        self.tx = tx  # (n, k) orthonormal
        self.txperp = txperp  # (n, r) orthonormal
        self.corank = corank  # dim(ker sharp cap TX0)

    @property
    def rank_perp(self):
        return self.txperp.shape[1]


def point_data(bv: BivectorField, chart: Chart, u):
    """Tangent data at X(u); checks exactness of the defining sequence.

    dim TXperp + dim(ker sharp cap TX0) must equal n - k; a decisive
    violation (rank decisions well separated from their thresholds)
    raises, borderline points never do.
    """
    return point_data_rows(bv, chart, np.atleast_1d(np.asarray(u, dtype=float))[None, :])[0]


def point_data_rows(bv: BivectorField, chart: Chart, us):
    """point_data at every row of us: one chart, Jacobian and bivector
    kernel call each, and one SVD call per matrix shape at each rank
    decision, so every row is bitwise what it is alone.  Failures are
    those of the rows in order: the first row breaking exactness raises."""
    us = np.asarray(us, dtype=float).reshape(len(us), chart.param_dim)
    try:
        xs, dxs = chart.points(us), chart.jacobian(us)
        ps = bv.matrix(xs)
    except expr.EvalError:
        # a batch names its first non-finite slot; row by row raises at the
        # first failing row, as one row at a time did
        if len(us) > 1:
            for u in us:
                point_data_rows(bv, chart, u[None, :])
        raise
    n, k = bv.dim, chart.param_dim
    txs = linear.orth_many(dxs)
    anns = linear.null_many([tx.T for tx in txs])
    images = [p @ ann for p, ann in zip(ps, anns)]
    # the image scale is judged against p itself: an analytically zero
    # product must come out rank 0, not rank "noise"
    perps = linear.rank_svd_many(images, scales=np.linalg.norm(ps, 2, axis=(1, 2)))
    stacks = np.concatenate([ps, dxs.transpose(0, 2, 1)], axis=1)
    coranks = [n - r[0] for r in linear.rank_svd_many(stacks)]
    out = []
    for u, x, dx, p, tx, image, (r, txperp, _), stack, corank in zip(
            us, xs, dxs, ps, txs, images, perps, stacks, coranks):
        if r + corank != n - k:
            sv_img = np.linalg.svd(image, compute_uv=False) if image.size else np.zeros(0)
            sv_stk = np.linalg.svd(stack, compute_uv=False)
            decisive = _decisive(sv_img, r) and _decisive(sv_stk, n - corank)
            if decisive:
                raise ValueError(
                    f"exactness violation at u = {tuple(u.tolist())}: "
                    f"rank {r} + corank {corank} != {n - k}"
                )
        out.append(PointData(u, x, dx, p, tx, txperp, corank))
    return out


def nearby_point_data(bv: BivectorField, chart: Chart, u, seed):
    """PointData at 10 seeded parameters within 1 % of the box span of u,
    clipped to the box; computed lazily, none for a 0-parameter chart."""
    rng = np.random.default_rng(seed)
    span = chart.domain[:, 1] - chart.domain[:, 0]
    for _ in range(10 if chart.param_dim else 0):
        nearby = u + rng.uniform(-0.01, 0.01, chart.param_dim) * span
        yield point_data(bv, chart, np.clip(nearby, chart.domain[:, 0], chart.domain[:, 1]))


def _decisive(sv, rank):
    if sv.size == 0:
        return True
    gap = 10.0
    tol = linear.TOL_REL * sv[0]
    kept = sv[rank - 1] if rank > 0 else np.inf
    dropped = sv[rank] if rank < sv.size else 0.0
    return kept > gap * tol and dropped < tol / gap


class ScanResult:
    def __init__(self, params, points, witnesses, refined):
        self.params = params
        self.points = points  # PointData per row of params
        self.witnesses = witnesses  # rank -> parameter point
        self.refined = refined

    @property
    def regular_on_samples(self):
        return len(self.witnesses) == 1

    @property
    def rank(self):
        if not self.regular_on_samples:
            raise ValueError("not regular on the sampled set")
        return next(iter(self.witnesses))


def regularity_scan(bv: BivectorField, chart: Chart, counts=9, seed=0):
    """Rank of TXperp over a grid, refined 10x near rank boundaries."""
    params = chart.grid(counts)
    points = point_data_rows(bv, chart, params)
    ranks = np.array([pd.rank_perp for pd in points])
    refined_params = []
    if chart.param_dim and len(set(ranks.tolist())) > 1:
        rng = np.random.default_rng(seed)
        shape = tuple(
            [counts] * chart.param_dim if np.isscalar(counts) else [int(c) for c in counts]
        )
        grid_ranks = ranks.reshape(shape)
        grid_params = params.reshape(shape + (chart.param_dim,))
        for axis in range(chart.param_dim):
            lo = [slice(None)] * chart.param_dim
            hi = [slice(None)] * chart.param_dim
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            diff = grid_ranks[tuple(lo)] != grid_ranks[tuple(hi)]
            for idx in np.argwhere(diff):
                a = grid_params[tuple(idx)]
                idx_hi = idx.copy()
                idx_hi[axis] += 1
                b = grid_params[tuple(idx_hi)]
                refined_params.extend(a + (b - a) * rng.uniform(0, 1, size=(10, 1)))
    if refined_params:
        points += point_data_rows(bv, chart, refined_params)
    all_params = params if not refined_params else np.vstack([params, refined_params])
    by_row = [pd.rank_perp for pd in points]  # one witness tuple per rank, at its first row
    witnesses = {r: tuple(all_params[by_row.index(r)].tolist()) for r in dict.fromkeys(by_row)}
    return ScanResult(all_params, points, witnesses, len(refined_params))


class Classification:
    def __init__(self, flags, ranks, sample_count):
        self.flags = flags
        self.ranks = ranks
        self.sample_count = sample_count

    def __getitem__(self, key):
        return self.flags[key]


def classify(bv: BivectorField, chart: Chart, counts=9, seed=0, scan=None):
    """Sampled classification flags for the chart inside the structure.

    Flags: regular, transversal, poisson_submanifold, coisotropic,
    pre_poisson, poisson_dirac.  Implications (transversal => regular,
    poisson_submanifold => regular, coisotropic and regular =>
    pre_poisson) hold by construction of the rank tests.  scan is the
    regularity_scan(bv, chart, counts, seed) result when the caller
    already has it (otherwise it is run here); only the 10 extra samples
    get new point data.  A cap dimension is dim TX + dim TXperp - the sum
    rank, on the basis widths, which stay exact where dX loses rank.
    """
    if scan is None:
        scan = regularity_scan(bv, chart, counts, seed)
    n, k = bv.dim, chart.param_dim
    points = list(scan.points)
    if k:
        points += point_data_rows(bv, chart, chart.sample(10, seed=seed + 1))
    perp_ranks = np.array([pd.rank_perp for pd in points])
    sums = linear.rank_svd_joined([(pd.tx, pd.txperp) for pd in points])
    sum_ranks = np.array([r[0] for r in sums])
    cap_dims = np.array([pd.tx.shape[1] for pd in points]) + perp_ranks - sum_ranks
    tangent = linear.rank_svd_joined([(pd.tx, pd.p) for pd in points])
    poisson_sub = all(r[0] == k for r in tangent)
    regular = len(set(perp_ranks.tolist())) == 1
    coiso = bool(np.all(sum_ranks == k))
    flags = {
        "regular": regular,
        "transversal": bool(np.all(sum_ranks == n) and np.all(cap_dims == 0)),
        "poisson_submanifold": poisson_sub,
        "coisotropic": coiso,
        "pre_poisson": len(set(sum_ranks.tolist())) == 1,
        "poisson_dirac": regular and bool(np.all(cap_dims == 0)),
    }
    ranks = {
        "perp": sorted(set(int(r) for r in perp_ranks)),
        "cap": sorted(set(int(c) for c in cap_dims)),
        "sum": sorted(set(int(s) for s in sum_ranks)),
    }
    return Classification(flags, ranks, len(points))


def pullback_dirac(bv: BivectorField, chart: Chart, pd, route="generic", ref_corank=None):
    """Pull the bivector graph back to the chart at the point of pd: the
    (2k, k) Dirac basis that dirac_spaces checked, k the chart's dimension.

    pd is point_data(bv, chart, u); nothing of it is recomputed.
    route="generic" takes the backward image along the chart Jacobian (the
    one-row case of pullback_dirac_rows); route="perp" realizes the same
    space as sharp(a) + i*a over covectors a annihilating TXperp.  The
    point must be regular: the corank is compared against ref_corank (or
    against seeded nearby samples) and a jump raises RankDeficient.
    """
    if route == "generic":
        return raise_first(pullback_dirac_rows(bv, chart, [pd], ref_corank))[0]
    err = _corank_error(bv, chart, pd, ref_corank)
    if err is not None:
        raise err
    if route == "perp":
        k, dx = chart.param_dim, pd.dx
        ann = annihilator(pd.txperp)
        cols = []
        for a in ann.T:
            v = pd.p @ a
            t, res, _, _ = np.linalg.lstsq(dx, v, rcond=None)
            if np.linalg.norm(dx @ t - v) > 1e-8 * (1 + np.linalg.norm(v)):
                raise RankDeficient("sharp image leaves the tangent space")
            cols.append(np.concatenate([t, dx.T @ a]))
        rank, basis, _ = rank_svd(np.reshape(cols, (len(cols), 2 * k)).T)
        if rank != k:
            raise RankDeficient(f"perp route produced dimension {rank}")
        return raise_first(dirac_spaces(basis[None]))[0]
    raise ValueError(f"unknown route {route!r}")


def pullback_dirac_rows(bv: BivectorField, chart: Chart, pds, ref_corank=None):
    """pullback_dirac's generic route at every PointData of pds, as the
    outcomes of a stacked Dirac step: each corank is checked, then the
    graphs and backward images of the rows that pass are stacked steps,
    each row bitwise what it is alone."""
    return on_live(lambda pds: dirac_pullback_many(
        dirac_graph_many(np.array([pd.p for pd in pds]), "bivector"), [pd.dx for pd in pds]),
        [_corank_error(bv, chart, pd, ref_corank) or pd for pd in pds])


def _corank_error(bv, chart, pd, ref_corank):
    """The RankDeficient of a corank that is not regular at pd, or None."""
    if ref_corank is None:
        if any(q.corank != pd.corank for q in nearby_point_data(bv, chart, pd.u, seed=0)):
            return RankDeficient(
                f"corank jumps near u = {tuple(pd.u.tolist())}: pullback is not smooth there"
            )
    elif pd.corank != ref_corank:
        return RankDeficient(
            f"corank {pd.corank} at u = {tuple(pd.u.tolist())} differs from reference {ref_corank}"
        )
    return None


def make_transversal(bv: BivectorField, chart: Chart, thickness=0.5):
    """Affine thickening of a regular chart into a Poisson transversal.

    The frame E spans a complement of TX + sharp(TXperp-dual image) at
    the chart's center and is kept constant (flat specialization), so the
    result stays a closed-form chart.  Transversality (TX + image of
    sharp spans R^n) is checked at e = 0 over a 5-per-axis chart grid.
    """
    pd = point_data(bv, chart, chart.center())
    n, k = bv.dim, chart.param_dim
    span = orth(np.hstack([pd.tx, pd.txperp]))
    e_frame = fix_signs(linear.null(span.T))
    e_dim = e_frame.shape[1]
    if e_dim == 0:
        return Chart(k, n, list(chart.components), chart.domain, check=False)
    comps = []
    for i in range(n):
        acc = chart.components[i]
        for a in range(e_dim):
            acc = expr.add(acc, expr.mul(Num(float(e_frame[i, a])), expr.Var(k + a)))
        comps.append(acc)
    domain = np.vstack([chart.domain, np.array([[-thickness, thickness]] * e_dim)])
    thick = Chart(k + e_dim, n, comps, domain)
    grid = chart.grid(5)
    tpds = point_data_rows(bv, thick, np.hstack([grid, np.zeros((len(grid), e_dim))]))
    caps = linear.subspace_intersect_many([t.txperp for t in tpds], [t.tx for t in tpds])
    for u, tpd, cap in zip(grid, tpds, caps):
        if tpd.rank_perp + k + e_dim != n or cap.shape[1] != 0:
            raise RankDeficient(f"thickened chart not transversal at u = {tuple(u.tolist())}")
    return thick
