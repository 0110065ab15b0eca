"""Parametrized submanifolds of a Poisson coordinate box.

A Chart is a parametrization u -> X(u) (never a level set), with exact
Jacobian trees; components and Jacobian are compiled once into numpy
kernels.  point_data collects the tangent space TX, its annihilator TX0,
the bivector image TXperp = sharp(TX0) and the pulled back Dirac space;
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
    DiracSpace,
    RankDeficient,
    annihilator,
    dirac_graph,
    dirac_pullback,
    fix_signs,
    orth,
    rank_svd,
    subspace_equal,
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
        jacs = self.jacobian(pts)
        for u, j in zip(pts, jacs):
            if rank_svd(j)[0] != self.param_dim:
                raise ValueError(f"chart is not an immersion at u = {tuple(u)}")

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
        """Regular parameter grid; odd counts include the box center."""
        if self.param_dim == 0:
            return np.zeros((1, 0))
        if np.isscalar(counts):
            counts = [int(counts)] * self.param_dim
        axes = [
            np.linspace(self.domain[a, 0], self.domain[a, 1], int(counts[a]))
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

    def __init__(self, u, x, tx, tx0, txperp, corank):
        self.u = u
        self.x = x
        self.tx = tx  # (n, k) orthonormal
        self.tx0 = tx0  # (n, n-k) orthonormal annihilator
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
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = chart.point_at(u)
    dx = chart.jac_at(u)
    n, k = bv.dim, chart.param_dim
    tx = orth(dx) if k else np.zeros((n, 0))
    tx0 = annihilator(tx, dim=n)
    p = bv.matrix_at(x)
    image = p @ tx0
    # the image scale is judged against p itself: an analytically zero
    # product must come out rank 0, not rank "noise"
    r, txperp, _ = rank_svd(image, scale=np.linalg.norm(p, 2))
    stack = np.vstack([p, dx.T])
    corank = n - rank_svd(stack)[0]
    if r + corank != n - k:
        sv_img = np.linalg.svd(image, compute_uv=False) if image.size else np.zeros(0)
        sv_stk = np.linalg.svd(stack, compute_uv=False)
        decisive = _decisive(sv_img, r) and _decisive(sv_stk, n - corank)
        if decisive:
            raise ValueError(
                f"exactness violation at u = {tuple(u)}: "
                f"rank {r} + corank {corank} != {n - k}"
            )
    return PointData(u, x, tx, tx0, txperp, corank)


def _decisive(sv, rank, gap=10.0):
    if sv.size == 0:
        return True
    tol = linear.TOL_REL * sv[0]
    kept = sv[rank - 1] if rank > 0 else np.inf
    dropped = sv[rank] if rank < sv.size else 0.0
    return kept > gap * tol and dropped < tol / gap


class ScanResult:
    def __init__(self, params, ranks, witnesses, refined):
        self.params = params
        self.ranks = ranks
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
    ranks = np.array([point_data(bv, chart, u).rank_perp for u in params])
    refined_params, refined_ranks = [], []
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
                step = np.zeros(chart.param_dim)
                idx_hi = idx.copy()
                idx_hi[axis] += 1
                b = grid_params[tuple(idx_hi)]
                extra = a + (b - a) * rng.uniform(0, 1, size=(10, 1))
                for u in extra:
                    refined_params.append(u)
                    refined_ranks.append(point_data(bv, chart, u).rank_perp)
    all_params = params if not refined_params else np.vstack([params, refined_params])
    all_ranks = (
        ranks if not refined_ranks else np.concatenate([ranks, np.array(refined_ranks)])
    )
    witnesses = {}
    for u, r in zip(all_params, all_ranks):
        witnesses.setdefault(int(r), tuple(float(v) for v in u))
    return ScanResult(all_params, all_ranks, witnesses, len(refined_params))


class Classification:
    def __init__(self, flags, ranks, sample_count):
        self.flags = flags
        self.ranks = ranks
        self.sample_count = sample_count

    def __getitem__(self, key):
        return self.flags[key]


def classify(bv: BivectorField, chart: Chart, counts=9, seed=0, tol=1e-10, scan=None):
    """Sampled classification flags for the chart inside the structure.

    Flags: regular, transversal, poisson_submanifold, coisotropic,
    pre_poisson, poisson_dirac.  Implications (transversal => regular,
    poisson_submanifold => regular, coisotropic and regular =>
    pre_poisson) hold by construction of the rank tests.  scan is the
    regularity_scan(bv, chart, counts, seed) result when the caller
    already has it; otherwise it is run here.
    """
    if scan is None:
        scan = regularity_scan(bv, chart, counts, seed)
    n, k = bv.dim, chart.param_dim
    extra = chart.sample(10, seed=seed + 1)
    params = np.vstack([scan.params, extra]) if k else scan.params
    perp_ranks, cap_dims, sum_ranks = [], [], []
    poisson_sub = True
    for u in params:
        pd = point_data(bv, chart, u)
        perp_ranks.append(pd.rank_perp)
        cap = linear.subspace_intersect(pd.txperp, pd.tx)
        cap_dims.append(cap.shape[1])
        sum_ranks.append(rank_svd(np.hstack([pd.tx, pd.txperp]))[0])
        if rank_svd(np.hstack([pd.tx, bv.matrix_at(pd.x)]))[0] != k:
            poisson_sub = False
    perp_ranks = np.array(perp_ranks)
    cap_dims = np.array(cap_dims)
    sum_ranks = np.array(sum_ranks)
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
    return Classification(flags, ranks, len(params))


def pullback_dirac(bv: BivectorField, chart: Chart, u, route="generic", ref_corank=None, seed=0):
    """Pull the bivector graph back to the chart at u.

    route="generic" takes the backward image along the chart Jacobian;
    route="perp" realizes the same space as sharp(a) + i*a over covectors
    a annihilating TXperp.  The point must be regular: the corank is
    compared against ref_corank (or against seeded nearby samples) and
    a jump raises RankDeficient.
    """
    pd = point_data(bv, chart, u)
    if ref_corank is None:
        span = chart.domain[:, 1] - chart.domain[:, 0] if chart.param_dim else None
        rng = np.random.default_rng(seed)
        for _ in range(10):
            if chart.param_dim == 0:
                break
            nearby = np.clip(
                pd.u + rng.uniform(-0.01, 0.01, chart.param_dim) * span,
                chart.domain[:, 0],
                chart.domain[:, 1],
            )
            if point_data(bv, chart, nearby).corank != pd.corank:
                raise RankDeficient(
                    f"corank jumps near u = {tuple(pd.u)}: pullback is not smooth there"
                )
    elif pd.corank != ref_corank:
        raise RankDeficient(
            f"corank {pd.corank} at u = {tuple(pd.u)} differs from reference {ref_corank}"
        )
    if route == "generic":
        p = bv.matrix_at(pd.x)
        return dirac_pullback(dirac_graph(p, "bivector"), chart.jac_at(pd.u))
    if route == "perp":
        n, k = bv.dim, chart.param_dim
        dx = chart.jac_at(pd.u)
        p = bv.matrix_at(pd.x)
        ann = annihilator(pd.txperp, dim=n)
        cols = []
        for a in ann.T:
            v = p @ a
            t, res, _, _ = np.linalg.lstsq(dx, v, rcond=None)
            if np.linalg.norm(dx @ t - v) > 1e-8 * (1 + np.linalg.norm(v)):
                raise RankDeficient("sharp image leaves the tangent space")
            cols.append(np.concatenate([t, dx.T @ a]))
        basis = orth(np.stack(cols, axis=-1)) if cols else np.zeros((2 * k, 0))
        if basis.shape[1] != k:
            raise RankDeficient(f"perp route produced dimension {basis.shape[1]}")
        return DiracSpace(basis)
    raise ValueError(f"unknown route {route!r}")


def make_transversal(bv: BivectorField, chart: Chart, u0=None, thickness=0.5, counts=5):
    """Affine thickening of a regular chart into a Poisson transversal.

    The frame E spans a complement of TX + sharp(TXperp-dual image) at
    the anchor u0 and is kept constant (flat specialization), so the
    result stays a closed-form chart.  Transversality (TX + image of
    sharp spans R^n) is checked on a grid of the new chart at e = 0.
    """
    u0 = chart.center() if u0 is None else np.atleast_1d(np.asarray(u0, dtype=float))
    pd = point_data(bv, chart, u0)
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
    for u in chart.grid(counts):
        ue = np.concatenate([u, np.zeros(e_dim)])
        tpd = point_data(bv, thick, ue)
        cap = linear.subspace_intersect(tpd.txperp, tpd.tx)
        if tpd.rank_perp + k + e_dim != n or cap.shape[1] != 0:
            raise RankDeficient(f"thickened chart not transversal at u = {tuple(u)}")
    return thick
