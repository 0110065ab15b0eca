"""Local models and saturation charts for regular submanifolds.

The pipeline at a regular chart X inside (R^n, pi):

  1. choose a complement W of TXperp in TM|_X (ComplementChoice);
     W induces the inclusion j of fiber covectors as W0 in T*M|_X;
  2. sigma/tau are the fiber data of pi seen through j;
  3. the bundle chart (u, zeta) embeds into the cotangent box via
     e(u, zeta) = (X(u), J(u) zeta); the canonical gauge form is
     eta = -e*(averaged form of the spray flow);
  4. the local-model bivector is extracted from the eta-gauge of the
     pullback Dirac structure, pulled up along the bundle projection;
  5. Phi(u, zeta) = exp(e(u, zeta)) parametrizes the saturation P, and
     pushing the model bivector through dPhi must reproduce the ambient
     bivector compressed to TP.

Frames along X are kept smooth by aligning every intermediate basis to
the frames computed at an anchor parameter, so finite differences of
J(u) are meaningful.  The checks return what they measured; the CLI's
stage methods compare the values with the scene's tolerances.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .expr import EvalError
from .field import BivectorField, jacobi_tensor
from .linear import (
    NotPoisson,
    RankDeficient,
    align_frames,
    dirac_gauge,
    dirac_gauge_many,
    dirac_graph_many,
    dirac_pullback,
    dirac_pullback_many,
    dirac_to_bivector_many,
    fix_signs,
    intersect_orth_many,
    lagrangian_complement,
    null,
    null_many,
    on_distinct,
    on_live,
    orth,
    orth_many,
    principal_angles,
    principal_angles_many,
    rank_svd,
    rank_svd_many,
    raise_first,
    skew,
    spans_equal,
    subspace_equal,
    subspace_intersect,
)
from .sprayflow import LeftDomain, flow
from .submanifold import Chart, PointData, point_data_rows, pullback_dirac, pullback_dirac_rows

RADIUS_FLOOR = 1e-3
_FD_H = 1e-5  # central-difference step of J, the tube frame and the gauge forms
_CLOSED_H = 1e-4  # central-difference step of the closedness probe of eta


def worst_of(values):
    """The largest of 0.0 and values, the fold of every check: the first
    NaN among values, if any, and otherwise what max([0.0, *values])
    returns.  Python's max drops a NaN that comes after a number, so a
    NaN measure would pass a check."""
    out = 0.0
    for value in values:
        if value != value:
            return value
        if value > out:
            out = value
    return out


class ComplementFrame(PointData):
    """Pointwise output of a ComplementChoice: the PointData at u, whose
    txperp is the aligned frame ([cap | H]-ordered in pre_poisson mode),
    with the complement W and the inclusion j."""

    def __init__(self, pd, txperp, w, j, cap_dim=0, conditions=None):
        super().__init__(pd.u, pd.x, pd.dx, pd.p, pd.tx, txperp)
        self.w = w  # (n, n-r)
        self.j = j  # (n, r), image is W0, pairs with txperp as identity
        self.cap_dim = cap_dim
        self.conditions = conditions or {}

    def freeze(self):
        """Make every array of the frame read-only; returns the frame."""
        for a in (self.u, self.x, self.p, self.dx, self.tx, self.txperp, self.w, self.j):
            a.flags.writeable = False
        return self


def _solve_inclusions(perps, ws, failure):
    """Inclusion j of every row of the (g, n, r) and (g, n, m) stacks: j
    solves [perp | w]^T j = [I; 0], so it pairs with perp as the identity
    and annihilates w.  One rank_svd_many call decides every [perp | w] and
    one np.linalg.solve solves the spanning ones.  Per row its j, or
    RankDeficient(failure) where perp and w do not span R^n; a w of the
    wrong width leaves the stack non-square, and every spanning row holds
    the error np.linalg.solve raises for it alone."""
    stacks = np.concatenate([perps, ws], axis=2)
    _, n, r = perps.shape

    def solve(spanning):
        try:
            return list(np.linalg.solve(np.swapaxes(np.array(spanning), 1, 2),
                                        np.broadcast_to(np.eye(n, r), (len(spanning), n, r))))
        except np.linalg.LinAlgError as err:
            return [err] * len(spanning)

    return on_live(solve, [stack if rank == n else RankDeficient(failure)
                           for stack, (rank, _, _) in zip(stacks, rank_svd_many(stacks))])


def _framed(splits, pds):
    """The ComplementFrame of every (txperp, w, cap_dim, conditions) split of
    one shape: one inclusion solve, then one check of w^T j on the stacked
    rows it solved.  Per row its frame, or its error: RankDeficient where
    TXperp and W do not span, or where j does not annihilate W to 1e-10 (a
    non-finite product does not)."""
    ws = np.array([split[1] for split in splits])
    js = _solve_inclusions(np.array([split[0] for split in splits]), ws,
                           "complement does not span with TXperp")

    def checked(js, ws, splits, pds):
        products = np.swapaxes(np.array(ws), 1, 2) @ np.array(js)
        worst = np.abs(products).max(axis=(1, 2), initial=0.0)
        return [ComplementFrame(pd, t, w, j, c, cond) if value <= 1e-10
                else RankDeficient("inclusion does not annihilate the complement")
                for value, j, (t, w, c, cond), pd in zip(worst, js, splits, pds)]

    return on_live(checked, js, ws, splits, pds)


def _span_in(big, small_perp):
    """Basis of span(big) cap orthocomplement(small_perp)."""
    if big.shape[1] == 0 or small_perp.shape[1] == 0:
        return big
    coeff = null(small_perp.T @ big)
    return big @ coeff if coeff.shape[1] else np.zeros((big.shape[0], 0))


class FrameAligner:
    """Aligns every basis stored under a key to the first (sign-fixed) one.
    The constructor sets every reference from frames at an anchor point that
    it does not keep, so no result depends on which point is read first.
    _aligned_many aligns a list of bases, whose rows may hold errors, in one
    align_frames call, each row bitwise as alone; _aligned is its one-row
    case."""

    def _aligned_many(self, key, bases):
        """Every basis aligned to the key's reference: per row its frame, or
        the error it raises alone; a row that arrives as an error keeps it.
        With no reference yet, the first basis, sign-fixed, becomes it."""
        if key not in self._refs:
            self._refs[key] = fix_signs(bases[0])
            return [self._refs[key], *self._aligned_many(key, bases[1:])]
        return align_frames(bases, self._refs[key], key)

    def _aligned(self, key, basis):
        return raise_first(self._aligned_many(key, [basis]))[0]


# every complement mode, with the [complement] frame columns it reads
COMPLEMENT_MODES = {"default": (), "coisotropic": ("g",), "pre_poisson": ("g", "h"),
                    "custom": ("w",)}


class ComplementChoice(FrameAligner):
    """Smooth complement W of TXperp along a regular chart.

    Modes:
      default      Euclidean orthocomplement of TXperp.
      pre_poisson  the splitting over the cap TXperp cap TX (Marle;
                   Cattaneo-Zambon): G and H complement the cap in TX and
                   TXperp, C is a Lagrangian complement of the cap in the
                   symplectic bundle sharp((G+H)0); returns W = G + C + Y,
                   with sharp((H+W)0) inside W and W cap TX = G.
      coisotropic  the case whose cap is all of TXperp, with H = 0 (and a
                   cap_dim of 0): sharp(W0) inside W and W cap TX = G.
      custom       user-supplied W (matrix or callable of u).

    G and H default to Euclidean complements inside TX and TXperp; all
    frames are aligned to those at the anchor u0, the chart's center, so
    they vary smoothly and no frame depends on which is read first.
    The "perp" alignment refuses a TXperp of another width than the
    anchor's, so every frame keeps the anchor's rank TXperp and corank:
    that is where regularity is enforced per frame.  A frame is the
    PointData at u plus W and j, memoised on the bits of u and frozen: the
    grid rows and the finite-difference stencils of the bundle embedding
    revisit the same parameters many times.  Frames are
    computed per batch of memo misses, from one point_data_rows call, in
    one path for all four modes: one stacked alignment of the TXperp
    frames, then W (default: one null_many and one stacked alignment; the
    other modes: _split per row), then per shape group one step that
    solves the inclusions and checks w^T j, each row bitwise as alone.
    Each row keeps the first error of its chain, and the first failing
    miss raises after every miss before it is memoised.
    """

    def __init__(self, bv: BivectorField, chart: Chart, mode="default", g=None, h=None, w=None):
        if mode not in COMPLEMENT_MODES:
            raise ValueError(f"unknown complement mode {mode!r}")
        for key, frame in zip("ghw", (g, h, w)):
            if frame is not None and key not in COMPLEMENT_MODES[mode]:
                raise ValueError(f"complement mode {mode!r} reads no {key} frame")
        if mode == "custom" and w is None:
            raise ValueError("complement mode 'custom' needs a w frame")
        self.bv = bv
        self.chart = chart
        self.mode = mode
        self.u0 = chart.center()
        self._g_user = None if g is None else np.atleast_2d(np.asarray(g, dtype=float))
        self._h_user = None if h is None else np.atleast_2d(np.asarray(h, dtype=float))
        self._w_user = w
        self._refs = {}
        self._memo = {}
        [anchor] = raise_first(self._frame_rows(point_data_rows(bv, chart, self.u0[None])))
        self._aligned("tube", _tube_basis(anchor))
        self.rank_perp = anchor.rank_perp
        self.cap_dim = anchor.cap_dim

    def at(self, u) -> ComplementFrame:
        """The frame at u: the one-row case of frames."""
        return self.frames([u])[0]

    def frames(self, us):
        """The frame at every row of us.  The memo misses, listed on their
        bits in read order, get their PointData from one point_data_rows
        call and their frames from _frame_rows.  A failure is that of the
        misses in order, point data before any frame's: the first failing
        miss raises, and every miss before it is memoised."""
        us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in us]
        keys = [u.tobytes() for u in us]
        got = {key: self._memo[key] for key in keys if key in self._memo}
        misses = {key: u for key, u in zip(keys, us) if key not in got}
        if misses:  # stacked into a fresh array: a frame is frozen, never alias
            pds = point_data_rows(self.bv, self.chart, np.array(list(misses.values())))
            for key, fr in zip(misses, self._frame_rows(pds)):
                got[key] = self._memo[key] = raise_first([fr])[0].freeze()
        return [got[key] for key in keys]

    def _frame_rows(self, pds):
        """The frame of every PointData, or the first error of its chain."""
        # every mode aligns TXperp, though pre_poisson then orders its own [cap | H]
        perps = self._aligned_many("perp", [pd.txperp for pd in pds])
        if self.mode == "default":
            ws = self._aligned_many("w", on_live(lambda ts: null_many([t.T for t in ts]), perps))
            splits = on_live(lambda ws, ts: [(t, w, 0, None) for w, t in zip(ws, ts)], ws, perps)
        else:
            splits = on_live(lambda ts, pds: [self._split(pd, t) for pd, t in zip(pds, ts)],
                             perps, pds)
        return on_live(_framed, splits, pds, key=lambda split: (split[0].shape, split[1].shape))

    def _split(self, pd, txperp):
        """W at one row in the custom, coisotropic or pre_poisson mode, as
        (txperp, w, cap_dim, conditions), or the ValueError the row raises:
        that is its RankDeficient, a failed Lagrangian complement or a bad
        custom W, each kept as the row's outcome for frames to raise in
        order; any other exception is a fault and raises at once."""
        try:
            if self.mode == "custom":
                return txperp, (self._w_user(pd.u) if callable(self._w_user)
                                else np.array(self._w_user, dtype=float)), 0, None
            return self._cap_split(pd, txperp)
        except ValueError as err:
            return err

    def _symplectic_on_image(self, p, ann):
        """Orthobasis of sharp(span(ann)) with the induced symplectic matrix."""
        image = p @ ann
        rank, s, _ = rank_svd(image, scale=np.linalg.norm(p, 2))
        if rank == 0:
            return s, np.zeros((0, 0))
        s = self._aligned("s", s)
        pre, *_ = np.linalg.lstsq(image, s, rcond=None)
        alpha = ann @ pre
        if not np.abs(p @ alpha - s).max() <= 1e-9:  # a NaN preimage fails too
            raise RankDeficient("no preimages for the symplectic bundle basis")
        return s, alpha.T @ p.T @ alpha

    def _cap_split(self, pd, txperp):
        """The pre_poisson splitting at one row, as ([cap | H], G + C + Y,
        cap_dim, conditions); Y completes [cap | H | G | C] to R^n.  The
        coisotropic case takes the aligned TXperp as the cap and H = 0."""
        n, k = self.bv.dim, self.chart.param_dim
        tx, p = pd.tx, pd.p
        coisotropic = self.mode == "coisotropic"
        if coisotropic and rank_svd(np.hstack([tx, txperp]))[0] != k:
            raise RankDeficient(f"chart is not coisotropic at u = {tuple(pd.u.tolist())}")
        cap = txperp if coisotropic else self._aligned("cap", subspace_intersect(pd.txperp, tx))
        g = self._g_user if self._g_user is not None else self._aligned("g", _span_in(tx, cap))
        h = (np.zeros((n, 0)) if coisotropic else self._h_user if self._h_user is not None
             else self._aligned("h", _span_in(pd.txperp, cap)))
        if rank_svd(np.hstack([cap, g]))[0] != k or subspace_intersect(cap, g).shape[1]:
            raise RankDeficient("G is not a complement of the cap in TX")
        if rank_svd(np.hstack([cap, h]))[0] != pd.rank_perp:
            raise RankDeficient("H is not a complement of the cap in TXperp")
        s, omega = self._symplectic_on_image(p, null(np.hstack([g, h]).T))
        if s.shape[1] != 2 * cap.shape[1]:
            raise RankDeficient("sharp((G+H)0) has unexpected rank")
        c_lag = lagrangian_complement(s, omega, cap,
                                      ref=s.T @ self._refs["c"] if "c" in self._refs else None)
        self._refs.setdefault("c", c_lag)
        used = np.hstack([cap, h, g, c_lag])
        if rank_svd(used)[0] != used.shape[1]:
            raise RankDeficient("splitting pieces are not independent")
        y = self._aligned("y", null(used.T) if n - used.shape[1] else np.zeros((n, 0)))
        w = np.hstack([g, c_lag, y])
        conditions = {
            "sharp_w0_in_w" if coisotropic else "sharp_hw0_in_w": _sharp_into(p, w, h),
            "w_cap_tx_is_g": bool(subspace_equal(subspace_intersect(w, tx), g, tol=1e-8)),
        }
        return np.hstack([cap, h]), w, 0 if coisotropic else cap.shape[1], conditions


def _tube_basis(fr):
    """Basis of a complement of TP = span[dX, sharp(J)] at the frame's zero-section point."""
    return null(np.hstack([fr.dx, fr.p @ fr.j]).T)


def _sharp_into(p, w, extra):
    """Residual of sharp((extra + w)^0) inside span(w)."""
    span = np.hstack([extra, w])
    q = orth(w)
    image = p @ null(span.T)
    return float(np.abs(image - q @ (q.T @ image)).max(initial=0.0))


def sigma_tau(comp: ComplementChoice, u):
    """Fiber form sigma and pairing tau of the complement at u.

    sigma(z1, z2) = pi(j z1, j z2) on fiber covectors; tau pairs chart
    velocities with included covectors, tau[a, p] = <dX e_a, J e_p>.
    """
    fr = comp.at(u)
    sigma = skew(fr.j.T @ fr.p.T @ fr.j)
    tau = fr.dx.T @ fr.j
    return sigma, tau


def _stencil(point, h):
    """The central-difference stencil of point, one (2d, d) array: every
    point + h*e_a, then every point - h*e_a."""
    offsets = h * np.eye(len(point))
    return np.vstack([point + offsets, point - offsets])


def _central_diff(vals, h, vec=None):
    """Central differences at a point from the values of f at the 2d rows of
    its _stencil, stacked in one array: grads[a] = d/dp_a f, or with vec
    the (rows, d) matrix whose column a is d/dp_a (f @ vec)."""
    d = len(vals) // 2
    diff = vals[:d] - vals[d:]
    if vec is not None:
        diff = (diff @ vec).T
    return diff / (2 * h)


def _bundle_flow(comp, us, zetas, steps, with_omega=False, extra=None):
    """Embed every (u, zeta) row as e(u, zeta) = (X(u), J(u) zeta) and flow
    all of them in one batch, with jac.

    The frames of every u and of its _FD_H-stencil come from one comp.frames
    call; de(u, zeta) has dJ/du zeta from their J.  Returns the frame of
    every u, the FlowResult, dPhi = d(exp)_base . de at every row (the top
    half of jac) and, with omega, eta = -de^T omega de at every row, else
    None; batched rows are bitwise those of single-row flows.  extra, a
    pair (x, xi) of state rows, rides the same flow after the bundle rows:
    the FlowResult holds them last, and dPhi and eta do not.
    """
    us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in us]
    got = comp.frames([y for u in us for y in (u, *_stencil(u, _FD_H))])
    span = 2 * comp.chart.param_dim + 1
    frames, des, covs = [], [], []
    for i, zeta in enumerate(zetas):
        fr = got[i * span]
        (n, k), r = fr.dx.shape, fr.rank_perp
        zeta = np.asarray(zeta, dtype=float).reshape(r)
        js = np.array([f.j for f in got[i * span:(i + 1) * span]])
        de = np.zeros((2 * n, k + r))
        de[:n, :k] = fr.dx
        de[n:, k:] = fr.j
        de[n:, :k] = _central_diff(js[1:], _FD_H, zeta)
        frames.append(fr)
        des.append(de)
        covs.append(fr.j @ zeta)
    xs, covs = np.array([fr.x for fr in frames]), np.array(covs)
    if extra is not None:
        xs, covs = np.vstack([xs, extra[0]]), np.vstack([covs, extra[1]])
    res = flow(comp.bv, xs, covs, steps=steps, with_jac=True, with_omega=with_omega)
    des = np.array(des)
    m = len(des)
    dphi = res.jac[:m, :res.jac.shape[1] // 2] @ des
    etas = -np.swapaxes(des, 1, 2) @ res.omega[:m] @ des if with_omega else None
    return frames, res, dphi, etas


def _require_inside(exited):
    if exited.any():
        raise LeftDomain("state flows out of the domain box")


def eta_forms(comp, us, zetas, steps=1024):
    """eta = -e*(averaged flow form) at every (u, zeta) row, in one flow."""
    _, res, _, etas = _bundle_flow(comp, us, zetas, steps, with_omega=True)
    _require_inside(res.exited)
    return etas


def eta_canonical(comp, u, zeta, steps=1024):
    """Gauge form eta(u, zeta) = -e*(averaged flow form) on the bundle."""
    return eta_forms(comp, [u], [zeta], steps)[0]


def eta_zero_section(comp, u):
    """Closed-form value of eta at zeta = 0: the -sigma/-tau block form."""
    sigma, tau = sigma_tau(comp, u)
    k, r = tau.shape
    out = np.zeros((k + r, k + r))
    out[:k, k:] = -tau
    out[k:, :k] = tau.T
    out[k:, k:] = -sigma
    return out


def eta_canonical_form_source(comp, u, zeta):
    """Gauge form from the canonical form of T*X (coisotropic route).

    Restricting fiber covectors to TX embeds the bundle into T*X; in
    chart coordinates the restriction of J(u) is exactly tau(u), so the
    pullback of the canonical form is tau plus a base curvature term.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zeta = np.asarray(zeta, dtype=float).reshape(comp.rank_perp)
    taus = np.array([fr.dx.T @ fr.j for fr in comp.frames([u, *_stencil(u, _FD_H)])])
    return _canonical_form_gauge(taus[0], taus[1:], zeta, _FD_H)


def _canonical_form_gauge(b, stencil_vals, vec, h):
    """Canonical-form gauge [[D - D^T, B], [-B^T, 0]] of f at u, B = f(u) and
    D = d/du (f(u) @ vec), from the values of f at the rows of _stencil(u, h)."""
    d = _central_diff(stencil_vals, h, vec)
    return _gauge_blocks(d - d.T, b)


def _gauge_blocks(a, b):
    """[[A, B], [-B^T, 0]], the block shape of canonical-form gauges."""
    k, m = b.shape
    out = np.zeros((k + m, k + m))
    out[:k, :k] = a
    out[:k, k:] = b
    out[k:, :k] = -b.T
    return out


def eta_closedness_residual(comp, u, zeta, steps=256):
    """Max finite-difference exterior-derivative component of eta."""
    return _closedness_sum(eta_forms(comp, *_closedness_rows(comp, u, zeta), steps=steps))


def _closedness_rows(comp, u, zeta):
    """The (us, zetas) rows of the closedness probe at (u, zeta): the
    _CLOSED_H-stencil of the bundle point, which needs no row at the point."""
    k = comp.chart.param_dim
    zeta = np.asarray(zeta, dtype=float).reshape(comp.rank_perp)
    ps = _stencil(np.concatenate([np.atleast_1d(u), zeta]), _CLOSED_H)
    return ps[:, :k], ps[:, k:]


def _closedness_sum(etas):
    """The largest cyclic sum of the central-difference gradients of eta,
    from eta at the rows of _closedness_rows."""
    grads = _central_diff(etas, _CLOSED_H)
    return worst_of(abs(grads[a][b, c] + grads[b][c, a] + grads[c][a, b])
                    for a, b, c in combinations(range(len(grads)), 3))


def local_model_bivector(comp, u, zeta, steps=1024, eta_source="flow"):
    """Bivector of the local model at a bundle point (u, zeta).

    Pulls the chart's Dirac structure up along the bundle projection,
    gauges by eta and extracts; NotPoisson propagates when the gauged
    space has no bivector presentation (expected far from zeta = 0).
    """
    if eta_source == "flow":
        eta = eta_canonical(comp, u, zeta, steps=steps)
    elif eta_source == "canonical_form":
        eta = eta_canonical_form_source(comp, u, zeta)
    else:
        raise ValueError(f"unknown eta source {eta_source!r}")
    return raise_first(_models_from_etas(_lifts(comp, [u]), [eta]))[0]


def _lifts(comp, us):
    """Chart Dirac structure at every u, pulled back from its frame (a
    PointData) and up along the bundle projection: one lift per distinct
    frame of the call, in stacked steps, and nothing kept between calls.
    Per u its lift, or the error its lift raises alone."""
    frames = comp.frames(us)
    distinct = {id(fr): fr for fr in frames}
    dpr = np.eye(comp.chart.param_dim, comp.chart.param_dim + comp.rank_perp)  # bundle projection
    bases = pullback_dirac_rows(list(distinct.values()))
    made = dict(zip(distinct, dirac_pullback_many(bases, [dpr] * len(distinct))))
    return [made[id(fr)] for fr in frames]


def _models_from_etas(lifts, etas):
    """Model bivector matrix of every row: its lift gauged by its eta and
    extracted, in stacked steps.  Per row its matrix, or the first error of
    its chain (a failed lift's, a gauge's, or its NotPoisson)."""
    return dirac_to_bivector_many(dirac_gauge_many(lifts, etas))


def _pushforward_mismatches(dphis, models, targets):
    """Max entry of dphi model dphi^T - target, compressed to the frame of
    dphi, at every row; the frames come from one orth_many call."""
    return [float(np.abs(q.T @ (dphi @ model @ dphi.T - target) @ q).max())
            for q, dphi, model, target in zip(orth_many(dphis), dphis, models, targets)]


def extraction_radius(comp, u, steps=256, start=0.5, seed=0):
    """Largest probed fiber radius where model extraction succeeds.

    Halves the radius until 6 seeded directions all extract, down
    to the radius floor; returns 0.0 if even the floor fails.  Each
    radius flows all directions in one batch.  Only what the radius
    changes halves it, an extraction failure (NotPoisson) or a flow that
    leaves the box (LeftDomain); the frame and lift at u are fetched once,
    before the first radius, and their errors propagate.
    """
    dirs = _extraction_dirs(comp, seed)
    if dirs is None:
        return start
    lifts = raise_first(_lifts(comp, [u])) * len(dirs)
    return _first_extracting(lifts, _halvings(start), lambda radius: eta_forms(
        comp, [u] * len(dirs), radius * dirs, steps=steps))


def _extraction_dirs(comp, seed):
    """The 6 seeded unit fiber directions that the extraction radius
    probes, or None on a 0-dimensional fiber, which has none."""
    if comp.rank_perp == 0:
        return None
    dirs = np.random.default_rng(seed).normal(size=(6, comp.rank_perp))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _first_extracting(lifts, radii, etas_at):
    """The first of radii at which every direction extracts, else 0.0;
    etas_at(radius) gives eta at the rows of that radius.  Only what the
    radius changes fails it, an extraction failure (NotPoisson) or a flow
    that leaves the box (LeftDomain); any other error propagates."""
    for radius in radii:
        try:
            raise_first(_models_from_etas(lifts, etas_at(radius)))
            return radius
        except (NotPoisson, LeftDomain):
            continue
    return 0.0


def eta_checks(comp, u, grid, zeta, steps=1024, start=0.5, seed=0):
    """The model stage's three measures of eta at the anchor u, as
    (etas, closedness, radius): eta at every zero-section row (g, 0) of
    grid, flowed over steps, then eta_closedness_residual(comp, u, zeta)
    and extraction_radius(comp, u, start=start, seed=seed), both flowed
    over min(steps, 256).

    Their first flows go out together, as one _bundle_flow call per
    distinct step count, and each check reads its own rows, which are
    bitwise those of its own flow.  An exit in the grid or stencil rows
    fails the merged path; one in the first radius's rows fails that
    radius, and later radii flow as extraction_radius flows them.
    """
    short = min(steps, 256)
    try:
        return _eta_checks_merged(comp, u, grid, zeta, steps, short, start, seed)
    except Exception:
        # whatever failed, the three standalone calls in their order raise
        # the error, message and point that the stage reports
        return (eta_forms(comp, grid, np.zeros((len(grid), comp.rank_perp)), steps=steps),
                eta_closedness_residual(comp, u, zeta, steps=short),
                extraction_radius(comp, u, steps=short, start=start, seed=seed))


def _eta_checks_merged(comp, u, grid, zeta, steps, short, start, seed):
    dirs = _extraction_dirs(comp, seed)
    batches = [(list(grid), np.zeros((len(grid), comp.rank_perp)), steps),
               (*_closedness_rows(comp, u, zeta), short)]
    if dirs is not None:
        lifts = raise_first(_lifts(comp, [u])) * len(dirs)
        batches.append(([u] * len(dirs), start * dirs, short))
    (grid_exited, etas), (stencil_exited, stencil_etas), *first = _batched_etas(comp, batches)
    _require_inside(grid_exited)
    _require_inside(stencil_exited)
    closed = _closedness_sum(stencil_etas)
    if dirs is None:
        return etas, closed, start

    def etas_at(radius):
        if radius == start:  # flowed with the other batches
            _require_inside(first[0][0])
            return first[0][1]
        return eta_forms(comp, [u] * len(dirs), radius * dirs, steps=short)

    return etas, closed, _first_extracting(lifts, _halvings(start), etas_at)


def _batched_etas(comp, batches):
    """(exited, eta) of every (us, zetas, steps) batch, from one _bundle_flow
    call per distinct steps; each batch's rows are its own slice."""
    out = [None] * len(batches)
    for steps in dict.fromkeys(b[2] for b in batches):
        picked = [i for i, b in enumerate(batches) if b[2] == steps]
        _, res, _, etas = _bundle_flow(comp, [y for i in picked for y in batches[i][0]],
                                       np.vstack([batches[i][1] for i in picked]), steps,
                                       with_omega=True)
        bounds = np.cumsum([0, *(len(batches[i][0]) for i in picked)])
        for i, lo, hi in zip(picked, bounds, bounds[1:]):
            out[i] = res.exited[lo:hi], etas[lo:hi].copy()
    return out


def _halvings(start):
    """The radii start, start/2, start/4, ... down to RADIUS_FLOOR; a
    non-finite start raises ValueError (inf would halve forever)."""
    if not np.isfinite(start):
        raise ValueError(f"radius must be finite, got {start}")
    while start >= RADIUS_FLOOR:
        yield start
        start *= 0.5


def _sigma_grid(comp, u_counts, radius, per_u, seed):
    us = comp.chart.grid(u_counts)
    r = comp.rank_perp
    rng = np.random.default_rng(seed)
    rows_u, rows_z = [], []
    for u in us:
        rows_u.append(u)
        rows_z.append(np.zeros(r))
        if r:
            dirs = rng.normal(size=(per_u, r))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            scales = rng.uniform(0.2, 1.0, size=(per_u, 1))
            rows_u += [u] * per_u
            rows_z += list(radius * dirs * scales)
    return np.array(rows_u).reshape(len(rows_u), -1), np.array(rows_z).reshape(len(rows_z), r)


class SaturationChart:
    """Sampled parametrization Phi(u, zeta) = exp(e(u, zeta)) of P.

    Per sample (u, zeta): the point Phi, its differential dPhi and the
    gauge form eta = -e*(averaged flow form), all from one flow.  radius
    and seed are the ones the grid was drawn with, and so fix the landing
    probes (_landing_probes); landing holds their parameters, end points
    and exit flags when they rode the grid's flow, else None.
    """

    def __init__(self, comp, steps, us, zetas, points, jacs, etas, radius_used, radius, seed,
                 landing=None):
        self.bv = comp.bv
        self.chart = comp.chart
        self.comp = comp
        self.steps = steps
        self.radius = radius
        self.seed = seed
        self.landing = landing
        self.us = us
        self.zetas = zetas
        self.points = points
        self.jacs = jacs  # (m, n, k+r)
        self.etas = etas  # (m, k+r, k+r)
        self.radius_used = radius_used

    @property
    def model_dim(self):
        return self.chart.param_dim + self.comp.rank_perp

    def map_and_jac(self, us, zetas):
        """Phi and dPhi at every (u, zeta) row, in one flow."""
        _, res, dphi, _ = _bundle_flow(self.comp, us, zetas, self.steps)
        _require_inside(res.exited)
        return res.x, dphi

    def project(self, ys, inits, max_iter=50, tol=1e-10):
        """Nearest-point parameters on the chart image, Gauss-Newton.

        All probes iterate in lockstep, each with its own best point and
        stop, so every probe takes the steps it would take alone; only
        the probes still iterating are flowed.  Returns the best
        parameters and distances, one row per probe.
        """
        p = np.array(inits, dtype=float)
        k = self.chart.param_dim
        best_p = p.copy()
        best_d = np.full(len(p), np.inf)
        active = np.ones(len(p), dtype=bool)
        for _ in range(max_iter):
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            vals, jacs = self.map_and_jac(p[rows, :k], p[rows, k:])
            for i, val, jac in zip(rows, vals, jacs):
                resid = ys[i] - val
                dist = np.linalg.norm(resid)
                if dist < best_d[i]:
                    best_d[i], best_p[i] = dist, p[i]
                if dist <= tol:
                    active[i] = False
                    continue
                step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
                if np.linalg.norm(step) > 1.0:
                    step *= 1.0 / np.linalg.norm(step)
                p[i] = p[i] + step
        return best_p, best_d

    def complement_frame(self, u):
        """Frame spanning a complement of TP along the zero section."""
        return self.comp._aligned("tube", _tube_basis(self.comp.at(u)))


def saturation_chart(comp, steps=1024, u_counts=5, radius=0.2, per_u=3, seed=0, landing=False):
    """Sample the saturation chart over a (u, zeta) grid in one jac + omega flow.

    The fiber radius is halved (down to a floor) until no grid trajectory
    leaves the domain box; the radius actually used is recorded.  With
    landing, full_fiber_landing's probes ride every radius's flow after the
    grid rows, and the last one's are kept as sat.landing; if that merged
    flow raises anything, the grid flows alone and the probes are left to
    full_fiber_landing, so every error keeps its stage, message and order.
    Immersion rank and the zero-section tangent identity
    TP = span[dX, sharp(J)] are checked at every sample, in stacked steps:
    the ranks of dPhi come from one rank_svd_many call, whose orths also
    serve the principal angles against the expected frames [dX | PI J] of
    the zero rows (a second rank_svd_many call).  The first failing sample
    in read order raises, its rank defect before its tangent mismatch.
    """
    probes = None
    if landing:
        try:
            probes = _landing_probes(comp, radius, seed)
            sampled = _sampled_grid(comp, steps, u_counts, radius, per_u, seed, probes[1:])
        except Exception:  # the grid alone, then the probes' own flow, raise in order
            probes = None
    if probes is None:
        sampled = _sampled_grid(comp, steps, u_counts, radius, per_u, seed)
    radius_used, us, zetas, frames, res, jacs, etas = sampled
    m = len(us)
    sat = SaturationChart(comp, steps, us, zetas, res.x[:m], jacs, etas, radius_used, radius,
                          seed, None if probes is None else (probes[0], res.x[m:], res.exited[m:]))
    decided = rank_svd_many(jacs)
    defect = next((i for i, r in enumerate(decided) if r[0] != sat.model_dim), len(us))
    # the samples before the first rank defect whose zeta passes np.allclose(zeta, 0.0)
    zero = np.flatnonzero(np.all(np.abs(zetas[:defect]) <= 1e-8, axis=1)).tolist()
    expected = [np.hstack([frames[i].dx, frames[i].p @ frames[i].j]) for i in zero]
    equal = spans_equal([jacs[i] for i in zero], [decided[i] for i in zero],
                        expected, rank_svd_many(expected), tol=1e-6)
    for i, ok in zip(zero, equal):
        if not ok:
            raise RankDeficient(f"zero-section tangent mismatch at u = {tuple(us[i].tolist())}")
    if defect < len(us):
        raise RankDeficient(f"chart rank defect at u = {tuple(us[defect].tolist())}, "
                            f"zeta = {tuple(zetas[defect].tolist())}")
    return sat


def _sampled_grid(comp, steps, u_counts, radius, per_u, seed, extra=None):
    """saturation_chart's halving loop: (radius_used, us, zetas, frames,
    res, jacs, etas) of the first radius whose grid rows stay in the box;
    the extra rows ride every radius's flow, and their exits halve
    nothing."""
    for radius_used in _halvings(radius):
        us, zetas = _sigma_grid(comp, u_counts, radius_used, per_u, seed)
        frames, res, jacs, etas = _bundle_flow(comp, us, zetas, steps, with_omega=True,
                                               extra=extra)
        if not res.exited[:len(us)].any():
            return radius_used, us, zetas, frames, res, jacs, etas
    raise ValueError("flow leaves the domain box even at the radius floor")


def _landing_probes(comp, radius, seed):
    """The 10 landing probes of a chart sampled at radius and seed, as
    (parameters, base points, covectors): the covectors have norm
    min(0.05, radius), and both draws are seeded from seed + 1."""
    chart, radius, seed = comp.chart, min(0.05, radius), seed + 1
    rng = np.random.default_rng(seed)
    us = chart.sample(10, seed=seed + 1)
    covs = [a * (radius / np.linalg.norm(a)) for a in rng.normal(size=(len(us), comp.bv.dim))]
    try:
        xs = chart.points(us)
    except EvalError:
        for u in us:  # the first failing row raises, as it does alone
            chart.point_at(u)
        raise
    return us, xs, np.array(covs)


def full_fiber_landing(sat: SaturationChart):
    """Distance from exp of the 10 landing probes to the chart image.

    The probes' end points come from sat.landing when they rode the
    chart's grid flow; otherwise all probes flow here, in one batch.  They
    are projected together.  Probes whose flow leaves the domain box are
    skipped; the largest distance of the checked probes comes back with
    both counts.
    """
    if sat.landing is None:
        us, xs, covs = _landing_probes(sat.comp, sat.radius, sat.seed)
        res = flow(sat.bv, xs, covs, steps=sat.steps)
        ends, exited = res.x, res.exited
    else:
        us, ends, exited = sat.landing
    kept = np.flatnonzero(~exited)
    inits = np.hstack([us[kept], np.zeros((kept.size, sat.comp.rank_perp))])
    _, dists = sat.project(ends[kept], inits)
    worst = worst_of(dists)
    return {"max_distance": worst, "checked": int(kept.size),
            "skipped": int(len(us) - kept.size)}


def saturation_residuals(sat: SaturationChart):
    """Per-sample residual of sharp(TP0) inside TP."""
    qs = orth_many(sat.jacs)
    images = [p @ conormal for p, conormal in
              zip(sat.bv.matrix(sat.points), null_many([q.T for q in qs]))]
    return np.array([np.abs(image - q @ (q.T @ image)).max(initial=0.0)
                     for q, image in zip(qs, images)])


def verify_normal_form(sat: SaturationChart, eta_source="flow"):
    """Pushforward test of the local model against the ambient bivector.

    At every sample of the saturation chart the model bivector is pushed
    through dPhi and compared with the ambient bivector at the image
    point, both compressed to the orthonormalized chart frame.
    """
    etas = sat.etas
    if eta_source != "flow":
        etas = np.array([eta_canonical_form_source(sat.comp, u, z)
                         for u, z in zip(sat.us, sat.zetas)])
    models = raise_first(_models_from_etas(_lifts(sat.comp, sat.us), etas))
    worst = worst_of(_pushforward_mismatches(sat.jacs, models, sat.bv.matrix(sat.points)))
    return {"max_mismatch": worst, "radius_used": sat.radius_used, "samples": len(sat.us),
            "steps": sat.steps}


def tubular_map(sat: SaturationChart, u, zeta, c):
    """Extension Psi(u, zeta, c) = Phi(u, zeta) + F(u) c of the saturation
    chart by the tube frame F, and its differential."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    frame = sat.complement_frame(u)
    vals, jacs = sat.map_and_jac([u], [zeta])
    c = np.asarray(c, dtype=float).reshape(frame.shape[1])
    return vals[0] + frame @ c, _tube_differential(sat, u, jacs[0], c)


def _tube_differential(sat, u, dphi, c):
    """dPsi = [dPhi + (dF/du) c on the u columns | F] at (u, zeta, c)."""
    tubes = np.array([sat.complement_frame(y) for y in [u, *_stencil(u, _FD_H)]])
    dpsi = np.hstack([dphi, tubes[0]])
    dpsi[:, :len(u)] += _central_diff(tubes[1:], _FD_H, c)
    return dpsi


def tubular_rank_check(sat: SaturationChart, count=50, radius=0.1, seed=2):
    """Invertibility of the tubular map differential at random states."""
    rng = np.random.default_rng(seed)
    us = sat.chart.sample(count, seed=seed)
    n = sat.bv.dim
    r = sat.comp.rank_perp
    e_dim = n - sat.model_dim
    zetas, cs = [], []
    for _ in us:
        zeta = rng.normal(size=r)
        if r:
            zeta *= radius * rng.uniform(0, 1) / max(np.linalg.norm(zeta), 1e-12)
        zetas.append(zeta)
        cs.append(rng.uniform(-radius, radius, e_dim))
    _, jacs = sat.map_and_jac(us, np.array(zetas).reshape(len(us), r))
    tubes = rank_svd_many([_tube_differential(sat, u, jac, c) for u, jac, c in zip(us, jacs, cs)])
    for u, (rank, _, _) in zip(us, tubes):
        if rank != n:
            return {"ok": False, "witness": tuple(float(x) for x in u)}
    return {"ok": True, "samples": int(count)}


def marle_invariants(comp, us):
    """Determining data of a pre-Poisson chart at the given parameters.

    Per sample: the pulled back Dirac space, the induced skew form on
    the quotient of the fiber by the cap directions (the trailing block
    of sigma in the [cap | H]-ordered frame), and the residual of the
    cap rows of sigma, which vanish in the constructed frame.
    """
    if comp.mode != "pre_poisson":
        raise ValueError("invariants require a pre_poisson complement")
    out = []
    for u in np.atleast_2d(np.asarray(us, dtype=float)):
        fr = comp.at(u)
        c = fr.cap_dim
        sigma, _ = sigma_tau(comp, u)
        cross = float(np.abs(sigma[:c, :]).max()) if c else 0.0
        dirac = pullback_dirac(fr)
        out.append({
            "u": tuple(float(v) for v in np.atleast_1d(u)),
            "dirac": dirac,
            "quotient": sigma[c:, c:],
            "cross_residual": cross,
        })
    return out


def compare_complements(comp_a, comp_b, steps=1024, count=20, radius=0.1, seed=3):
    """Model independence: two complements agree through the saturation.

    Samples bundle points of the first complement, locates the same
    ambient points in the second chart by projection, and compares the
    two pushforward bivectors compressed to the shared tangent frame.
    Samples whose model does not extract (NotPoisson) are skipped and
    counted.  Each side flows all its samples in one batch.  Both
    complements must be built on one structure and one chart.
    """
    if comp_a.bv is not comp_b.bv or comp_a.chart is not comp_b.chart:
        raise ValueError("complements are built on different structures or charts")
    chart = comp_a.chart
    sat_a = saturation_chart(comp_a, steps=steps, u_counts=3, radius=radius, per_u=1, seed=seed)
    sat_b = saturation_chart(comp_b, steps=steps, u_counts=3, radius=radius, per_u=1,
                             seed=seed + 1)
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed + 2)
    k, r = chart.param_dim, comp_a.rank_perp
    zetas = []
    for _ in us:
        zeta = rng.normal(size=r)
        if r:
            zeta *= min(radius, sat_a.radius_used) * rng.uniform(0.1, 1.0) / max(
                np.linalg.norm(zeta), 1e-12)
        zetas.append(zeta)
    _, res_a, jas, etas = _bundle_flow(comp_a, us, zetas, steps, with_omega=True)
    _require_inside(res_a.exited)
    models_a = raise_first(_models_from_etas(_lifts(comp_a, us), etas), keep=NotPoisson)
    kept = [i for i, p in enumerate(models_a) if not isinstance(p, NotPoisson)]
    worst_mismatch, dists = 0.0, []
    if kept:
        inits = np.hstack([us[kept], np.zeros((len(kept), comp_b.rank_perp))])
        params, dists = sat_b.project(res_a.x[kept], inits)
        _, res_b, jbs, etas_b = _bundle_flow(comp_b, params[:, :k], params[:, k:], steps,
                                             with_omega=True)
        _require_inside(res_b.exited)
        pbs = raise_first(_models_from_etas(_lifts(comp_b, params[:, :k]), etas_b))
        worst_mismatch = worst_of(_pushforward_mismatches(
            jas[kept], [models_a[i] for i in kept], [jb @ pb @ jb.T for jb, pb in zip(jbs, pbs)]))
    return {"max_mismatch": worst_mismatch, "max_projection_distance": worst_of(dists),
            "checked": len(kept), "skipped": len(us) - len(kept)}


class GotayModel(FrameAligner):
    """Coisotropic-embedding model of a Dirac chart.

    Given Dirac data L on R^k with constant-rank tangent kernel K (l_source
    maps an (m, k) stack of points to their m Dirac spaces, each a checked
    (2k, k) basis, a failed row holding its error as a stacked Dirac step's
    outcomes do), the ambient space is the bundle chart R^k x R^m of K-dual
    fibers; the bivector is extracted from the canonical-form gauge of the
    lifted structure.  Frames are aligned to those at the origin for
    smoothness, every kernel and complement frame of a batch in one stacked
    alignment, and the fiber inclusion is the solve ComplementChoice uses.
    Every bivector comes from one batch path, _bivectors, which computes L
    and the fiber inclusion once per distinct point that one call's gauge
    stencils read.
    """

    def __init__(self, dim, l_source):
        self.dim = k = int(dim)
        self._l_at = l_source
        self._refs = {}
        self._vertical = orth(np.vstack([np.eye(k), np.zeros((k, k))]))
        [l0] = raise_first(self._l_at(np.zeros((1, k))))
        self.fiber_dim = None
        self.fiber_dim = self._kernels([l0])[0].shape[1]
        self._inclusions([l0])  # sets the "g" reference
        self._dpr = np.hstack([np.eye(k), np.zeros((k, self.fiber_dim))])

    def _kernels(self, ls):
        """Aligned frame of the tangent kernel of every Dirac space in ls, in
        one stacked alignment; the first failing row raises its first error."""
        k = self.dim
        qls = orth_many(ls)
        caps = intersect_orth_many(qls, [self._vertical] * len(qls))
        return raise_first(self._aligned_many("k", [
            RankDeficient("tangent kernel rank is not constant")
            if self.fiber_dim is not None and cap.shape[1] != self.fiber_dim else cap[:k]
            for cap in caps]))

    def _inclusions(self, ls):
        """Fiber inclusion of every Dirac space in ls, in stacked steps, the
        solve shared with ComplementChoice; a failure is raised by the first
        failing row of the step that finds it."""
        kerns = self._kernels(ls)
        gs = raise_first(self._aligned_many("g", null_many([kern.T for kern in kerns])))
        return raise_first(_solve_inclusions(np.array(kerns), np.array(gs),
                                             "G is not a complement of the kernel"))

    def _bivectors(self, qs):
        """Model bivector at every row (x, c) of qs, and L at every x.

        Each row's x and its gauge stencil are listed once, and the distinct
        points among them on their bits, in read order; L comes from one
        l_source call.  Then every step runs once per distinct input (see
        on_distinct), as one stacked step: the inclusions once per distinct
        L, the lifts of L along the bundle projection once per distinct L,
        and the gauges and extractions once per distinct (lift, eta), so
        every row is bitwise what it is alone.  A failure of L or of the
        inclusions is that of the first failing row of its step; after them
        each row keeps the first error of its chain, and the first failing
        row raises.
        """
        k = self.dim
        qs = np.asarray(qs, dtype=float)
        reads = [[x, *_stencil(x, _FD_H)] for x in qs[:, :k]]
        points = {y.tobytes(): y for row in reads for y in row}
        ls = dict(zip(points, raise_first(self._l_at(np.array(list(points.values()))))))
        incls = dict(zip(ls, on_distinct(self._inclusions, list(ls.values()))))
        etas = []
        for q, row in zip(qs, reads):
            vals = np.array([incls[y.tobytes()] for y in row])
            etas.append(_canonical_form_gauge(vals[0], vals[1:], q[k:], _FD_H))
        keys = [q[:k].tobytes() for q in qs]
        xs = list(dict.fromkeys(keys))
        lifts = dict(zip(xs, on_distinct(dirac_pullback_many, [ls[x] for x in xs],
                                         [self._dpr] * len(xs))))
        out = raise_first(on_distinct(_models_from_etas, [lifts[key] for key in keys],
                                      np.array(etas)))
        return out, [ls[key] for key in keys]

    def bivector_at(self, x, c):
        """Model bivector at (x, c): the one-row case of _bivectors."""
        q = np.concatenate([np.reshape(x, self.dim), np.reshape(c, self.fiber_dim)])
        return self._bivectors(q[None])[0][0]

    def verify(self, samples=20, radius=0.1, seed=4):
        """Coisotropy of the zero section, reproduction of L, Jacobi.

        One _bivectors call takes the rows of every sample x: (x, 0), (x, c)
        and the _FD_H-stencil of (x, c), whose bivectors give the Jacobi
        gradients; a failure of its stacked step comes before any extraction.
        The zero-section bivectors are graphed in one stacked step, once per
        distinct bivector; the pullbacks that reproduce L along the zero
        section are one stacked step, and so are their principal angles
        against L.  The Jacobi tensors of every sample are one jacobi_tensor
        call.  At least one sample is required: none would measure nothing.
        """
        if samples < 1:
            raise ValueError(f"verify needs samples >= 1, got {samples}")
        k, m = self.dim, self.fiber_dim
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-radius, radius, size=(samples, k))
        points = [np.concatenate([x, rng.uniform(-radius, radius, m)]) for x in xs]
        rows = [[np.concatenate([x, np.zeros(m)]), q, *_stencil(q, _FD_H)]
                for x, q in zip(xs, points)]
        span = 2 * (k + m) + 2
        ps, ls = self._bivectors(np.reshape(rows, (-1, k + m)))
        incl = np.vstack([np.eye(k), np.zeros((m, k))])
        conormal = np.vstack([np.zeros((k, m)), np.eye(m)])
        backs = raise_first(dirac_pullback_many(
            dirac_graph_many(np.array(ps[::span]), "bivector"), [incl] * samples))
        angs = principal_angles_many(backs, ls[::span])
        by_sample = np.reshape(ps, (samples, span, k + m, k + m))
        # grads[s, i, j, l] = d_l P^ij at sample s: the matrix_jac layout
        grads = _central_diff(np.moveaxis(by_sample[:, 2:], 1, -1).T, _FD_H).T
        with np.errstate(all="ignore"):
            cyclic = np.abs(jacobi_tensor(by_sample[:, 1], grads)).max(axis=(1, 2, 3))
        images = (p @ conormal for p in by_sample[:, 0])
        coiso = worst_of(float(np.abs(image - incl @ (incl.T @ image)).max(initial=0.0))
                         for image in images)
        angles = worst_of(float(ang.max(initial=0.0)) for ang in angs)
        return {"coisotropy": coiso, "reproduction_angle": angles,
                "jacobi_fd": worst_of(cyclic.tolist())}


def fiberwise_reflection_residual(l_base, a_block, b_block):
    """Residual of the fiberwise -1 gauge identity at one instance, for the
    (2k, k) Dirac basis l_base on R^k.

    Gauge forms of the canonical-form shape [[A, B], [-B^T, 0]] with the
    base block A odd in the fiber coordinate satisfy: pulling the gauged
    lift back under m = diag(I, -I) (which fixes the lift itself, since
    the bundle projection absorbs m) lands on the lift gauged by the
    negated form.  Returns the largest principal angle between the two
    spaces, zero to machine precision.
    """
    k = len(l_base) // 2
    a = np.asarray(a_block, dtype=float)
    b = np.atleast_2d(np.asarray(b_block, dtype=float))
    r = b.shape[1]
    eta_here = _gauge_blocks(a, b)
    eta_mirror = _gauge_blocks(-a, b)
    m = np.diag(np.concatenate([np.ones(k), -np.ones(r)]))
    dpr = np.hstack([np.eye(k), np.zeros((k, r))])
    lifted = dirac_pullback(l_base, dpr)
    left = dirac_pullback(dirac_gauge(lifted, eta_mirror), m)
    right = dirac_gauge(lifted, -eta_here)
    ang = principal_angles(left, right)
    fixed = principal_angles(dirac_pullback(lifted, m), lifted)
    return float(worst_of([ang.max(initial=0.0), fixed.max(initial=0.0)]))
