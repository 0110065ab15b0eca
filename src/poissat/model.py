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
J(u) are meaningful.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .field import BivectorField
from .linear import (
    DiracSpace,
    NotPoisson,
    RankDeficient,
    SkewForm,
    align_frame,
    dirac_gauge,
    dirac_graph,
    dirac_pullback,
    dirac_to_bivector,
    fix_signs,
    lagrangian_complement,
    null,
    orth,
    principal_angles,
    rank_svd,
    subspace_equal,
    subspace_intersect,
)
from .sprayflow import flow
from .submanifold import Chart, point_data, pullback_dirac

RADIUS_FLOOR = 1e-3


class ComplementFrame:
    """Pointwise output of a ComplementChoice."""

    def __init__(self, u, x, dx, tx, txperp, w, j, cap_dim=0, conditions=None):
        self.u = u
        self.x = x
        self.dx = dx
        self.tx = tx
        self.txperp = txperp  # (n, r) frame, [cap | H]-ordered in pre_poisson mode
        self.w = w  # (n, n-r)
        self.j = j  # (n, r), image is W0, pairs with txperp as identity
        self.cap_dim = cap_dim
        self.conditions = conditions or {}

    @property
    def rank_perp(self):
        return self.txperp.shape[1]


def _solve_inclusion(txperp, w):
    n, r = txperp.shape
    stack = np.hstack([txperp, w])
    if rank_svd(stack)[0] != n:
        raise RankDeficient("complement does not span with TXperp")
    rhs = np.vstack([np.eye(r), np.zeros((n - r, r))])
    return np.linalg.solve(stack.T, rhs)


def _span_in(big, small_perp):
    """Basis of span(big) cap orthocomplement(small_perp)."""
    if big.shape[1] == 0:
        return big
    if small_perp.shape[1] == 0:
        return big
    coeff = null(small_perp.T @ big)
    return big @ coeff if coeff.shape[1] else np.zeros((big.shape[0], 0))


class FrameAligner:
    """Aligns every basis stored under a key to the first (sign-fixed) one."""

    def _aligned(self, key, basis):
        ref = self._refs.get(key)
        if ref is None:
            basis = fix_signs(basis)
            self._refs[key] = basis
            return basis
        return align_frame(basis, ref)


class ComplementChoice(FrameAligner):
    """Smooth complement W of TXperp along a regular chart.

    Modes:
      default      Euclidean orthocomplement of TXperp.
      coisotropic  the four-step splitting for coisotropic X: builds the
                   symplectic bundle on sharp(G0), takes a Lagrangian
                   complement V of TXperp there, and returns V + G + H;
                   satisfies sharp(W0) inside W and W cap TX = G.
      pre_poisson  the generalization over sharp((G+H)0) with the cap
                   TXperp cap TX as the Lagrangian; returns G + C + Y
                   with sharp((H+W)0) inside W and W cap TX = G.
      custom       user-supplied W (matrix or callable of u).

    G and H default to Euclidean complements inside TX and TXperp; all
    frames are aligned to the anchor u0 so they vary smoothly.
    """

    def __init__(self, bv: BivectorField, chart: Chart, mode="default", u0=None, g=None, h=None, w=None):
        self.bv = bv
        self.chart = chart
        self.mode = mode
        self.u0 = chart.center() if u0 is None else np.atleast_1d(np.asarray(u0, dtype=float))
        self._g_user = None if g is None else np.atleast_2d(np.asarray(g, dtype=float))
        self._h_user = None if h is None else np.atleast_2d(np.asarray(h, dtype=float))
        self._w_user = w
        self._refs = {}
        anchor = self.at(self.u0)
        self.rank_perp = anchor.rank_perp
        self.cap_dim = anchor.cap_dim
        self.corank = point_data(bv, chart, self.u0).corank

    def at(self, u) -> ComplementFrame:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        pd = point_data(self.bv, self.chart, u)
        n = self.bv.dim
        txperp = self._aligned("perp", pd.txperp)
        if self.mode == "default":
            w = self._aligned("w", null(txperp.T) if txperp.shape[1] else np.eye(n))
            frame = ComplementFrame(u, pd.x, self.chart.jac_at(u), pd.tx, txperp, w,
                                    _solve_inclusion(txperp, w))
        elif self.mode == "custom":
            w = self._w_user(u) if callable(self._w_user) else np.asarray(self._w_user, dtype=float)
            frame = ComplementFrame(u, pd.x, self.chart.jac_at(u), pd.tx, txperp, w,
                                    _solve_inclusion(txperp, w))
        elif self.mode == "coisotropic":
            frame = self._coisotropic_frame(u, pd, txperp)
        elif self.mode == "pre_poisson":
            frame = self._pre_poisson_frame(u, pd)
        else:
            raise ValueError(f"unknown complement mode {self.mode!r}")
        if frame.j.size and np.abs(frame.w.T @ frame.j).max() > 1e-10:
            raise RankDeficient("inclusion does not annihilate the complement")
        return frame

    def _lagrangian(self, key, s, omega, lag):
        """Lagrangian complement of span(lag) in span(s), aligned to the first one."""
        if not lag.shape[1]:
            return np.zeros((s.shape[0], 0))
        ref = s.T @ self._refs[key] if key in self._refs else None
        out = lagrangian_complement(s, omega, lag, ref=ref)
        self._refs.setdefault(key, out)
        return out

    def _symplectic_on_image(self, p, ann):
        """Orthobasis of sharp(span(ann)) with the induced symplectic matrix."""
        image = p @ ann
        rank, s, _ = rank_svd(image, scale=np.linalg.norm(p, 2))
        if rank == 0:
            return s, np.zeros((0, 0))
        s = self._aligned("s", s)
        pre, *_ = np.linalg.lstsq(image, s, rcond=None)
        alpha = ann @ pre
        if np.abs(p @ alpha - s).max() > 1e-9:
            raise RankDeficient("no preimages for the symplectic bundle basis")
        return s, alpha.T @ p.T @ alpha

    def _coisotropic_frame(self, u, pd, txperp):
        n, k = self.bv.dim, self.chart.param_dim
        r = txperp.shape[1]
        tx = pd.tx
        if rank_svd(np.hstack([tx, txperp]))[0] != k:
            raise RankDeficient(f"chart is not coisotropic at u = {tuple(u)}")
        p = self.bv.matrix_at(pd.x)
        g = self._g_user if self._g_user is not None else self._aligned("g", _span_in(tx, txperp))
        if subspace_intersect(g, txperp).shape[1] or rank_svd(np.hstack([g, txperp]))[0] != k:
            raise RankDeficient("G is not a complement of TXperp in TX")
        ann_g = null(g.T) if g.shape[1] else np.eye(n)
        s, omega = self._symplectic_on_image(p, ann_g)
        if s.shape[1] != 2 * r:
            raise RankDeficient("sharp(G0) has unexpected rank")
        v = self._lagrangian("v", s, omega, txperp)
        h = self._aligned("h", null(np.hstack([txperp, v, g]).T)
                          if n - 2 * r - g.shape[1] else np.zeros((n, 0)))
        w = np.hstack([v, g, h])
        j = _solve_inclusion(txperp, w)
        conditions = {
            "sharp_w0_in_w": _sharp_into(p, w),
            "w_cap_tx_is_g": bool(subspace_equal(subspace_intersect(w, tx), g, tol=1e-8)),
        }
        return ComplementFrame(u, pd.x, self.chart.jac_at(u), tx, txperp, w, j, 0, conditions)

    def _pre_poisson_frame(self, u, pd):
        n, k = self.bv.dim, self.chart.param_dim
        tx = pd.tx
        cap = self._aligned("cap", subspace_intersect(pd.txperp, tx))
        c_dim = cap.shape[1]
        p = self.bv.matrix_at(pd.x)
        g = self._g_user if self._g_user is not None else self._aligned("g", _span_in(tx, cap))
        h = self._h_user if self._h_user is not None else self._aligned("h", _span_in(pd.txperp, cap))
        if rank_svd(np.hstack([cap, g]))[0] != k or subspace_intersect(cap, g).shape[1]:
            raise RankDeficient("G is not a complement of the cap in TX")
        if rank_svd(np.hstack([cap, h]))[0] != pd.rank_perp:
            raise RankDeficient("H is not a complement of the cap in TXperp")
        gh = np.hstack([g, h])
        ann = null(gh.T) if gh.shape[1] else np.eye(n)
        s, omega = self._symplectic_on_image(p, ann)
        if s.shape[1] != 2 * c_dim:
            raise RankDeficient("sharp((G+H)0) has unexpected rank")
        c_lag = self._lagrangian("c", s, omega, cap)
        used = np.hstack([cap, h, g, c_lag])
        if rank_svd(used)[0] != used.shape[1]:
            raise RankDeficient("splitting pieces are not independent")
        y = self._aligned("y", null(used.T) if n - used.shape[1] else np.zeros((n, 0)))
        w = np.hstack([g, c_lag, y])
        txperp = np.hstack([cap, h])  # ordered frame: cap block first
        j = _solve_inclusion(txperp, w)
        conditions = {
            "sharp_hw0_in_w": _sharp_into(p, w, extra=h),
            "w_cap_tx_is_g": bool(subspace_equal(subspace_intersect(w, tx), g, tol=1e-8)),
        }
        return ComplementFrame(u, pd.x, self.chart.jac_at(u), tx, txperp, w, j, c_dim, conditions)


def _sharp_into(p, w, extra=None):
    """Residual of sharp((extra + w)^0) inside span(w)."""
    span = w if extra is None else np.hstack([extra, w])
    ann = null(span.T) if span.shape[1] else np.eye(p.shape[0])
    if ann.shape[1] == 0:
        return 0.0
    q = orth(w)
    image = p @ ann
    resid = image - q @ (q.T @ image)
    return float(np.abs(resid).max())


def sigma_tau(bv: BivectorField, chart: Chart, comp: ComplementChoice, u):
    """Fiber form sigma and pairing tau of the complement at u.

    sigma(z1, z2) = pi(j z1, j z2) on fiber covectors; tau pairs chart
    velocities with included covectors, tau[a, p] = <dX e_a, J e_p>.
    """
    fr = comp.at(u)
    p = bv.matrix_at(fr.x)
    sigma = SkewForm(fr.j.T @ p.T @ fr.j)
    tau = fr.dx.T @ fr.j
    return sigma, tau


def _bundle_embedding(comp: ComplementChoice, u, zeta, fd_h=1e-5):
    """State e(u, zeta) = (X(u), J(u) zeta) and its differential."""
    fr = comp.at(u)
    (n, k), r = fr.dx.shape, fr.rank_perp
    zeta = np.asarray(zeta, dtype=float).reshape(r)
    de = np.zeros((2 * n, k + r))
    de[:n, :k] = fr.dx
    de[n:, k:] = fr.j
    de[n:, :k] = _central_diff(lambda uu: comp.at(uu).j, fr.u, zeta, n, fd_h)
    return fr, fr.x, fr.j @ zeta, de


def _central_diff(f, u, vec, rows, h):
    """(rows, len(u)) matrix whose column a is d/du_a (f(u) @ vec), central differences."""
    out = np.zeros((rows, len(u)))
    for a in range(len(u)):
        du = np.zeros(len(u))
        du[a] = h
        out[:, a] = (f(u + du) - f(u - du)) @ vec / (2 * h)
    return out


def _bundle_flow(bv, comp, us, zetas, steps, with_jac=False, with_omega=False):
    """Embed every (u, zeta) row and flow all of them in one batch.

    Returns the per-row embeddings of _bundle_embedding and the
    FlowResult; batched rows are bitwise those of single-row flows.
    """
    frames = [_bundle_embedding(comp, u, z) for u, z in zip(us, zetas)]
    res = flow(bv, np.stack([f[1] for f in frames]), np.stack([f[2] for f in frames]),
               steps=steps, with_jac=with_jac, with_omega=with_omega)
    return frames, res


def _phi_jacs(bv, frames, res):
    """dPhi = d(exp)_base . de at every flowed row."""
    return np.stack([res.jac[i][:bv.dim, :] @ f[3] for i, f in enumerate(frames)])


def _eta_of(frame, omega):
    return -frame[3].T @ omega @ frame[3]


def _require_inside(res):
    if res.exited.any():
        raise ValueError("state flows out of the domain box")


def eta_forms(bv, comp, us, zetas, steps=1024):
    """eta = -e*(averaged flow form) at every (u, zeta) row, in one flow."""
    frames, res = _bundle_flow(bv, comp, us, zetas, steps, with_omega=True)
    _require_inside(res)
    return np.stack([_eta_of(f, res.omega[i]) for i, f in enumerate(frames)])


def eta_canonical(bv, chart, comp, u, zeta, steps=1024):
    """Gauge form eta(u, zeta) = -e*(averaged flow form) on the bundle."""
    return eta_forms(bv, comp, [u], [zeta], steps)[0]


def eta_zero_section(bv, chart, comp, u):
    """Closed-form value of eta at zeta = 0: the -sigma/-tau block form."""
    sigma, tau = sigma_tau(bv, chart, comp, u)
    k, r = tau.shape
    out = np.zeros((k + r, k + r))
    out[:k, k:] = -tau
    out[k:, :k] = tau.T
    out[k:, k:] = -sigma.matrix
    return out


def eta_canonical_form_source(bv, chart, comp, u, zeta, fd_h=1e-5):
    """Gauge form from the canonical form of T*X (coisotropic route).

    Restricting fiber covectors to TX embeds the bundle into T*X; in
    chart coordinates the restriction of J(u) is exactly tau(u), so the
    pullback of the canonical form is tau plus a base curvature term.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(comp.rank_perp)

    def tau_at(uu):
        f = comp.at(uu)
        return f.dx.T @ f.j

    return _canonical_form_gauge(tau_at, np.atleast_1d(np.asarray(u, dtype=float)), zeta, fd_h)


def _canonical_form_gauge(f, u, vec, h):
    """Canonical-form gauge [[D - D^T, B], [-B^T, 0]], B = f(u), D = d/du (f(u) @ vec)."""
    b = f(u)
    d = _central_diff(f, u, vec, len(b), h)
    return _gauge_blocks(d - d.T, b)


def _gauge_blocks(a, b):
    """[[A, B], [-B^T, 0]], the block shape of canonical-form gauges."""
    k, m = b.shape
    out = np.zeros((k + m, k + m))
    out[:k, :k] = a
    out[:k, k:] = b
    out[k:, :k] = -b.T
    return out


def _fd_gradient(f, point, h):
    """Central-difference gradient, grads[a] = d/dp_a f at point; f maps the
    (2d, d) stack of probe points to their stacked values in one call."""
    offsets = h * np.eye(len(point))
    vals = f(np.vstack([point + offsets, point - offsets]))
    return (vals[:len(point)] - vals[len(point):]) / (2 * h)


def eta_closedness_residual(bv, chart, comp, u, zeta, steps=256, h=1e-4):
    """Max finite-difference exterior-derivative component of eta."""
    k = chart.param_dim
    zeta = np.asarray(zeta, dtype=float).reshape(comp.rank_perp)
    point = np.concatenate([np.atleast_1d(u), zeta])
    grads = _fd_gradient(lambda ps: eta_forms(bv, comp, ps[:, :k], ps[:, k:], steps=steps),
                         point, h)
    return max([0.0, *(abs(grads[a][b, c] + grads[b][c, a] + grads[c][a, b])
                       for a, b, c in combinations(range(len(point)), 3))])


def local_model_bivector(bv, chart, comp, u, zeta, steps=1024, eta_source="flow"):
    """Bivector of the local model at a bundle point (u, zeta).

    Pulls the chart's Dirac structure up along the bundle projection,
    gauges by eta and extracts; NotPoisson propagates when the gauged
    space has no bivector presentation (expected far from zeta = 0).
    """
    if eta_source == "flow":
        eta = eta_canonical(bv, chart, comp, u, zeta, steps=steps)
    elif eta_source == "canonical_form":
        eta = eta_canonical_form_source(bv, chart, comp, u, zeta)
    else:
        raise ValueError(f"unknown eta source {eta_source!r}")
    return SkewForm(_model_from_eta(bv, chart, comp, u, eta))


def _model_from_eta(bv, chart, comp, u, eta):
    """Model bivector matrix at u: pull back, lift, gauge by eta, extract."""
    k = chart.param_dim
    base = pullback_dirac(bv, chart, u, ref_corank=comp.corank)
    dpr = np.hstack([np.eye(k), np.zeros((k, comp.rank_perp))])
    return dirac_to_bivector(dirac_gauge(dirac_pullback(base, dpr), eta))


def _pushforward_mismatch(dphi, model, target):
    """Max entry of dphi model dphi^T - target, compressed to the frame of dphi."""
    q = orth(dphi)
    return float(np.abs(q.T @ (dphi @ model @ dphi.T - target) @ q).max())


def extraction_radius(bv, chart, comp, u, steps=256, start=0.5, count=6, seed=0):
    """Largest probed fiber radius where model extraction succeeds.

    Halves the radius until `count` seeded directions all extract, down
    to the radius floor; returns 0.0 if even the floor fails.  Each
    radius flows all directions in one batch.
    """
    r = comp.rank_perp
    if r == 0:
        return start
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, r))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = start
    while radius >= RADIUS_FLOOR:
        try:
            for eta in eta_forms(bv, comp, [u] * count, radius * dirs, steps=steps):
                _model_from_eta(bv, chart, comp, u, eta)
            return radius
        except (NotPoisson, ValueError):
            radius *= 0.5
    return 0.0


def _sigma_grid(chart, comp, u_counts, radius, per_u, seed, include_zero=True):
    us = chart.grid(u_counts)
    r = comp.rank_perp
    rng = np.random.default_rng(seed)
    rows_u, rows_z = [], []
    for u in us:
        if include_zero or r == 0:
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
    """Sampled parametrization Phi(u, zeta) = exp(e(u, zeta)) of P."""

    def __init__(self, bv, chart, comp, steps, us, zetas, points, jacs, radius_used):
        self.bv = bv
        self.chart = chart
        self.comp = comp
        self.steps = steps
        self.us = us
        self.zetas = zetas
        self.points = points
        self.jacs = jacs  # (m, n, k+r)
        self.radius_used = radius_used

    @property
    def model_dim(self):
        return self.chart.param_dim + self.comp.rank_perp

    def map_and_jac(self, us, zetas):
        """Phi and dPhi at every (u, zeta) row, in one flow."""
        frames, res = _bundle_flow(self.bv, self.comp, us, zetas, self.steps, with_jac=True)
        _require_inside(res)
        return res.x, _phi_jacs(self.bv, frames, res)

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
        fr = self.comp.at(u)
        p = self.bv.matrix_at(fr.x)
        span = np.hstack([fr.dx, p @ fr.j])
        return self.comp._aligned("_tube", null(span.T) if span.size else np.eye(self.bv.dim))


def _sampled_bundle_flow(bv, chart, comp, steps, u_counts, radius, per_u, seed,
                         with_omega=False):
    """Flow the sampled (u, zeta) grid with jac, halving the fiber radius
    (down to a floor) until no trajectory leaves the domain box.

    Returns us, zetas, frames, the FlowResult and the radius used.
    """
    radius_used = radius
    while True:
        us, zetas = _sigma_grid(chart, comp, u_counts, radius_used, per_u, seed)
        frames, res = _bundle_flow(bv, comp, us, zetas, steps, with_jac=True,
                                   with_omega=with_omega)
        if not res.exited.any():
            return us, zetas, frames, res, radius_used
        if radius_used * 0.5 < RADIUS_FLOOR:
            raise ValueError("flow leaves the domain box even at the radius floor")
        radius_used *= 0.5


def saturation_chart(bv, chart, comp, steps=1024, u_counts=5, radius=0.2, per_u=3, seed=0):
    """Sample the saturation chart over a (u, zeta) grid.

    The fiber radius is halved (down to a floor) until no trajectory
    leaves the domain box; the radius actually used is recorded.
    Immersion rank and the zero-section tangent identity
    TP = span[dX, sharp(J)] are checked at every sample.
    """
    us, zetas, frames, res, radius_used = _sampled_bundle_flow(
        bv, chart, comp, steps, u_counts, radius, per_u, seed)
    jacs = _phi_jacs(bv, frames, res)
    sat = SaturationChart(bv, chart, comp, steps, us, zetas, res.x, jacs, radius_used)
    dim = sat.model_dim
    for i, (u, z) in enumerate(zip(us, zetas)):
        if rank_svd(jacs[i])[0] != dim:
            raise RankDeficient(f"chart rank defect at u = {tuple(u)}, zeta = {tuple(z)}")
        if np.allclose(z, 0.0):
            fr = frames[i][0]
            expected = np.hstack([fr.dx, bv.matrix_at(fr.x) @ fr.j])
            if not subspace_equal(jacs[i], expected, tol=1e-6):
                raise RankDeficient(f"zero-section tangent mismatch at u = {tuple(u)}")
    return sat


def full_fiber_landing(sat: SaturationChart, count=10, radius=0.05, seed=1, tol=1e-4):
    """Check that exp of full-fiber covectors lands on the chart image.

    All probes flow in one batch and are projected together.  Probes
    whose flow leaves the domain box are skipped and counted; the check
    fails when no probe was checked at all.
    """
    bv, chart = sat.bv, sat.chart
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed + 1)
    covs = [a * (radius / np.linalg.norm(a)) for a in rng.normal(size=(len(us), bv.dim))]
    res = flow(bv, np.stack([chart.point_at(u) for u in us]), np.stack(covs), steps=sat.steps)
    kept = np.flatnonzero(~res.exited)
    inits = np.hstack([us[kept], np.zeros((kept.size, sat.comp.rank_perp))])
    _, dists = sat.project(res.x[kept], inits)
    worst = max([0.0, *dists])
    return {"max_distance": worst, "ok": kept.size > 0 and worst <= tol, "tol": tol,
            "checked": int(kept.size), "skipped": int(len(us) - kept.size)}


def saturation_residuals(bv, sat: SaturationChart):
    """Per-sample residual of sharp(TP0) inside TP."""
    out = np.zeros(len(sat.points))
    for i in range(len(sat.points)):
        q = orth(sat.jacs[i])
        conormal = null(q.T)
        if conormal.shape[1] == 0:
            continue
        image = bv.matrix_at(sat.points[i]) @ conormal
        out[i] = np.abs(image - q @ (q.T @ image)).max()
    return out


def verify_saturation_poisson(bv, sat: SaturationChart, tol=1e-8):
    """Residual of sharp(TP0) inside TP over the sampled chart."""
    res = saturation_residuals(bv, sat)
    worst = float(res.max()) if res.size else 0.0
    return {"max_residual": worst, "ok": worst <= tol, "tol": tol}


def verify_normal_form(bv, chart, comp, steps=1024, u_counts=5, radius=0.2, per_u=3,
                       seed=0, tol=1e-4, eta_source="flow"):
    """Pushforward test of the local model against the ambient bivector.

    At every sampled bundle point the model bivector is pushed through
    the chart differential and compared with the ambient bivector at the
    image point, both compressed to the orthonormalized chart frame.
    """
    us, zetas, frames, res, radius_used = _sampled_bundle_flow(
        bv, chart, comp, steps, u_counts, radius, per_u, seed, with_omega=True)
    dphis = _phi_jacs(bv, frames, res)
    worst = 0.0
    for i, (u, z) in enumerate(zip(us, zetas)):
        eta = (_eta_of(frames[i], res.omega[i]) if eta_source == "flow"
               else eta_canonical_form_source(bv, chart, comp, u, z))
        model = _model_from_eta(bv, chart, comp, u, eta)
        worst = max(worst, _pushforward_mismatch(dphis[i], model, bv.matrix_at(res.x[i])))
    return {"max_mismatch": worst, "ok": worst <= tol, "tol": tol, "radius_used": radius_used,
            "samples": len(us), "steps": steps}


def tubular_map(bv, chart, comp, sat: SaturationChart, u, zeta, c):
    """Extension of the saturation chart by an affine complement frame."""
    frame = sat.complement_frame(u)
    vals, jacs = sat.map_and_jac([u], [zeta])
    c = np.asarray(c, dtype=float).reshape(frame.shape[1])
    return vals[0] + frame @ c, np.hstack([jacs[0], frame])


def tubular_rank_check(bv, chart, comp, sat, count=50, radius=0.1, seed=2):
    """Invertibility of the tubular map differential at random states."""
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed)
    n = bv.dim
    r = comp.rank_perp
    e_dim = n - chart.param_dim - r
    zetas = []
    for _ in us:
        zeta = rng.normal(size=r)
        if r:
            zeta *= radius * rng.uniform(0, 1) / max(np.linalg.norm(zeta), 1e-12)
        zetas.append(zeta)
        rng.uniform(-radius, radius, e_dim)  # the affine offset: dpsi does not depend on it
    _, jacs = sat.map_and_jac(us, np.array(zetas).reshape(len(us), r))
    for u, jac in zip(us, jacs):
        if rank_svd(np.hstack([jac, sat.complement_frame(u)]))[0] != n:
            return {"ok": False, "witness": tuple(float(x) for x in u)}
    return {"ok": True, "samples": int(count)}


def marle_invariants(bv, chart, comp, us):
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
        sigma, _ = sigma_tau(bv, chart, comp, u)
        cross = float(np.abs(sigma.matrix[:c, :]).max()) if c else 0.0
        dirac = pullback_dirac(bv, chart, u, ref_corank=comp.corank)
        out.append({
            "u": tuple(float(v) for v in np.atleast_1d(u)),
            "dirac": dirac,
            "quotient": SkewForm(sigma.matrix[c:, c:]),
            "cross_residual": cross,
        })
    return out


def compare_complements(bv, chart, comp_a, comp_b, steps=1024, count=20, radius=0.1,
                        seed=3, tol=1e-4):
    """Model independence: two complements agree through the saturation.

    Samples bundle points of the first complement, locates the same
    ambient points in the second chart by projection, and compares the
    two pushforward bivectors compressed to the shared tangent frame.
    Samples whose model does not extract (NotPoisson) are skipped and
    counted; the check fails when no sample was checked at all.  Each
    side flows all its samples in one batch.
    """
    sat_a = saturation_chart(bv, chart, comp_a, steps=steps, u_counts=3,
                             radius=radius, per_u=1, seed=seed)
    sat_b = saturation_chart(bv, chart, comp_b, steps=steps, u_counts=3,
                             radius=radius, per_u=1, seed=seed + 1)
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

    def flowed(comp, us, zetas):
        frames, res = _bundle_flow(bv, comp, us, zetas, steps, with_jac=True, with_omega=True)
        _require_inside(res)
        etas = [_eta_of(f, w) for f, w in zip(frames, res.omega)]
        return res.x, _phi_jacs(bv, frames, res), etas

    ya, jas, etas = flowed(comp_a, us, zetas)
    kept, models_a = [], []
    for i, (u, eta) in enumerate(zip(us, etas)):
        try:
            models_a.append(SkewForm(_model_from_eta(bv, chart, comp_a, u, eta)).matrix)
            kept.append(i)
        except NotPoisson:
            continue
    worst_mismatch, dists = 0.0, []
    if kept:
        inits = np.hstack([us[kept], np.zeros((len(kept), comp_b.rank_perp))])
        params, dists = sat_b.project(ya[kept], inits)
        _, jbs, etas_b = flowed(comp_b, params[:, :k], params[:, k:])
        for row, i in enumerate(kept):
            pb = SkewForm(_model_from_eta(bv, chart, comp_b, params[row, :k], etas_b[row])).matrix
            mism = _pushforward_mismatch(jas[i], models_a[row], jbs[row] @ pb @ jbs[row].T)
            worst_mismatch = max(worst_mismatch, mism)
    return {"max_mismatch": worst_mismatch, "max_projection_distance": max([0.0, *dists]),
            "ok": bool(kept) and worst_mismatch <= tol, "tol": tol,
            "checked": len(kept), "skipped": len(us) - len(kept)}


class GotayModel(FrameAligner):
    """Coisotropic-embedding model of a Dirac chart.

    Given Dirac data L on R^k with constant-rank tangent kernel K, the
    ambient space is the bundle chart R^k x R^m of K-dual fibers; the
    bivector is extracted from the canonical-form gauge of the lifted
    structure.  Frames are aligned to the origin for smoothness.
    """

    def __init__(self, dim, l_source, g=None):
        self.dim = int(dim)
        if isinstance(l_source, SkewForm):
            mat = l_source
            self._l_at = lambda x: dirac_graph(mat, "two_form")
        elif isinstance(l_source, DiracSpace):
            self._l_at = lambda x: l_source
        elif callable(l_source):
            self._l_at = l_source
        else:
            self._l_at = lambda x: dirac_graph(SkewForm(np.asarray(l_source, dtype=float)), "two_form")
        self._g_user = None if g is None else np.atleast_2d(np.asarray(g, dtype=float))
        self._refs = {}
        self.fiber_dim = None
        self.fiber_dim = self._kernel(np.zeros(self.dim)).shape[1]

    def _kernel(self, x):
        l = self._l_at(np.asarray(x, dtype=float))
        k = self.dim
        vertical = np.vstack([np.eye(k), np.zeros((k, k))])
        cap = subspace_intersect(l.basis, vertical)
        kern = self._aligned("k", cap[:k]) if cap.shape[1] else np.zeros((k, 0))
        if self.fiber_dim is not None and kern.shape[1] != self.fiber_dim:
            raise RankDeficient("tangent kernel rank is not constant")
        return kern

    def _inclusion(self, x):
        kern = self._kernel(x)
        m = kern.shape[1]
        g = self._g_user if self._g_user is not None else self._aligned("g", null(kern.T))
        stack = np.hstack([kern, g])
        if rank_svd(stack)[0] != self.dim:
            raise RankDeficient("G is not a complement of the kernel")
        rhs = np.vstack([np.eye(m), np.zeros((self.dim - m, m))])
        return np.linalg.solve(stack.T, rhs)

    def gauge_form(self, x, c, fd_h=1e-5):
        c = np.asarray(c, dtype=float).reshape(self.fiber_dim)
        return _canonical_form_gauge(self._inclusion, x, c, fd_h)

    def bivector_at(self, x, c):
        k, m = self.dim, self.fiber_dim
        dpr = np.hstack([np.eye(k), np.zeros((k, m))])
        lifted = dirac_pullback(self._l_at(np.asarray(x, dtype=float)), dpr)
        return dirac_to_bivector(dirac_gauge(lifted, self.gauge_form(x, c)))

    def verify(self, samples=20, radius=0.1, seed=4, fd_h=1e-5):
        """Coisotropy of the zero section, reproduction of L, Jacobi."""
        k, m = self.dim, self.fiber_dim
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-radius, radius, size=(samples, k))
        coiso = 0.0
        angles = 0.0
        jacobi = 0.0
        incl = np.vstack([np.eye(k), np.zeros((m, k))])
        for x in xs:
            p = self.bivector_at(x, np.zeros(m))
            tangent = incl
            conormal = np.vstack([np.zeros((k, m)), np.eye(m)])
            image = p @ conormal
            resid = image - tangent @ (tangent.T @ image)
            coiso = max(coiso, float(np.abs(resid).max()))
            back = dirac_pullback(dirac_graph(p, "bivector"), incl)
            ang = principal_angles(back.basis, self._l_at(x).basis)
            angles = max(angles, float(ang.max()) if ang.size else 0.0)
            c = rng.uniform(-radius, radius, m)
            jacobi = max(jacobi, self._fd_jacobi(x, c, fd_h))
        return {"coisotropy": coiso, "reproduction_angle": angles, "jacobi_fd": jacobi}

    def _fd_jacobi(self, x, c, h):
        k = self.dim
        point = np.concatenate([np.asarray(x, dtype=float), np.asarray(c, dtype=float)])
        p0 = self.bivector_at(point[:k], point[k:])
        grads = _fd_gradient(lambda ps: np.array([self.bivector_at(q[:k], q[k:]) for q in ps]),
                             point, h)
        t1 = np.einsum("lk,lij->ijk", p0, grads)
        t2 = np.einsum("li,ljk->ijk", p0, grads)
        t3 = np.einsum("lj,lki->ijk", p0, grads)
        return float(np.abs(t1 + t2 + t3).max())


def gotay_embedding(dim, l_source, g=None):
    """Build the coisotropic-embedding model for Dirac data on R^dim."""
    return GotayModel(dim, l_source, g=g)


def fiberwise_reflection_residual(l_base: DiracSpace, a_block, b_block):
    """Residual of the fiberwise -1 gauge identity at one instance.

    Gauge forms of the canonical-form shape [[A, B], [-B^T, 0]] with the
    base block A odd in the fiber coordinate satisfy: pulling the gauged
    lift back under m = diag(I, -I) (which fixes the lift itself, since
    the bundle projection absorbs m) lands on the lift gauged by the
    negated form.  Returns the largest principal angle between the two
    spaces, zero to machine precision.
    """
    k = l_base.n
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
    ang = principal_angles(left.basis, right.basis)
    fixed = principal_angles(dirac_pullback(lifted, m).basis, lifted.basis)
    return float(max(ang.max() if ang.size else 0.0, fixed.max() if fixed.size else 0.0))
