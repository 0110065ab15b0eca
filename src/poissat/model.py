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


class ComplementChoice:
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

    def _aligned(self, key, basis):
        ref = self._refs.get(key)
        if ref is None:
            basis = fix_signs(basis)
            self._refs[key] = basis
            return basis
        return align_frame(basis, ref)

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
        ref = None
        if "v" in self._refs:
            ref = s.T @ self._refs["v"]
        v = lagrangian_complement(s, omega, txperp, ref=ref) if r else np.zeros((n, 0))
        self._refs.setdefault("v", v)
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
        ref = None
        if "c" in self._refs:
            ref = s.T @ self._refs["c"]
        c_lag = lagrangian_complement(s, omega, cap, ref=ref) if c_dim else np.zeros((n, 0))
        self._refs.setdefault("c", c_lag)
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
    n = fr.x.shape[0]
    k, r = fr.dx.shape[1], fr.rank_perp
    zeta = np.asarray(zeta, dtype=float).reshape(r)
    state_x = fr.x
    state_xi = fr.j @ zeta
    de = np.zeros((2 * n, k + r))
    de[:n, :k] = fr.dx
    de[n:, k:] = fr.j
    for a in range(k):
        du = np.zeros(k)
        du[a] = fd_h
        jp = comp.at(fr.u + du).j
        jm = comp.at(fr.u - du).j
        de[n:, a] = (jp - jm) @ zeta / (2 * fd_h)
    return fr, state_x, state_xi, de


def eta_canonical(bv, chart, comp, u, zeta, steps=1024):
    """Gauge form eta(u, zeta) = -e*(averaged flow form) on the bundle."""
    fr, x, xi, de = _bundle_embedding(comp, u, zeta)
    res = flow(bv, x[None, :], xi[None, :], steps=steps, with_omega=True)
    if res.exited.any():
        raise ValueError("state flows out of the domain box")
    return -de.T @ res.omega[0] @ de


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
    fr = comp.at(u)
    k, r = fr.dx.shape[1], fr.rank_perp
    zeta = np.asarray(zeta, dtype=float).reshape(r)

    def tau_at(uu):
        f = comp.at(uu)
        return f.dx.T @ f.j

    tau0 = tau_at(fr.u)
    d = np.zeros((k, k))
    for a in range(k):
        du = np.zeros(k)
        du[a] = fd_h
        d[:, a] = (tau_at(fr.u + du) - tau_at(fr.u - du)) @ zeta / (2 * fd_h)
    out = np.zeros((k + r, k + r))
    out[:k, :k] = d - d.T
    out[:k, k:] = tau0
    out[k:, :k] = -tau0.T
    return out


def eta_closedness_residual(bv, chart, comp, u, zeta, steps=256, h=1e-4):
    """Max finite-difference exterior-derivative component of eta."""
    fr = comp.at(u)
    k, r = fr.dx.shape[1], fr.rank_perp
    d = k + r
    point = np.concatenate([np.atleast_1d(u), np.asarray(zeta, dtype=float).reshape(r)])

    def eta_at(p):
        return eta_canonical(bv, chart, comp, p[:k], p[k:], steps=steps)

    grads = np.zeros((d, d, d))
    for a in range(d):
        dp = np.zeros(d)
        dp[a] = h
        grads[a] = (eta_at(point + dp) - eta_at(point - dp)) / (2 * h)
    worst = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                val = grads[a][b, c] + grads[b][c, a] + grads[c][a, b]
                worst = max(worst, abs(val))
    return worst


def local_model_bivector(bv, chart, comp, u, zeta, steps=1024, eta_source="flow"):
    """Bivector of the local model at a bundle point (u, zeta).

    Pulls the chart's Dirac structure up along the bundle projection,
    gauges by eta and extracts; NotPoisson propagates when the gauged
    space has no bivector presentation (expected far from zeta = 0).
    """
    fr = comp.at(u)
    k, r = fr.dx.shape[1], fr.rank_perp
    base = pullback_dirac(bv, chart, fr.u, ref_corank=comp.corank)
    dpr = np.hstack([np.eye(k), np.zeros((k, r))])
    lifted = dirac_pullback(base, dpr)
    if eta_source == "flow":
        eta = eta_canonical(bv, chart, comp, u, zeta, steps=steps)
    elif eta_source == "canonical_form":
        eta = eta_canonical_form_source(bv, chart, comp, u, zeta)
    else:
        raise ValueError(f"unknown eta source {eta_source!r}")
    return SkewForm(dirac_to_bivector(dirac_gauge(lifted, eta)))


def extraction_radius(bv, chart, comp, u, steps=256, start=0.5, count=6, seed=0):
    """Largest probed fiber radius where model extraction succeeds.

    Halves the radius until `count` seeded directions all extract, down
    to the radius floor; returns 0.0 if even the floor fails.
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
            for d in dirs:
                local_model_bivector(bv, chart, comp, u, radius * d, steps=steps)
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
            for z in radius * dirs * scales:
                rows_u.append(u)
                rows_z.append(z)
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

    def map_and_jac(self, u, zeta):
        fr, x, xi, de = _bundle_embedding(self.comp, u, zeta)
        res = flow(self.bv, x[None, :], xi[None, :], steps=self.steps, with_jac=True)
        if res.exited.any():
            raise ValueError("state flows out of the domain box")
        n = self.bv.dim
        return res.x[0], res.jac[0][:n, :] @ de

    def project(self, y, init, max_iter=50, tol=1e-10):
        """Nearest-point parameters on the chart image, Gauss-Newton."""
        p = np.asarray(init, dtype=float).copy()
        k = self.chart.param_dim
        best = (np.inf, p.copy())
        for _ in range(max_iter):
            val, jac = self.map_and_jac(p[:k], p[k:])
            resid = y - val
            dist = np.linalg.norm(resid)
            if dist < best[0]:
                best = (dist, p.copy())
            if dist <= tol:
                break
            step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            if np.linalg.norm(step) > 1.0:
                step *= 1.0 / np.linalg.norm(step)
            p = p + step
        return best[1], best[0]

    def complement_frame(self, u):
        """Frame spanning a complement of TP along the zero section."""
        fr = self.comp.at(u)
        p = self.bv.matrix_at(fr.x)
        span = np.hstack([fr.dx, p @ fr.j])
        key = "_tube"
        basis = null(span.T) if span.size else np.eye(self.bv.dim)
        ref = self.comp._refs.get(key)
        if ref is None:
            basis = fix_signs(basis)
            self.comp._refs[key] = basis
            return basis
        return align_frame(basis, ref)


def saturation_chart(bv, chart, comp, steps=1024, u_counts=5, radius=0.2, per_u=3, seed=0):
    """Sample the saturation chart over a (u, zeta) grid.

    The fiber radius is halved (down to a floor) until no trajectory
    leaves the domain box; the radius actually used is recorded.
    Immersion rank and the zero-section tangent identity
    TP = span[dX, sharp(J)] are checked at every sample.
    """
    radius_used = radius
    while True:
        us, zetas = _sigma_grid(chart, comp, u_counts, radius_used, per_u, seed)
        frames = [_bundle_embedding(comp, u, z) for u, z in zip(us, zetas)]
        xs = np.stack([f[1] for f in frames])
        xis = np.stack([f[2] for f in frames])
        res = flow(bv, xs, xis, steps=steps, with_jac=True)
        if not res.exited.any():
            break
        if radius_used * 0.5 < RADIUS_FLOOR:
            raise ValueError("flow leaves the domain box even at the radius floor")
        radius_used *= 0.5
    n = bv.dim
    jacs = np.stack([res.jac[i][:n, :] @ frames[i][3] for i in range(len(frames))])
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

    Probes whose flow leaves the domain box are skipped and counted; the
    check fails when no probe was checked at all.
    """
    bv, chart = sat.bv, sat.chart
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed + 1)
    worst = 0.0
    checked = skipped = 0
    for u in us:
        x = chart.point_at(u)
        a = rng.normal(size=bv.dim)
        a *= radius / np.linalg.norm(a)
        res = flow(bv, x[None, :], a[None, :], steps=sat.steps)
        if res.exited.any():
            skipped += 1
            continue
        y = res.x[0]
        init = np.concatenate([u, np.zeros(sat.comp.rank_perp)])
        _, dist = sat.project(y, init)
        worst = max(worst, dist)
        checked += 1
    return {"max_distance": worst, "ok": checked > 0 and worst <= tol, "tol": tol,
            "checked": checked, "skipped": skipped}


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
    radius_used = radius
    while True:
        us, zetas = _sigma_grid(chart, comp, u_counts, radius_used, per_u, seed)
        frames = [_bundle_embedding(comp, u, z) for u, z in zip(us, zetas)]
        xs = np.stack([f[1] for f in frames])
        xis = np.stack([f[2] for f in frames])
        res = flow(bv, xs, xis, steps=steps, with_jac=True, with_omega=True)
        if not res.exited.any():
            break
        if radius_used * 0.5 < RADIUS_FLOOR:
            raise ValueError("flow leaves the domain box even at the radius floor")
        radius_used *= 0.5
    n = bv.dim
    k = chart.param_dim
    dpr = np.hstack([np.eye(k), np.zeros((k, comp.rank_perp))])
    worst = 0.0
    for i, (u, z) in enumerate(zip(us, zetas)):
        de = frames[i][3]
        if eta_source == "flow":
            eta = -de.T @ res.omega[i] @ de
        else:
            eta = eta_canonical_form_source(bv, chart, comp, u, z)
        base = pullback_dirac(bv, chart, u, ref_corank=comp.corank)
        model = dirac_to_bivector(dirac_gauge(dirac_pullback(base, dpr), eta))
        dphi = res.jac[i][:n, :] @ de
        q = orth(dphi)
        push = dphi @ model @ dphi.T
        ambient = bv.matrix_at(res.x[i])
        mism = np.abs(q.T @ (push - ambient) @ q).max()
        worst = max(worst, float(mism))
    return {
        "max_mismatch": worst,
        "ok": worst <= tol,
        "tol": tol,
        "radius_used": radius_used,
        "samples": len(us),
        "steps": steps,
    }


def tubular_map(bv, chart, comp, sat: SaturationChart, u, zeta, c):
    """Extension of the saturation chart by an affine complement frame."""
    frame = sat.complement_frame(u)
    val, jac = sat.map_and_jac(u, zeta)
    c = np.asarray(c, dtype=float).reshape(frame.shape[1])
    return val + frame @ c, np.hstack([jac, frame])


def tubular_rank_check(bv, chart, comp, sat, count=50, radius=0.1, seed=2):
    """Invertibility of the tubular map differential at random states."""
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed)
    n = bv.dim
    r = comp.rank_perp
    e_dim = n - chart.param_dim - r
    for u in us:
        zeta = rng.normal(size=r)
        if r:
            zeta *= radius * rng.uniform(0, 1) / max(np.linalg.norm(zeta), 1e-12)
        c = rng.uniform(-radius, radius, e_dim)
        _, dpsi = tubular_map(bv, chart, comp, sat, u, zeta, c)
        if rank_svd(dpsi)[0] != n:
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
    """
    sat_a = saturation_chart(bv, chart, comp_a, steps=steps, u_counts=3,
                             radius=radius, per_u=1, seed=seed)
    sat_b = saturation_chart(bv, chart, comp_b, steps=steps, u_counts=3,
                             radius=radius, per_u=1, seed=seed + 1)
    rng = np.random.default_rng(seed)
    us = chart.sample(count, seed=seed + 2)
    k, r = chart.param_dim, comp_a.rank_perp
    worst_mismatch = 0.0
    worst_dist = 0.0
    for u in us:
        zeta = rng.normal(size=r)
        if r:
            zeta *= min(radius, sat_a.radius_used) * rng.uniform(0.1, 1.0) / max(
                np.linalg.norm(zeta), 1e-12)
        try:
            pa = local_model_bivector(bv, chart, comp_a, u, zeta, steps=steps)
        except NotPoisson:
            continue
        ya, ja = sat_a.map_and_jac(u, zeta)
        params, dist = sat_b.project(ya, np.concatenate([u, np.zeros(comp_b.rank_perp)]))
        worst_dist = max(worst_dist, dist)
        pb = local_model_bivector(bv, chart, comp_b, params[:k], params[k:], steps=steps)
        yb, jb = sat_b.map_and_jac(params[:k], params[k:])
        q = orth(ja)
        push_a = ja @ pa.matrix @ ja.T
        push_b = jb @ pb.matrix @ jb.T
        mism = float(np.abs(q.T @ (push_a - push_b) @ q).max())
        worst_mismatch = max(worst_mismatch, mism)
    return {
        "max_mismatch": worst_mismatch,
        "max_projection_distance": worst_dist,
        "ok": worst_mismatch <= tol,
        "tol": tol,
    }


class GotayModel:
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

    def _aligned(self, key, basis):
        ref = self._refs.get(key)
        if ref is None:
            basis = fix_signs(basis)
            self._refs[key] = basis
            return basis
        return align_frame(basis, ref)

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
        k, m = self.dim, self.fiber_dim
        c = np.asarray(c, dtype=float).reshape(m)
        j0 = self._inclusion(x)
        d = np.zeros((k, k))
        for a in range(k):
            dx = np.zeros(k)
            dx[a] = fd_h
            d[:, a] = (self._inclusion(x + dx) - self._inclusion(x - dx)) @ c / (2 * fd_h)
        out = np.zeros((k + m, k + m))
        out[:k, :k] = d - d.T
        out[:k, k:] = j0
        out[k:, :k] = -j0.T
        return out

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
        d = self.dim + self.fiber_dim
        point = np.concatenate([np.asarray(x, dtype=float), np.asarray(c, dtype=float)])
        p0 = self.bivector_at(point[: self.dim], point[self.dim:])
        grads = np.zeros((d, d, d))
        for a in range(d):
            dp = np.zeros(d)
            dp[a] = h
            pp = self.bivector_at(point[: self.dim] + dp[: self.dim], point[self.dim:] + dp[self.dim:])
            pm = self.bivector_at(point[: self.dim] - dp[: self.dim], point[self.dim:] - dp[self.dim:])
            grads[a] = (pp - pm) / (2 * h)
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
    d = k + r
    eta_here = np.zeros((d, d))
    eta_here[:k, :k] = a
    eta_here[:k, k:] = b
    eta_here[k:, :k] = -b.T
    eta_mirror = eta_here.copy()
    eta_mirror[:k, :k] = -a
    m = np.diag(np.concatenate([np.ones(k), -np.ones(r)]))
    dpr = np.hstack([np.eye(k), np.zeros((k, r))])
    lifted = dirac_pullback(l_base, dpr)
    left = dirac_pullback(dirac_gauge(lifted, eta_mirror), m)
    right = dirac_gauge(lifted, -eta_here)
    ang = principal_angles(left.basis, right.basis)
    fixed = principal_angles(dirac_pullback(lifted, m).basis, lifted.basis)
    return float(max(ang.max() if ang.size else 0.0, fixed.max() if fixed.size else 0.0))
