"""Spray flow on the cotangent box and the averaged two-form.

The spray is the flat-connection one: at a state (x, xi) the velocity is
(sharp(xi), 0), so covectors are frozen and base paths are cotangent
paths by construction of the ODE.  Homogeneity and the projection axiom
then hold on the nose:

    dpr(spray(x, xi)) = sharp(xi)        (base part is sharp by definition)
    spray(x, t*xi) = (t*sharp(xi), 0)    (sharp is linear in xi)

Integration is fixed-step RK4, batched over initial states.  The
variational factor is integrated with the same tableau on the exact
linearization of the right-hand side, which makes the returned matrix
the exact derivative of the discrete time-one map (up to roundoff), not
an approximation of the continuous one.  The averaged two-form is
accumulated with composite Simpson weights on the same node grid.
"""

from __future__ import annotations

import numpy as np

from .field import BivectorField
from .linear import RankDeficient, SkewForm, null, orth, rank_svd, subspace_intersect
from .submanifold import Chart, point_data


def canonical_matrix(n: int):
    """Matrix of the canonical form on (x, xi) coordinates.

    value((v1,k1),(v2,k2)) = <v1,k2> - <v2,k1>.
    """
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = -np.eye(n)
    return c


class FlowResult:
    """Endpoint of the spray flow with optional derivative data.

    jac is the 2n x 2n derivative of the discrete time-one map at the
    initial state; omega the Simpson average of the pulled back
    canonical form over the flow nodes.  exited marks trajectories that
    left the structure's domain box (their states freeze at the exit
    step and omega/jac are not meaningful).
    """

    def __init__(self, x, xi, jac, omega, trajectory, exited, exit_step, squeeze):
        self._squeeze = squeeze
        self.x = x
        self.xi = xi
        self.jac = jac
        self.omega = omega
        self.trajectory = trajectory
        self.exited = exited
        self.exit_step = exit_step

    def base(self):
        return self.x[0] if self._squeeze else self.x

    def jac_single(self):
        return self.jac[0] if self._squeeze else self.jac

    def condition_numbers(self):
        return np.linalg.cond(self.jac)

    def det_signs(self):
        return np.sign(np.linalg.det(self.jac))


def spray_eval(bv: BivectorField, x, xi):
    """Velocity of the spray at (x, xi): (sharp(xi), 0)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.ndim == 1:
        return bv.matrix_at(x) @ xi, np.zeros_like(xi)
    p = bv.matrix(x)
    return np.einsum("bij,bj->bi", p, xi), np.zeros_like(xi)


def _rhs(bv, x, xi, jac):
    p = bv.matrix(x)
    xdot = np.einsum("bij,bj->bi", p, xi)
    if jac is None:
        return xdot, None
    n = x.shape[1]
    dp = bv.matrix_jac(x)
    bmat = np.einsum("bijk,bj->bik", dp, xi)
    jdot = np.zeros_like(jac)
    jdot[:, :n, :] = np.einsum("bik,bkj->bij", bmat, jac[:, :n, :]) + np.einsum(
        "bik,bkj->bij", p, jac[:, n:, :]
    )
    return xdot, jdot


def flow(
    bv: BivectorField,
    x0,
    xi0,
    t_end=1.0,
    steps=1024,
    with_jac=False,
    with_omega=False,
    with_traj=False,
):
    """Integrate the spray from (x0, xi0) over [0, t_end].

    Batched over leading axes of x0/xi0.  Trajectories that leave the
    domain box freeze at the exit step and are flagged; the partial
    state is returned.  steps must be even (the node grid doubles as
    the Simpson grid) and at least 16.
    """
    if steps < 16 or steps % 2:
        raise ValueError("steps must be even and at least 16")
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    xi = np.atleast_2d(np.asarray(xi0, dtype=float)).copy()
    squeeze = np.asarray(x0).ndim == 1
    m, n = x.shape
    h = t_end / steps
    need_jac = with_jac or with_omega
    jac = None
    if need_jac:
        jac = np.broadcast_to(np.eye(2 * n), (m, 2 * n, 2 * n)).copy()
    omega = None
    cmat = canonical_matrix(n)
    if with_omega:
        # Simpson node weights h/3 * (1,4,2,...,4,1); node 0 contributes c
        omega = np.broadcast_to(cmat * (h / 3.0), (m, 2 * n, 2 * n)).copy()
    trajectory = [x.copy()] if with_traj else None
    alive = bv.inside(x)
    exit_step = np.where(alive, -1, 0)
    for s in range(steps):
        k1x, k1j = _rhs(bv, x, xi, jac)
        k2x, k2j = _rhs(bv, x + 0.5 * h * k1x, xi, None if jac is None else jac + 0.5 * h * k1j)
        k3x, k3j = _rhs(bv, x + 0.5 * h * k2x, xi, None if jac is None else jac + 0.5 * h * k2j)
        k4x, k4j = _rhs(bv, x + h * k3x, xi, None if jac is None else jac + h * k3j)
        gate = alive.astype(float)
        x += (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x) * gate[:, None]
        if jac is not None:
            jac += (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j) * gate[:, None, None]
        inside = bv.inside(x)
        left = alive & ~inside
        exit_step[left] = s + 1
        alive &= inside
        if with_omega:
            w = (h / 3.0) * (1.0 if s == steps - 1 else (4.0 if s % 2 == 0 else 2.0))
            omega += w * np.einsum("bki,kl,blj->bij", jac, cmat, jac)
        if with_traj:
            trajectory.append(x.copy())
    if with_traj:
        trajectory = np.stack(trajectory, axis=1)
    return FlowResult(x, xi, jac, omega, trajectory, exit_step >= 0, exit_step, squeeze)


def exp_chi(bv: BivectorField, x, xi, steps=1024, t_end=1.0):
    """Base point of the time-one spray flow."""
    return flow(bv, x, xi, t_end=t_end, steps=steps).base()


def omega_chi(bv: BivectorField, x, xi, steps=1024):
    """Averaged pullback of the canonical form at a single state."""
    res = flow(bv, np.atleast_2d(x), np.atleast_2d(xi), steps=steps, with_omega=True)
    if res.exited.any():
        raise ValueError("trajectory left the domain box")
    return SkewForm(res.omega[0])


def cotangent_path_residual(bv: BivectorField, result: FlowResult, t_end=1.0):
    """Independent check that flow paths are cotangent paths.

    The base velocity is estimated from the stored trajectory with
    fourth-order five-point stencils (one-sided at the ends) and
    compared against sharp(xi) along the path; nothing from the
    integrator's right-hand side is reused.  Returns the max residual
    per trajectory.
    """
    if result.trajectory is None:
        raise ValueError("flow was run without trajectory storage")
    path = result.trajectory
    m, nodes, n = path.shape
    h = t_end / (nodes - 1)
    vel = np.empty_like(path)
    vel[:, 2:-2] = (path[:, :-4] - 8 * path[:, 1:-3] + 8 * path[:, 3:-1] - path[:, 4:]) / (12 * h)
    lead = np.array(
        [
            [-25.0, 48.0, -36.0, 16.0, -3.0],
            [-3.0, -10.0, 18.0, -6.0, 1.0],
        ]
    )
    vel[:, :2] = np.einsum("ck,bkn->bcn", lead, path[:, :5]) / (12 * h)
    vel[:, -2:] = -np.einsum("ck,bkn->bcn", lead[::-1, ::-1], path[:, -5:]) / (12 * h)
    flat = path.reshape(-1, n)
    sharp = np.einsum("bij,bj->bi", bv.matrix(flat), np.repeat(result.xi, nodes, axis=0))
    resid = np.abs(vel - sharp.reshape(m, nodes, n))
    return resid.max(axis=(1, 2))


class DualPairReport:
    def __init__(self, ranks, property1, property2, realization, tol):
        self.ranks = ranks
        self.property1 = property1  # (residual, ok)
        self.property2 = property2  # (dim, expected, ok)
        self.realization = realization  # (dim, expected, ok)
        self.tol = tol

    @property
    def ok(self):
        return self.property1[1] and self.property2[2] and self.realization[2]


def dual_pair_check(bv: BivectorField, chart: Chart, u, xi=None, steps=1024, tol=1e-8):
    """Rank and orthogonality conditions of the projection/exponential pair.

    At a state (X(u), xi) over a regular point of the chart this builds
    S1 = ker d(pr), S2 = ker d(exp) and K = ker of the averaged form
    restricted to the fiber bundle over X, and reports:
      property1: the averaged form pairs S1 against S2 to zero;
      property2: dim(S1 cap K cap S2) = (k+n) - k - (k + rank TXperp);
      realization: dim(S2 cap T(pr^-1 X)) = n - rank TXperp.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    pd = point_data(bv, chart, u)
    n, k = bv.dim, chart.param_dim
    r = pd.rank_perp
    if chart.param_dim:
        rng = np.random.default_rng(7)
        span = chart.domain[:, 1] - chart.domain[:, 0]
        for _ in range(10):
            nearby = np.clip(
                u + rng.uniform(-0.01, 0.01, k) * span, chart.domain[:, 0], chart.domain[:, 1]
            )
            if point_data(bv, chart, nearby).rank_perp != r:
                raise RankDeficient(f"chart is not regular near u = {tuple(u)}")
    xi = np.zeros(n) if xi is None else np.asarray(xi, dtype=float)
    res = flow(bv, pd.x[None, :], xi[None, :], steps=steps, with_omega=True)
    if res.exited.any():
        raise ValueError("state flows out of the domain box")
    jac = res.jac[0]
    omega = res.omega[0]
    s1 = np.vstack([np.zeros((n, n)), np.eye(n)])
    s2 = null(jac[:n, :])
    fiber = np.vstack(
        [np.hstack([pd.tx, np.zeros((n, n))]), np.hstack([np.zeros((n, k)), np.eye(n)])]
    )
    omega_b = fiber.T @ omega @ fiber
    kern_b = null(omega_b)
    kern = orth(fiber @ kern_b) if kern_b.size else np.zeros((2 * n, 0))
    scale = max(np.abs(omega).max(), 1.0)
    s2_in_fiber = subspace_intersect(s2, orth(fiber))
    prop1_res = (
        float(np.abs(s1.T @ omega @ s2_in_fiber).max()) / scale if s2_in_fiber.size else 0.0
    )
    triple = subspace_intersect(subspace_intersect(s1, kern), s2)
    prop2_dim = triple.shape[1]
    prop2_expected = n - k - r
    real_dim = s2_in_fiber.shape[1]
    real_expected = n - r
    ranks = {"s1": n, "s2": s2.shape[1], "kernel": kern.shape[1]}
    return DualPairReport(
        ranks,
        (prop1_res, prop1_res <= tol),
        (prop2_dim, prop2_expected, prop2_dim == prop2_expected),
        (real_dim, real_expected, real_dim == real_expected),
        tol,
    )
