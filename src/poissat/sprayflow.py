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
an approximation of the continuous one.  Because covectors are frozen,
the covector rows of that 2n x 2n matrix stay [0 | I]; only the n x 2n
block T = [A | B] of base rows is integrated.  The averaged two-form is
accumulated with composite Simpson weights on the same node grid, and
since J^T C J = [[0, A^T], [-A, B^T - B]] for J = [[A, B], [0, I]], it
needs two n x n accumulators: one for A and one for B^T - B.  The full
matrices are assembled once, after the last step.

When PI is constant (dPI = 0) the right-hand side (sharp(xi), [0 | PI])
does not depend on the state, so it is evaluated once per flow and
serves as all four stages of every step, and the step's increment
(h/6)(k1 + 2 k2 + 2 k3 + k4) is formed once per flow too; the steps, the
exit test and the accumulators are those of the general path, bit for
bit.  The same fixed right-hand side serves a flow whose covectors are
all +-0, as at the zero section: sharp(xi) and dPI . xi sum +-0 products
to +0, so x never moves and every stage reads PI (and dPI) at x0, unless
a coordinate of x0 is -0.0, which the first stage state x + (h/2)(+0)
turns into +0.0, where PI may differ; such a flow takes the stage loop.
On either path a step adds its increment as it is while every trajectory
is alive (the gate would multiply it by 1.0, which is exact), and gated
from the step after the first exit; a trajectory that starts outside the
box is gated from the first step, so it stays at x0.  The increment is
summed in place, in the order of the plain expression, and the per-step
box test reads the domain bounds once per flow.  When PI is linear (dPI
reads no coordinate, as on so(3)*) and some covector is not +-0, dPI is
one array and xi is frozen, so bmat = dPI . xi is formed once per flow
and every stage contracts it with its own T; each stage still evaluates
PI at its state.
"""

from __future__ import annotations

import numpy as np

from .field import BivectorField
from .linear import RankDeficient, null, orth, subspace_intersect
from .submanifold import Chart, point_data, point_data_rows


def canonical_matrix(n: int):
    """Matrix of the canonical form on (x, xi) coordinates.

    value((v1,k1),(v2,k2)) = <v1,k2> - <v2,k1>.
    """
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = -np.eye(n)
    return c


class LeftDomain(ValueError):
    """A flow left the structure's domain box."""


class FlowResult:
    """Endpoint of the spray flow with optional derivative data.

    jac is the 2n x 2n derivative of the discrete time-one map at the
    initial state, [[A, B], [0, I]]: only its base rows [A | B] are
    integrated, because the covector rows stay [0 | I] under the flat
    spray.  omega is the Simpson average of the pulled back canonical
    form over the flow nodes, [[0, P^T], [-P, S]], assembled from the
    averages P of A and S of B^T - B.  exited marks trajectories that
    left the structure's domain box (their states freeze at the exit
    step and omega/jac are not meaningful).
    """

    def __init__(self, x, xi, jac, omega, trajectory, exited, squeeze):
        self._squeeze = squeeze
        self.x = x
        self.xi = xi
        self.jac = jac
        self.omega = omega
        self.trajectory = trajectory
        self.exited = exited

    def base(self):
        return self.x[0] if self._squeeze else self.x



def _dpi_xi(bv, x, xi):
    """bmat = dPI(x) . xi, the (b, n, n) factor of the variational block."""
    return np.einsum("bijk,bj->bik", bv.matrix_jac(x), xi)


def _rhs(bv, x, xi, top, bmat=None):
    """Spray velocity and the variational block's derivative at (x, xi);
    bmat is the flow's dPI . xi when PI is linear, else formed at x."""
    p = bv.matrix(x)
    xdot = np.einsum("bij,bj->bi", p, xi)
    if top is None:
        return xdot, None
    n = x.shape[1]
    if bv.constant:  # dp = 0
        tdot = np.zeros_like(top)
    else:
        tdot = np.einsum("bik,bkj->bij", _dpi_xi(bv, x, xi) if bmat is None else bmat, top)
    # the frozen covector rows [0 | I] of the full matrix contribute [0 | p]
    tdot[:, :, n:] += p
    return xdot, tdot


def _rk4_sum(h, k1, k2, k3, k4):
    """(h/6)(k1 + 2 k2 + 2 k3 + k4) in one fresh array, summed in place in
    the order ((k1 + 2 k2) + 2 k3) + k4 and then scaled, the bits of the
    plain expression; the slopes are left as they are."""
    out = 2 * k2
    out += k1
    out += 2 * k3
    out += k4
    out *= h / 6.0
    return out


def _increment(h, kx, kt):
    """The RK4 increment of x and of top (None without a variational
    block), from the four stages' slopes."""
    return _rk4_sum(h, *kx), None if kt[0] is None else _rk4_sum(h, *kt)


def flow(
    bv: BivectorField,
    x0,
    xi0,
    steps=1024,
    with_jac=False,
    with_omega=False,
    with_traj=False,
):
    """Integrate the spray from (x0, xi0) over [0, 1]: the time-one map.

    Batched over leading axes of x0/xi0, which must have the same shape.
    Trajectories that leave the domain box freeze at the exit step and
    are flagged; the partial state is returned.  One that starts outside
    the box is flagged and never moves.  steps must be even (the
    node grid doubles as the Simpson grid) and at least 16.
    """
    if np.shape(x0) != np.shape(xi0):
        raise ValueError("x0 and xi0 must have the same shape")
    if steps < 16 or steps % 2:
        raise ValueError("steps must be even and at least 16")
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    xi = np.atleast_2d(np.asarray(xi0, dtype=float)).copy()
    squeeze = np.asarray(x0).ndim == 1
    m, n = x.shape
    h = 1.0 / steps
    top = None
    if with_jac or with_omega:
        # top block [A | B] of the variational matrix; rows n: stay [0 | I]
        top = np.zeros((m, n, 2 * n))
        top[:, :, :n] = np.eye(n)
    if with_omega:
        # Simpson node weights h/3 * (1,4,2,...,4,1); node 0 contributes the
        # canonical form, whose A-part is I and whose B-part is zero
        p_acc = np.broadcast_to(np.eye(n) * (h / 3.0), (m, n, n)).copy()
        s_acc = np.zeros((m, n, n))
    trajectory = [x.copy()] if with_traj else None
    alive = bv.inside(x)
    # for a constant PI every stage has the same xdot, and tdot is [0 | p]:
    # the general path's bmat @ top term is all +-0 there, and adding a
    # zero of either sign to top leaves its bits, so one call serves the
    # flow, and so does the step's increment (h/6)(k1 + 2 k2 + 2 k3 + k4).
    # With every covector +-0 and no -0.0 in x, every stage state is x
    # itself, bit for bit, and its bmat @ top is +0: the same holds for any
    # PI, and the one call evaluates PI first and then dPI, as a stage does
    fixed = None
    if bv.constant or not (xi.any() or np.signbit(x[x == 0]).any()):
        kx, kt = _rhs(bv, x, xi, top)
        fixed = _increment(h, [kx] * 4, [kt] * 4)
    bmat = None
    if fixed is None and top is not None and bv.linear:
        # a linear PI's kernel returns one dPI at every x, so this is every
        # stage's bmat, bit for bit; PI comes first, as in each stage, so an
        # entry that fails raises before its partial does
        bv.matrix(x)
        bmat = _dpi_xi(bv, x, xi)
    # while every trajectory is alive the gate is all 1.0, and x * 1.0 is x;
    # a trajectory that starts outside the box is gated from the first step
    every = bool(alive.all())
    lo, hi = bv.domain[:, 0], bv.domain[:, 1]  # bv.inside's box, read once
    for s in range(steps):
        if fixed is None:
            k1x, k1t = _rhs(bv, x, xi, top, bmat)
            k2x, k2t = _rhs(bv, x + 0.5 * h * k1x, xi,
                            None if top is None else top + 0.5 * h * k1t, bmat)
            k3x, k3t = _rhs(bv, x + 0.5 * h * k2x, xi,
                            None if top is None else top + 0.5 * h * k2t, bmat)
            k4x, k4t = _rhs(bv, x + h * k3x, xi, None if top is None else top + h * k3t, bmat)
            dx, dtop = _increment(h, (k1x, k2x, k3x, k4x), (k1t, k2t, k3t, k4t))
        else:
            dx, dtop = fixed
        if not every:
            gate = alive.astype(float)
            dx = dx * gate[:, None]
            dtop = None if top is None else dtop * gate[:, None, None]
        x += dx
        if top is not None:
            top += dtop
        alive &= np.all((x >= lo) & (x <= hi), axis=1)
        every = every and bool(alive.all())
        if with_omega:
            w = (h / 3.0) * (1.0 if s == steps - 1 else (4.0 if s % 2 == 0 else 2.0))
            b = top[:, :, n:]
            p_acc += w * top[:, :, :n]
            s_acc += w * (b.transpose(0, 2, 1) - b)
        if with_traj:
            trajectory.append(x.copy())
    if with_traj:
        trajectory = np.stack(trajectory, axis=1)
    jac = omega = None
    if top is not None:
        jac = np.zeros((m, 2 * n, 2 * n))
        jac[:, :n] = top
        jac[:, n:, n:] = np.eye(n)
    if with_omega:
        omega = np.zeros((m, 2 * n, 2 * n))
        omega[:, :n, n:] = p_acc.transpose(0, 2, 1)
        # 0.0 - P rather than -P keeps every zero of omega a +0.0
        omega[:, n:, :n] = 0.0 - p_acc
        omega[:, n:, n:] = s_acc
    return FlowResult(x, xi, jac, omega, trajectory, ~alive, squeeze)


def exp_chi(bv: BivectorField, x, xi, steps=1024):
    """Base point of the time-one spray flow."""
    return flow(bv, x, xi, steps=steps).base()


def cotangent_path_residual(bv: BivectorField, result: FlowResult):
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
    h = 1.0 / (nodes - 1)
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


def dual_pair_check(bv: BivectorField, chart: Chart, u, steps=1024):
    """Rank and orthogonality data of the projection/exponential pair.

    At the state (X(u), 0) over a regular point of the chart this builds
    S1 = ker d(pr), S2 = ker d(exp) and K = ker of the averaged form
    restricted to the fiber bundle over X, and measures:
      pairing: the averaged form on S1 x (S2 within the bundle), scaled,
        which the pair's first property makes zero;
      triple_dim: dim(S1 cap K cap S2), expected (k+n) - k - (k + rank TXperp);
      realization_dim: dim(S2 cap T(pr^-1 X)), expected n - rank TXperp;
    and ranks, the dimensions of S1, S2 and K.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    pd = point_data(bv, chart, u)
    n, k = bv.dim, chart.param_dim
    r = pd.rank_perp
    # u is regular when 10 seeded probes within 1 % of the box span, clipped
    # to the box, share its rank TXperp
    rng = np.random.default_rng(7)
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    probes = np.clip(u + np.array([rng.uniform(-0.01, 0.01, k) for _ in range(10)]) * (hi - lo),
                     lo, hi)
    if k and any(q.rank_perp != r for q in point_data_rows(bv, chart, probes)):
        raise RankDeficient(f"chart is not regular near u = {tuple(u.tolist())}")
    res = flow(bv, pd.x[None, :], np.zeros((1, n)), steps=steps, with_omega=True)
    if res.exited.any():
        raise LeftDomain("state flows out of the domain box")
    jac = res.jac[0]
    omega = res.omega[0]
    s1 = np.vstack([np.zeros((n, n)), np.eye(n)])
    s2 = null(jac[:n, :])
    fiber = np.vstack(
        [np.hstack([pd.tx, np.zeros((n, n))]), np.hstack([np.zeros((n, k)), np.eye(n)])]
    )
    omega_b = fiber.T @ omega @ fiber
    kern = orth(fiber @ null(omega_b))
    scale = max(np.abs(omega).max(), 1.0)
    s2_in_fiber = subspace_intersect(s2, orth(fiber))
    triple = subspace_intersect(subspace_intersect(s1, kern), s2)
    return {
        "ranks": {"s1": n, "s2": s2.shape[1], "kernel": kern.shape[1]},
        "pairing": float(np.abs(s1.T @ omega @ s2_in_fiber).max(initial=0.0)) / scale,
        "triple_dim": triple.shape[1],
        "triple_expected": n - k - r,
        "realization_dim": s2_in_fiber.shape[1],
        "realization_expected": n - r,
    }
