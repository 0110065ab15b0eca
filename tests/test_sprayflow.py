"""Spray flow, averaged two-form, cotangent paths, dual-pair ranks."""

import numpy as np
import pytest

from poissat.expr import EvalError
from poissat.field import (
    BivectorField,
    flat_rank2_r3,
    flat_rank2_r3s1,
    so3_star,
    symplectic_r4,
    zero_structure,
)
from poissat.linear import RankDeficient
from poissat.sprayflow import (
    canonical_matrix,
    cotangent_path_residual,
    dual_pair_check,
    exp_chi,
    flow,
)
from poissat.submanifold import Chart


def omega_at(bv, x, xi, steps):
    """Averaged pullback of the canonical form at a single state."""
    return flow(bv, x, xi, steps=steps, with_omega=True).omega[0]


def test_flow_zero_structure_is_identity():
    bv = zero_structure(3)
    x0 = np.array([0.3, -0.4, 0.5])
    res = flow(bv, x0, np.array([1.0, 2.0, 3.0]), steps=16, with_jac=True)
    assert np.array_equal(res.base(), x0)
    assert np.array_equal(res.jac[0], np.eye(6))


def test_flow_constant_structure_closed_form():
    bv = flat_rank2_r3()
    x0 = np.array([0.1, 0.2, -0.3])
    xi = np.array([0.25, -0.5, 0.75])
    p = bv.matrix_at(x0)
    for steps in (16, 64):
        res = flow(bv, x0, xi, steps=steps, with_jac=True)
        assert np.allclose(res.base(), x0 + p @ xi, atol=1e-13)
        expected = np.eye(6)
        expected[:3, 3:] = p
        assert np.allclose(res.jac[0], expected, atol=1e-13)


def test_flow_so3_circle_closed_form():
    # xi = dz makes the base path the unit circle in the xy-plane
    bv = so3_star()
    res = flow(bv, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), steps=1024)
    assert np.allclose(res.base(), [np.cos(1.0), np.sin(1.0), 0.0], atol=1e-11)
    assert not res.exited.any()


def rodrigues(xi):
    """Rotation exp([xi]_x) about xi by the angle |xi|."""
    theta = np.linalg.norm(xi)
    k = np.array([[0.0, -xi[2], xi[1]], [xi[2], 0.0, -xi[0]], [-xi[1], xi[0], 0.0]])
    return np.eye(3) + np.sin(theta) / theta * k + (1.0 - np.cos(theta)) / theta**2 * k @ k


def rotation_mean(xi):
    """Integral of R(t xi) over t in [0, 1]."""
    theta = np.linalg.norm(xi)
    k = np.array([[0.0, -xi[2], xi[1]], [xi[2], 0.0, -xi[0]], [-xi[1], xi[0], 0.0]])
    return (np.eye(3) + (1.0 - np.cos(theta)) / theta**2 * k
            + (theta - np.sin(theta)) / theta**3 * k @ k)


def test_flow_lie_poisson_rotation_closed_form():
    # on so(3)* sharp(xi) = xi x x, so the time-one map is the rotation R(xi)
    bv = so3_star()
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-1.0, 1.0, (16, 3))
    xi = rng.normal(size=(16, 3))
    xi *= rng.uniform(0.1, 1.5, (16, 1)) / np.linalg.norm(xi, axis=1, keepdims=True)
    res = flow(bv, x0, xi, steps=1024, with_omega=True)
    assert not res.exited.any()
    rots = np.stack([rodrigues(v) for v in xi])
    assert np.abs(res.x - np.einsum("bij,bj->bi", rots, x0)).max() <= 1e-12
    assert np.abs(res.jac[:, :3, :3] - rots).max() <= 1e-12
    # the averaged form pairs positions with covectors through the mean rotation
    means = np.stack([rotation_mean(v) for v in xi])
    assert np.abs(res.omega[:, :3, 3:] - means.transpose(0, 2, 1)).max() <= 1e-12
    assert np.abs(res.omega[:, 3:, :3] + means).max() <= 1e-12


def test_flow_self_convergence_so3():
    bv = so3_star()
    x0 = np.array([1.0, 0.0, 0.0])
    xi = np.array([0.0, 0.0, 1.0])
    ref = flow(bv, x0, xi, steps=4096).base()
    assert np.linalg.norm(flow(bv, x0, xi, steps=1024).base() - ref) <= 1e-9


def test_rk4_order_window():
    bv = so3_star()
    x0 = np.array([0.8, 0.1, -0.2])
    xi = np.array([0.3, 0.4, 0.5])
    ref = flow(bv, x0, xi, steps=4096).base()
    errs = [np.linalg.norm(flow(bv, x0, xi, steps=s).base() - ref) for s in (64, 128)]
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_flow_rejects_bad_steps():
    bv = so3_star()
    with pytest.raises(ValueError, match="steps"):
        flow(bv, np.zeros(3), np.zeros(3), steps=8)
    with pytest.raises(ValueError, match="steps"):
        flow(bv, np.zeros(3), np.zeros(3), steps=17)


@pytest.mark.parametrize("rows_x,rows_xi", [(4, 1), (1, 4)])
def test_flow_rejects_mismatched_shapes(rows_x, rows_xi):
    with pytest.raises(ValueError, match="x0 and xi0 must have the same shape"):
        flow(so3_star(), np.zeros((rows_x, 3)), np.zeros((rows_xi, 3)), steps=16)


def test_flow_domain_exit_flag():
    bv = flat_rank2_r3()  # domain box [-2, 2]^3
    res = flow(bv, np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), steps=64,
               with_traj=True)
    assert res.exited.all()
    # dy drives the base along +x at unit speed; exit near t = 0.5, after
    # which the state stays frozen
    outside = np.flatnonzero(~bv.inside(res.trajectory[0]))
    assert abs(outside[0] / 64 - 0.5) < 0.05
    assert np.array_equal(outside, np.arange(outside[0], 65))
    assert (res.trajectory[0, outside[0]:] == res.base()).all()
    assert res.base()[0] <= 2.0 + 2.0 / 64


def test_exp_chi_fixes_zero_covector():
    bv = so3_star()
    x0 = np.array([0.7, -0.1, 0.4])
    assert np.array_equal(exp_chi(bv, x0, np.zeros(3), steps=64), x0)


def test_exp_chi_differential_along_zero_section():
    bv = so3_star()
    x0 = np.array([0.5, 0.3, 0.2])
    res = flow(bv, x0, np.zeros(3), steps=64, with_jac=True)
    d_exp = res.jac[0][:3, :]
    formula = np.hstack([np.eye(3), bv.matrix_at(x0)])
    assert np.allclose(d_exp, formula, atol=1e-12)
    # independent finite-difference check of the same differential
    h = 1e-6
    fd = np.zeros((3, 6))
    for j in range(6):
        dv = np.zeros(6)
        dv[j] = h
        plus = exp_chi(bv, x0 + dv[:3], dv[3:], steps=64)
        minus = exp_chi(bv, x0 - dv[:3], -dv[3:], steps=64)
        fd[:, j] = (plus - minus) / (2 * h)
    assert np.abs(fd - formula).max() <= 1e-5


def test_cotangent_path_residual():
    bv = so3_star()
    states_x = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
    states_xi = np.array([[0.0, 0.0, 1.0], [0.4, -0.2, 0.6]])
    res = flow(bv, states_x, states_xi, steps=1024, with_traj=True)
    assert not res.exited.any()
    resid = cotangent_path_residual(bv, res)
    assert resid.shape == (2,)
    assert resid.max() <= 1e-8


def test_omega_zero_structure_is_canonical():
    form = omega_at(zero_structure(3), np.zeros(3), np.array([0.1, 0.2, 0.3]), steps=16)
    assert np.allclose(form, canonical_matrix(3), atol=1e-13)


def test_omega_constant_structure_closed_form():
    # linear flow: jac(t) = I + tA with A = [[0, P], [0, 0]], so the
    # average is C + (A^T C + C A)/2 + A^T C A / 3, exact for Simpson
    bv = flat_rank2_r3()
    x0 = np.array([0.2, -0.1, 0.3])
    xi = np.array([0.4, 0.2, -0.3])
    p = bv.matrix_at(x0)
    a = np.zeros((6, 6))
    a[:3, 3:] = p
    c = canonical_matrix(3)
    expected = c + (a.T @ c + c @ a) / 2.0 + a.T @ c @ a / 3.0
    form = omega_at(bv, x0, xi, steps=16)
    assert np.allclose(form, expected, atol=1e-12)


def test_omega_zero_section_formula():
    # at xi = 0 the averaged form is <v1,k2> - <v2,k1> + pi(k1,k2)
    bv = so3_star()
    x0 = np.array([0.5, 0.3, 0.2])
    form = omega_at(bv, x0, np.zeros(3), steps=64)
    p = bv.matrix_at(x0)
    expected = canonical_matrix(3)
    expected[3:, 3:] = p.T
    assert np.abs(form - expected).max() <= 1e-6
    v1 = np.concatenate([np.zeros(3), np.array([1.0, 0.0, 0.0])])
    v2 = np.concatenate([np.zeros(3), np.array([0.0, 1.0, 0.0])])
    # pi(k1, k2) = <k2, sharp(k1)> = k2 @ P @ k1
    assert abs(v1 @ form @ v2 - v2[3:] @ p @ v1[3:]) <= 1e-6


def test_omega_nondegenerate_near_zero_section():
    rng = np.random.default_rng(5)
    for bv in (so3_star(), flat_rank2_r3()):
        n = bv.dim
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, n)
            xi = rng.normal(size=n)
            xi *= 0.1 / max(np.linalg.norm(xi), 1.0)
            form = omega_at(bv, x, xi, steps=64)
            smin = np.linalg.svd(form, compute_uv=False).min()
            assert smin > 0.1


def test_dual_pair_sympl_plane():
    bv = symplectic_r4()
    plane = Chart(2, 4, ["u", "v", "0", "0"], names=["u", "v"])
    rep = dual_pair_check(bv, plane, [0.2, -0.1], steps=64)
    assert (rep["realization_dim"], rep["realization_expected"]) == (2, 2)
    assert (rep["triple_dim"], rep["triple_expected"]) == (0, 0)
    assert rep["pairing"] <= 1e-8


def test_dual_pair_zero_structure_line():
    bv = zero_structure(3)
    line = Chart(1, 3, ["u", "0", "0"], names=["u"])
    rep = dual_pair_check(bv, line, [0.3], steps=16)
    assert rep["ranks"]["s2"] == 3
    assert (rep["triple_dim"], rep["triple_expected"]) == (2, 2)
    assert (rep["realization_dim"], rep["realization_expected"]) == (3, 3)
    assert rep["pairing"] <= 1e-8


def test_dual_pair_coiso_line():
    bv = flat_rank2_r3()
    line = Chart(1, 3, ["u", "0", "0"], names=["u"])
    rep = dual_pair_check(bv, line, [0.4], steps=64)
    assert (rep["triple_dim"], rep["triple_expected"]) == (1, 1)
    assert (rep["realization_dim"], rep["realization_expected"]) == (2, 2)
    assert rep["pairing"] <= 1e-8


def test_dual_pair_rejects_irregular_point():
    bv = flat_rank2_r3()
    cubic = Chart(1, 3, ["u", "0", "u^3"], names=["u"])
    with pytest.raises(RankDeficient, match="regular"):
        dual_pair_check(bv, cubic, [0.0], steps=64)


def rhs_ref(bv, x, xi, jac):
    p = bv.matrix(x)
    xdot = np.einsum("bij,bj->bi", p, xi)
    n = x.shape[1]
    dp = bv.matrix_jac(x)
    bmat = np.einsum("bijk,bj->bik", dp, xi)
    jdot = np.zeros_like(jac)
    jdot[:, :n, :] = np.einsum("bik,bkj->bij", bmat, jac[:, :n, :]) + np.einsum(
        "bik,bkj->bij", p, jac[:, n:, :]
    )
    return xdot, jdot


def flow_ref(bv, x0, xi0, steps, with_omega=False):
    """The full 2n x 2n variational flow with the triple-product average."""
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    xi = np.atleast_2d(np.asarray(xi0, dtype=float)).copy()
    m, n = x.shape
    h = 1.0 / steps
    jac = np.broadcast_to(np.eye(2 * n), (m, 2 * n, 2 * n)).copy()
    omega = None
    cmat = canonical_matrix(n)
    if with_omega:
        # Simpson node weights h/3 * (1,4,2,...,4,1); node 0 contributes c
        omega = np.broadcast_to(cmat * (h / 3.0), (m, 2 * n, 2 * n)).copy()
    alive = bv.inside(x)
    for s in range(steps):
        k1x, k1j = rhs_ref(bv, x, xi, jac)
        k2x, k2j = rhs_ref(bv, x + 0.5 * h * k1x, xi, jac + 0.5 * h * k1j)
        k3x, k3j = rhs_ref(bv, x + 0.5 * h * k2x, xi, jac + 0.5 * h * k2j)
        k4x, k4j = rhs_ref(bv, x + h * k3x, xi, jac + h * k3j)
        gate = alive.astype(float)
        x += (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x) * gate[:, None]
        jac += (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j) * gate[:, None, None]
        alive &= bv.inside(x)
        if with_omega:
            w = (h / 3.0) * (1.0 if s == steps - 1 else (4.0 if s % 2 == 0 else 2.0))
            omega += w * np.einsum("bki,kl,blj->bij", jac, cmat, jac)
    return x, jac, omega


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# (structure, exit state): row 0 of each case leaves the box and freezes;
# the zero structure cannot move a point, so its row 0 starts outside.
# Row 1 starts outside the box in every case: it is flagged at once and
# never moves, on the constant path and on the stage loop alike
@pytest.mark.parametrize("bv,exit_state", [
    (flat_rank2_r3(), ([1.8, 1.8, 0.5], [-1.5, 1.5, 0.0])),
    (so3_star(), ([1.8, 1.8, 0.5], [-1.5, 1.5, 0.0])),
    # f dx^dy is Poisson on R^3 for any f
    (BivectorField(3, {(0, 1): "exp(z)*cos(x) + 2"}, domain=[[-2, 2]] * 3),
     ([1.8, 1.8, 0.5], [-1.5, 1.5, 0.0])),
    (symplectic_r4(), ([1.8, 1.8, 0.5, 0.5], [-1.5, 1.5, 0.0, 0.0])),
    (flat_rank2_r3s1(), ([0.5, 0.5, 3.8, 3.8], [0.0, 0.0, -1.5, 1.5])),
    (zero_structure(), ([2.5, 0.5, 0.5], [1.0, -1.0, 0.5])),
], ids=["constant", "linear", "non-polynomial", "symplectic-r4", "flat-r3s1", "zero"])
@pytest.mark.parametrize("with_omega", [False, True], ids=["jac", "omega"])
@pytest.mark.build_independent
def test_flow_matches_full_variational_reference_bitwise(bv, exit_state, with_omega):
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1.0, 1.0, (6, bv.dim))
    xi = rng.normal(scale=0.6, size=(6, bv.dim))
    x0[0], xi[0] = exit_state
    x0[1, 0] = bv.domain[0, 1] + 0.5
    res = flow(bv, x0, xi, steps=64, with_jac=True, with_omega=with_omega)
    x, jac, omega = flow_ref(bv, x0, xi, steps=64, with_omega=with_omega)
    assert res.exited[:2].all() and not res.exited.all()
    assert_bitwise(res.x[1], x0[1])
    assert_bitwise(res.x, x)
    assert_bitwise(res.jac, jac)
    if with_omega:
        assert_bitwise(res.omega, omega)
        # omega never feeds back into jac, so one jac + omega flow serves
        # every stage that needs only jac
        assert_bitwise(res.jac, flow(bv, x0, xi, steps=64, with_jac=True).jac)
    else:
        assert res.omega is None


@pytest.mark.build_independent
def test_linear_flow_forms_dpi_xi_once(monkeypatch):
    # dPI of so(3)* reads no coordinate and xi is frozen, so a jac or omega
    # flow forms dPI . xi once; the non-polynomial structure forms it at
    # each of the 4 stages of every step
    non_polynomial = BivectorField(3, {(0, 1): "exp(z)*cos(x) + 2"}, domain=[[-2, 2]] * 3)
    assert flat_rank2_r3().constant and flat_rank2_r3().linear
    assert so3_star().linear and not so3_star().constant
    assert not non_polynomial.linear
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1.0, 1.0, (3, 3))
    xi = rng.normal(scale=0.6, size=(3, 3))
    for bv, per_flow in ((so3_star(), 1), (non_polynomial, 4 * 32)):
        calls = []

        def counted(pts, real=bv.matrix_jac):
            calls.append(len(pts))
            return real(pts)

        monkeypatch.setattr(bv, "matrix_jac", counted)
        for kw in ({}, {"with_jac": True}, {"with_omega": True}):
            calls.clear()
            flow(bv, x0, xi, steps=32, **kw)
            assert calls == ([3] * per_flow if kw else [])
    # the entry 1/0 + x and the partial exp(1000) of x*exp(1000) both fail
    # at x0; PI is evaluated before dPI, as in every stage, so the flow
    # raises the entry's error
    bv = BivectorField(3, {(0, 1): "1/0 + x", (0, 2): "x*exp(1000)"}, certify=False)
    assert bv.linear and not bv.constant
    with pytest.raises(EvalError, match=r"^non-finite result from exp at point \(0.0, 0.0, 0.0\)$"):
        bv.matrix_jac(np.zeros((1, 3)))
    for kw in ({"with_jac": True}, {"with_omega": True}):
        with pytest.raises(EvalError) as err:
            flow(bv, np.zeros(3), np.ones(3), steps=16, **kw)
        assert str(err.value) == "non-finite result from division at point (0.0, 0.0, 0.0)"


# Pade coefficients of degree 13 for exp (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(a):
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant, Higham's algorithm for m = 13."""
    b = _PADE13
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))) if norm else 0
    a = a / 2.0**s
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def cross(v):
    """[v]_x, the matrix of w -> v x w."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def exact_so3_flow(x0, xi):
    """x, the full jac and the full averaged form of the so(3)* spray at t = 1.

    On so(3)*, PI(x) = -[x]_x, so x' = xi x x = M x with M = [xi]_x, and the
    variational block [A | B] solves A' = M A, B' = M B + PI(x).  With the
    integrals of A and B this is one linear system with constant
    coefficients, solved by one exponential of its block generator (Van
    Loan, IEEE TAC 23, 1978).  J^T C J = [[0, A^T], [-A, B^T - B]] for
    J = [[A, B], [0, I]], so the time average of the form needs only the
    integrals of A and of B.
    """
    eye = np.eye(3)
    m = cross(xi)
    rows = np.kron(m, eye)  # vec(M Y) for a row-major vec
    pi_of_x = np.stack([-cross(e).reshape(-1) for e in eye], axis=1)  # vec(PI(x)) = pi_of_x @ x
    x, a, b, int_a, int_b = (slice(0, 3), slice(3, 12), slice(12, 21), slice(21, 30),
                             slice(30, 39))
    gen = np.zeros((39, 39))
    gen[x, x] = m
    gen[a, a] = rows
    gen[b, x] = pi_of_x
    gen[b, b] = rows
    gen[int_a, a] = np.eye(9)
    gen[int_b, b] = np.eye(9)
    w = expm(gen) @ np.concatenate([x0, eye.ravel(), np.zeros(27)])
    a, b, int_a, int_b = (w[block].reshape(3, 3) for block in (a, b, int_a, int_b))
    zero = np.zeros((3, 3))
    return (w[x], np.block([[a, b], [zero, eye]]),
            np.block([[zero, int_a.T], [-int_a, int_b.T - int_b]]))


@pytest.mark.build_independent
def test_exact_variational_flow_on_so3():
    # the flow's x, full jac (the dx/dxi block too) and full omega (the
    # xi-xi block too) against the block exponential; each tolerance is a
    # multiple of the RK4 error of x at that step count, measured against
    # the same exact flow, whose fourth order is checked first
    rng = np.random.default_rng(10)
    xi = rng.normal(size=(3, 3))
    assert np.abs(expm(cross(xi[0])) - rodrigues(xi[0])).max() <= 1e-14
    bv = so3_star()
    x0 = rng.uniform(-1.0, 1.0, (6, 3))  # |x| <= sqrt(3): rotations stay in the box
    xi = rng.normal(size=(6, 3))
    xi *= rng.uniform(0.3, 1.5, (6, 1)) / np.linalg.norm(xi, axis=1, keepdims=True)
    x, jac, omega = (np.stack(block) for block in zip(*map(exact_so3_flow, x0, xi)))
    errs = []
    for steps in (16, 32, 64, 128):
        res = flow(bv, x0, xi, steps=steps, with_jac=True, with_omega=True)
        rk4 = np.abs(res.x - x).max()
        errs.append(rk4)
        assert np.abs(res.jac - jac).max() <= 8.0 * rk4
        assert np.abs(res.omega - omega).max() <= 8.0 * rk4
    assert all(12.0 <= e0 / e1 <= 20.0 for e0, e1 in zip(errs, errs[1:]))
