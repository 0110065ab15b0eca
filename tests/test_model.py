"""Local model and saturation pipeline, pinned against hand-derived values.

Closed forms used below (all derivable by hand):

  * x-axis in (R^3, dx^dy): TXperp = TX = span e1, W_G = span{e2,e3},
    J = e1*, sigma = 0, tau = 1, eta = [[0,-1],[1,0]] constant, flow
    model bivector [[0,-1],[1,0]], canonical-form model its negative,
    chart image (u, -zeta, 0) so P is the xy-plane.
  * ray (u+1, 0, 0) in the rotation-algebra dual: W = TX, tau = 0, and
    sigma at x = (x,0,0) is [[0,x],[-x,0]] in the canonical fiber frame.
  * presymplectic (R^3, dx^dy): kernel = span e3, Gotay ambient R^4
    with block bivector diag([[0,1],[-1,0]], [[0,1],[-1,0]]).
"""

import numpy as np
import pytest

from poissat import cli, field, model, submanifold
from poissat.fixtures import FIXTURES
from poissat.linear import (
    NotPoisson,
    RankDeficient,
    SkewForm,
    dirac_graph,
    null,
    orth,
    principal_angles,
    rank_svd,
    subspace_equal,
)


@pytest.fixture(scope="module")
def coiso_line():
    bv = field.flat_rank2_r3()
    chart = submanifold.Chart(1, 3, ["u", "0", "0"], domain=[[-1.0, 1.0]])
    return bv, chart


@pytest.fixture(scope="module")
def so3_ray():
    bv = field.so3_star()
    chart = submanifold.Chart(1, 3, ["u + 1", "0", "0"], domain=[[-0.5, 0.5]])
    return bv, chart


@pytest.fixture(scope="module")
def iso_line_r4():
    bv = field.symplectic_r4()
    chart = submanifold.Chart(1, 4, ["0", "u", "0", "0"], domain=[[-1.0, 1.0]])
    return bv, chart


@pytest.fixture(scope="module")
def sphere_so3():
    bv = field.so3_star()
    chart = submanifold.Chart(
        2, 3, ["cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)"],
        domain=[[-0.6, 0.6], [-0.6, 0.6]])
    return bv, chart


# --- complements ---


def test_default_complement_frames(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="default")
    fr = comp.at([0.3])
    assert comp.rank_perp == 1
    assert subspace_equal(fr.w, np.eye(3)[:, 1:])
    assert np.allclose(fr.j.ravel(), [1.0, 0.0, 0.0])
    # complement spans with TXperp and is annihilated by j
    assert rank_svd(np.hstack([fr.txperp, fr.w]))[0] == 3
    assert np.abs(fr.w.T @ fr.j).max() <= 1e-12


def test_coisotropic_complement_conditions(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    for u in chart.grid(5):
        fr = comp.at(u)
        # independent rank checks of the two defining conditions
        p = bv.matrix_at(fr.x)
        image = p @ null(fr.w.T)
        assert np.abs(image - orth(fr.w) @ (orth(fr.w).T @ image)).max() <= 1e-10
        cap = model.subspace_intersect(fr.w, fr.tx)
        assert cap.shape[1] == 0  # G = 0 for this fixture
        assert fr.conditions["sharp_w0_in_w"] <= 1e-10
        assert fr.conditions["w_cap_tx_is_g"]


def test_coisotropic_mode_rejects_transversal(so3_ray):
    bv, chart = so3_ray
    with pytest.raises(RankDeficient):
        model.ComplementChoice(bv, chart, mode="coisotropic")


def test_pre_poisson_complement_conditions(iso_line_r4):
    bv, chart = iso_line_r4
    comp = model.ComplementChoice(bv, chart, mode="pre_poisson")
    assert comp.rank_perp == 3
    assert comp.cap_dim == 1
    for u in chart.grid(5):
        fr = comp.at(u)
        p = bv.matrix_at(fr.x)
        # sharp((H + W)^0) inside W, by rank test
        h = fr.txperp[:, fr.cap_dim:]
        ann = null(np.hstack([h, fr.w]).T)
        image = p @ ann
        q = orth(fr.w)
        assert np.abs(image - q @ (q.T @ image)).max() <= 1e-10
        # W cap TX = G, and here G complements the cap inside TX
        cap_w = model.subspace_intersect(fr.w, fr.tx)
        assert cap_w.shape[1] == 0
        assert fr.conditions["sharp_hw0_in_w"] <= 1e-10
        assert fr.conditions["w_cap_tx_is_g"]


def test_complement_frames_vary_smoothly(so3_ray):
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    prev = comp.at([0.0])
    for u in np.linspace(0.0, 0.4, 9)[1:]:
        cur = comp.at([u])
        assert np.abs(cur.j - prev.j).max() < 0.2
        assert np.abs(cur.w - prev.w).max() < 0.2
        prev = cur


def test_custom_complement_rank_guard(coiso_line):
    bv, chart = coiso_line
    w_bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        model.ComplementChoice(bv, chart, mode="custom", w=w_bad)


# --- sigma, tau, eta ---


def test_sigma_tau_coiso_line(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    sigma, tau = model.sigma_tau(bv, chart, comp, [0.3])
    assert np.abs(sigma.matrix).max() == 0.0
    assert np.allclose(tau, [[1.0]])


def test_sigma_tau_transversal_ray(so3_ray):
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    # W = TX for this fixture, so tau vanishes to machine precision
    assert subspace_equal(comp.at([0.2]).w, np.eye(3)[:, :1])
    for u in chart.grid(5):
        sigma, tau = model.sigma_tau(bv, chart, comp, u)
        assert np.abs(tau).max() <= 1e-14
        x = float(u[0]) + 1.0
        assert np.allclose(np.abs(sigma.matrix), [[0.0, x], [x, 0.0]], atol=1e-12)
        assert sigma.rank() == 2


def test_sigma_zero_structure():
    bv = field.zero_structure(3)
    chart = submanifold.Chart(1, 3, ["u", "0", "0"], domain=[[-1.0, 1.0]])
    comp = model.ComplementChoice(bv, chart, mode="default")
    assert comp.rank_perp == 0
    sigma, tau = model.sigma_tau(bv, chart, comp, [0.2])
    assert sigma.matrix.shape == (0, 0)
    assert tau.shape == (1, 0)


def test_eta_zero_section_identity_all_fixtures(coiso_line, so3_ray, iso_line_r4, sphere_so3):
    for bv, chart, mode in (
        (*coiso_line, "coisotropic"),
        (*so3_ray, "default"),
        (*iso_line_r4, "pre_poisson"),
        (*sphere_so3, "default"),
    ):
        comp = model.ComplementChoice(bv, chart, mode=mode)
        for u in chart.grid(3):
            eta = model.eta_canonical(bv, chart, comp, u, np.zeros(comp.rank_perp), steps=1024)
            assert np.abs(eta - model.eta_zero_section(bv, chart, comp, u)).max() <= 1e-6


def test_eta_constant_structure_exact(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    eta = model.eta_canonical(bv, chart, comp, [0.3], [0.15], steps=64)
    assert np.allclose(eta, [[0.0, -1.0], [1.0, 0.0]], atol=1e-13)
    # flow eta agrees with minus the canonical-form gauge
    eta_can = model.eta_canonical_form_source(bv, chart, comp, [0.3], [0.15])
    assert np.abs(eta + eta_can).max() <= 1e-10


def test_eta_closedness(coiso_line, so3_ray):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    assert model.eta_closedness_residual(bv, chart, comp, [0.1], [0.05], steps=64) <= 1e-12
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    resid = model.eta_closedness_residual(bv, chart, comp, [0.1], [0.02, -0.01], steps=256)
    assert resid <= 1e-6


# --- local model bivector ---


def test_model_bivector_coiso_line_closed_form(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    p = model.local_model_bivector(bv, chart, comp, [0.3], [0.15], steps=64)
    assert np.allclose(p.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    # canonical-form route gives the reflected model (coisotropic sign)
    pc = model.local_model_bivector(bv, chart, comp, [0.3], [0.15], steps=64,
                                    eta_source="canonical_form")
    assert np.allclose(pc.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    m = np.diag([1.0, -1.0])
    assert np.allclose(m @ pc.matrix @ m.T, p.matrix, atol=1e-12)


def test_model_bivector_ray_rank(so3_ray):
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    p0 = model.local_model_bivector(bv, chart, comp, [0.2], [0.0, 0.0], steps=256)
    sigma, _ = model.sigma_tau(bv, chart, comp, [0.2])
    assert rank_svd(p0.matrix)[0] == sigma.rank() == 2


def test_model_bivector_zero_structure():
    bv = field.zero_structure(3)
    chart = submanifold.Chart(1, 3, ["u", "0", "0"], domain=[[-1.0, 1.0]])
    comp = model.ComplementChoice(bv, chart, mode="default")
    p = model.local_model_bivector(bv, chart, comp, [0.4], [], steps=16)
    assert p.matrix.shape == (1, 1)
    assert np.abs(p.matrix).max() == 0.0


def test_model_matches_gotay_at_zero_section(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    # induced Dirac data on the line is the zero bivector in dim 1
    got = model.gotay_embedding(1, SkewForm(np.zeros((1, 1))))
    assert got.fiber_dim == 1
    pg = got.bivector_at([0.3], [0.0])
    pc = model.local_model_bivector(bv, chart, comp, [0.3], [0.0], steps=64,
                                    eta_source="canonical_form")
    assert np.allclose(pc.matrix, pg, atol=1e-12)


def test_extraction_radius_positive(coiso_line, so3_ray):
    for bv, chart, mode in ((*coiso_line, "coisotropic"), (*so3_ray, "default")):
        comp = model.ComplementChoice(bv, chart, mode=mode)
        assert model.extraction_radius(bv, chart, comp, chart.center(), steps=64) > 0


# --- saturation chart ---


def test_saturation_coiso_line(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    sat = model.saturation_chart(bv, chart, comp, steps=256, u_counts=5, radius=0.2)
    assert np.abs(sat.points[:, 2]).max() <= 1e-8
    for jac in sat.jacs:
        assert rank_svd(jac)[0] == 2
    rep = model.verify_saturation_poisson(bv, sat, tol=1e-8)
    assert rep["ok"]
    land = model.full_fiber_landing(sat)
    assert land["ok"] and (land["checked"], land["skipped"]) == (10, 0)


def test_landing_fails_when_every_probe_leaves_the_box(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    sat = model.saturation_chart(bv, chart, comp, steps=16, u_counts=3, radius=0.2)
    land = model.full_fiber_landing(sat, radius=1e3)
    assert (land["checked"], land["skipped"]) == (0, 10)
    assert land["max_distance"] == 0.0 and not land["ok"]


def test_saturation_sphere_rank0(sphere_so3):
    bv, chart = sphere_so3
    comp = model.ComplementChoice(bv, chart, mode="default")
    assert comp.rank_perp == 0
    sat = model.saturation_chart(bv, chart, comp, steps=64, u_counts=3)
    # P = X: image points stay on the unit level set of the invariant
    assert np.abs(np.linalg.norm(sat.points, axis=1) - 1.0).max() <= 1e-12
    assert model.verify_saturation_poisson(bv, sat, tol=1e-9)["ok"]
    assert model.full_fiber_landing(sat)["ok"]


def test_saturation_ray_open(so3_ray):
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    sat = model.saturation_chart(bv, chart, comp, steps=256, u_counts=3, radius=0.05)
    for jac in sat.jacs:
        assert rank_svd(jac)[0] == 3
    assert model.verify_saturation_poisson(bv, sat, tol=1e-8)["ok"]


def test_saturation_radius_halving():
    bv = field.flat_rank2_r3()
    # chart near the domain wall: y-flows exit at radius 1, so the fiber
    # radius must be halved at least once and recorded
    chart = submanifold.Chart(1, 3, ["u", "1.5", "0"], domain=[[-1.0, 1.0]])
    comp = model.ComplementChoice(bv, chart, mode="default")
    sat = model.saturation_chart(bv, chart, comp, steps=64, radius=1.0)
    assert sat.radius_used < 1.0
    assert sat.radius_used >= model.RADIUS_FLOOR


# --- normal form ---


def test_normal_form_constant_structures(coiso_line):
    bv, chart = coiso_line
    for mode in ("default", "coisotropic"):
        comp = model.ComplementChoice(bv, chart, mode=mode)
        rep = model.verify_normal_form(bv, chart, comp, steps=1024, radius=0.2, tol=1e-5)
        assert rep["ok"], rep
    bv4 = field.symplectic_r4()
    # the (x1, x2)-plane is a symplectic transversal; the (x1, x3)-plane
    # is Lagrangian, hence coisotropic
    plane = submanifold.Chart(2, 4, ["u1", "u2", "0", "0"], domain=[[-1, 1], [-1, 1]])
    comp4 = model.ComplementChoice(bv4, plane, mode="default")
    rep4 = model.verify_normal_form(bv4, plane, comp4, steps=1024, radius=0.2, tol=1e-5)
    assert rep4["ok"], rep4
    lag = submanifold.Chart(2, 4, ["u1", "0", "u2", "0"], domain=[[-1, 1], [-1, 1]])
    comp_lag = model.ComplementChoice(bv4, lag, mode="coisotropic")
    rep_lag = model.verify_normal_form(bv4, lag, comp_lag, steps=1024, radius=0.2, tol=1e-5)
    assert rep_lag["ok"], rep_lag


def test_normal_form_ray(so3_ray):
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    rep = model.verify_normal_form(bv, chart, comp, steps=1024, radius=0.05, tol=1e-4)
    assert rep["ok"], rep


def test_normal_form_step_convergence(so3_ray):
    # mismatch falls (or stays at the floor) when steps double
    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="default")
    coarse = model.verify_normal_form(bv, chart, comp, steps=64, radius=0.05)
    fine = model.verify_normal_form(bv, chart, comp, steps=128, radius=0.05)
    assert fine["max_mismatch"] <= coarse["max_mismatch"] + 1e-12


# --- tubular map ---


def test_tubular_map_coiso_line(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    sat = model.saturation_chart(bv, chart, comp, steps=64, u_counts=3, radius=0.2)
    val0, _ = model.tubular_map(bv, chart, comp, sat, [0.3], [0.1], [0.0])
    point, jac = model.tubular_map(bv, chart, comp, sat, [0.3], [0.1], [0.25])
    assert np.allclose(val0, [0.3, -0.1, 0.0], atol=1e-12)
    assert np.allclose(point - val0, [0.0, 0.0, 0.25], atol=1e-12)
    assert jac.shape == (3, 3)
    rep = model.tubular_rank_check(bv, chart, comp, sat, count=50)
    assert rep["ok"]


def test_tubular_rank_check_flows_once(coiso_line, monkeypatch):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    sat = model.saturation_chart(bv, chart, comp, steps=64, u_counts=3, radius=0.2)
    # reference: the same draws, one tubular_map (one single-row flow) per state
    rng = np.random.default_rng(2)
    ref = {"ok": True, "samples": 50}
    for u in chart.sample(50, seed=2):
        zeta = rng.normal(size=1)
        zeta *= 0.1 * rng.uniform(0, 1) / max(np.linalg.norm(zeta), 1e-12)
        _, dpsi = model.tubular_map(bv, chart, comp, sat, u, zeta, rng.uniform(-0.1, 0.1, 1))
        if rank_svd(dpsi)[0] != bv.dim:
            ref = {"ok": False, "witness": tuple(float(x) for x in u)}
            break
    calls = []
    real_flow = model.flow

    def counting_flow(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[1])))
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(model, "flow", counting_flow)
    assert model.tubular_rank_check(bv, chart, comp, sat, count=50) == ref
    assert calls == [50]


# --- model independence ---


def test_compare_complements_coiso_line(coiso_line):
    bv, chart = coiso_line
    comp_a = model.ComplementChoice(bv, chart, mode="default")
    comp_b = model.ComplementChoice(bv, chart, mode="coisotropic")
    rep = model.compare_complements(bv, chart, comp_a, comp_b, steps=256, count=10)
    assert rep["ok"], rep


def test_compare_complements_fails_when_nothing_extracts(coiso_line, monkeypatch):
    bv, chart = coiso_line
    comp_a = model.ComplementChoice(bv, chart, mode="default")
    comp_b = model.ComplementChoice(bv, chart, mode="coisotropic")

    def never_extracts(space):
        raise NotPoisson("no bivector presentation", 1)

    monkeypatch.setattr(model, "dirac_to_bivector", never_extracts)
    rep = model.compare_complements(bv, chart, comp_a, comp_b, steps=16, count=5)
    assert (rep["checked"], rep["skipped"]) == (0, 5)
    assert rep["max_mismatch"] == 0.0 and not rep["ok"]


def test_compare_complements_skewed(coiso_line):
    # a genuinely different complement: sheared against the fiber
    bv, chart = coiso_line
    w_skew = np.array([[0.3, 0.2], [1.0, 0.0], [0.0, 1.0]])
    comp_a = model.ComplementChoice(bv, chart, mode="default")
    comp_b = model.ComplementChoice(bv, chart, mode="custom", w=w_skew)
    rep = model.compare_complements(bv, chart, comp_a, comp_b, steps=256, count=10)
    assert rep["ok"], rep
    assert rep["max_projection_distance"] <= 1e-8


# --- batched bundle flows ---


def scene_parts(name):
    sc = cli.parse_scene(FIXTURES[name])
    bv = cli.build_bivector(sc)
    chart = cli.build_chart(sc, bv.dim)
    return bv, chart, cli.build_complement(sc, bv, chart)


def project_one(sat, y, init, max_iter=50, tol=1e-10):
    """Per-probe Gauss-Newton reference: one single-row flow per iteration."""
    p = np.asarray(init, dtype=float).copy()
    k = sat.chart.param_dim
    best = (np.inf, p.copy())
    for _ in range(max_iter):
        vals, jacs = sat.map_and_jac([p[:k]], [p[k:]])
        resid = y - vals[0]
        dist = np.linalg.norm(resid)
        if dist < best[0]:
            best = (dist, p.copy())
        if dist <= tol:
            break
        step, *_ = np.linalg.lstsq(jacs[0], resid, rcond=None)
        if np.linalg.norm(step) > 1.0:
            step *= 1.0 / np.linalg.norm(step)
        p = p + step
    return best[1], best[0]


@pytest.mark.parametrize("name", ["transversal-ray", "coiso-line"])
@pytest.mark.parametrize("max_iter", [50, 2])
def test_lockstep_project_matches_per_probe_loop(name, max_iter):
    bv, chart, comp = scene_parts(name)
    sat = model.saturation_chart(bv, chart, comp, steps=32, u_counts=3, radius=0.05)
    rng = np.random.default_rng(5)
    us = chart.sample(5, seed=6)
    covs = rng.normal(size=(5, bv.dim))
    covs *= 0.05 / np.linalg.norm(covs, axis=1, keepdims=True)
    ys = model.flow(bv, np.stack([chart.point_at(u) for u in us]), covs, steps=32).x
    inits = np.hstack([us, np.zeros((5, comp.rank_perp))])
    # the last probe starts on its own target, so it stops at the first
    # iteration while the others go on: the stop masks must keep them apart
    k = chart.param_dim
    ys[-1] = sat.map_and_jac(inits[-1:, :k], inits[-1:, k:])[0][0]
    params, dists = sat.project(ys, inits, max_iter=max_iter)
    assert dists[-1] == 0.0
    for i in range(5):
        ref_p, ref_d = project_one(sat, ys[i], inits[i], max_iter=max_iter)
        assert np.array_equal(params[i], ref_p) and dists[i] == ref_d


@pytest.mark.parametrize("name", ["transversal-ray", "coiso-line"])
def test_batched_eta_forms_match_per_row_eta(name):
    bv, chart, comp = scene_parts(name)
    rng = np.random.default_rng(8)
    us = chart.sample(4, seed=9)
    zetas = 0.05 * rng.uniform(-1.0, 1.0, size=(4, comp.rank_perp))
    etas = model.eta_forms(bv, comp, us, zetas, steps=32)
    for u, z, eta in zip(us, zetas, etas):
        assert np.array_equal(eta, model.eta_canonical(bv, chart, comp, u, z, steps=32))


# --- Gotay embedding ---


def test_gotay_presymplectic_plane_closed_form():
    omega = SkewForm(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    got = model.gotay_embedding(3, omega)
    assert got.fiber_dim == 1
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.allclose(got.bivector_at(np.zeros(3), np.zeros(1)), expected, atol=1e-12)
    rep = got.verify(samples=20)
    assert rep["coisotropy"] <= 1e-10
    assert rep["reproduction_angle"] <= 1e-8
    assert rep["jacobi_fd"] <= 1e-10


def test_gotay_symplectic_input_inverts():
    omega = SkewForm(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    got = model.gotay_embedding(2, omega)
    assert got.fiber_dim == 0
    p = got.bivector_at(np.zeros(2), [])
    assert np.allclose(p, np.linalg.inv(omega.matrix).T * -1.0, atol=1e-12) or np.allclose(
        p, -np.linalg.inv(omega.matrix), atol=1e-12)


def test_gotay_fully_isotropic_tangent():
    # L = TX-graph (zero two-form): ambient is the full cotangent chart
    got = model.gotay_embedding(2, SkewForm(np.zeros((2, 2))))
    assert got.fiber_dim == 2
    rep = got.verify(samples=10)
    assert rep["coisotropy"] <= 1e-10
    assert rep["reproduction_angle"] <= 1e-8
    assert rep["jacobi_fd"] <= 1e-10


def test_gotay_nonconstant_kernel_rejected():
    def l_at(x):
        c = SkewForm(np.array([[0.0, float(x[0])], [-float(x[0]), 0.0]]))
        return dirac_graph(c, "two_form")

    with pytest.raises(RankDeficient):
        got = model.GotayModel(2, l_at)
        for t in np.linspace(-0.2, 0.2, 5):
            got.bivector_at([t, 0.0], np.zeros(got.fiber_dim))


# --- Marle invariants ---


def test_marle_invariants_pre_poisson(iso_line_r4):
    bv, chart = iso_line_r4
    comp = model.ComplementChoice(bv, chart, mode="pre_poisson")
    rows = model.marle_invariants(bv, chart, comp, chart.grid(5))
    for row in rows:
        assert row["cross_residual"] <= 1e-10
        assert np.allclose(np.abs(row["quotient"].matrix), [[0.0, 1.0], [1.0, 0.0]], atol=1e-10)
        assert row["dirac"].n == 1


def test_marle_quotient_specializations(coiso_line, so3_ray):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="pre_poisson")
    rows = model.marle_invariants(bv, chart, comp, [[0.1]])
    assert rows[0]["quotient"].matrix.shape == (0, 0)

    bv, chart = so3_ray
    comp = model.ComplementChoice(bv, chart, mode="pre_poisson")
    sigma, _ = model.sigma_tau(bv, chart, comp, [0.2])
    rows = model.marle_invariants(bv, chart, comp, [[0.2]])
    assert np.allclose(rows[0]["quotient"].matrix, sigma.matrix, atol=1e-12)


def test_marle_requires_pre_poisson_mode(coiso_line):
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="default")
    with pytest.raises(ValueError):
        model.marle_invariants(bv, chart, comp, [[0.0]])


# --- fiberwise reflection identity ---


def test_fiberwise_reflection_identity_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        a = rng.normal(size=(k, k))
        a = a - a.T
        b = rng.normal(size=(k, r))
        if rng.random() < 0.5:
            l_base = dirac_graph(SkewForm(rng.normal(size=(k, k))), "two_form")
        else:
            l_base = dirac_graph(SkewForm(rng.normal(size=(k, k))).matrix, "bivector")
        assert model.fiberwise_reflection_residual(l_base, a, b) <= 1e-12


def test_fiberwise_reflection_on_fixture_models(coiso_line):
    # the two eta-source models are exactly conjugate under the fiber flip
    bv, chart = coiso_line
    comp = model.ComplementChoice(bv, chart, mode="coisotropic")
    m = np.diag([1.0, -1.0])
    for u, z in (([0.2], [0.1]), ([-0.4], [0.07])):
        p_flow = model.local_model_bivector(bv, chart, comp, u, z, steps=64)
        p_can = model.local_model_bivector(bv, chart, comp, u, [-z[0]], steps=64,
                                           eta_source="canonical_form")
        assert np.allclose(m @ p_can.matrix @ m.T, p_flow.matrix, atol=1e-12)
