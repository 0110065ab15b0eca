"""Acceptance gate: the twelve shipped criteria, one line each.

Every test recomputes its quantities through the public API and checks
them against independently derived expectations at the stated
tolerances; run with -s to see the summary lines.
"""

import numpy as np

from poissat import model
from poissat.field import (
    BivectorField,
    flat_rank2_r3,
    flat_rank2_r3s1,
    jacobi_residual,
    log_symplectic_plane,
    so3_star,
    symplectic_r4,
    zero_structure,
)
from poissat.linear import dirac_graph, null, orth, principal_angles, rank_svd, subspace_intersect
from poissat.model import (
    ComplementChoice,
    GotayModel,
    compare_complements,
    full_fiber_landing,
    saturation_chart,
    saturation_residuals,
    sigma_tau,
    verify_normal_form,
)
from poissat.sprayflow import dual_pair_check, exp_chi, flow, cotangent_path_residual
from poissat.submanifold import Chart, regularity_scan


def _line(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _all_structures():
    return [so3_star(), log_symplectic_plane(), flat_rank2_r3(), symplectic_r4(),
            flat_rank2_r3s1(), zero_structure()]


def _half_box_states(bv, count, xi_radius, seed):
    rng = np.random.default_rng(seed)
    lo, hi = bv.domain[:, 0] / 2, bv.domain[:, 1] / 2
    x = rng.uniform(lo, hi, size=(count, bv.dim))
    xi = rng.normal(size=(count, bv.dim))
    if xi_radius == 0.0:
        xi[:] = 0.0
    else:
        xi *= xi_radius / np.linalg.norm(xi, axis=1, keepdims=True)
    return x, xi


def coiso_line():
    return flat_rank2_r3(), Chart(1, 3, ["u", "0", "0"])


def sympl_plane():
    return symplectic_r4(), Chart(2, 4, ["u", "v", "0", "0"])


def so3_ray():
    return so3_star(), Chart(1, 3, ["u + 1", "0", "0"], domain=[[-0.5, 0.5]])


def test_criterion_01_regularity_verdicts():
    so3 = so3_star()
    plane = regularity_scan(so3, Chart(2, 3, ["u", "v", "0"]))
    cubic = regularity_scan(flat_rank2_r3(), Chart(2, 3, ["u", "v", "u^3"]))
    fig8 = regularity_scan(flat_rank2_r3s1(),
                           Chart(2, 4, ["sin(2*t)", "sin(t)", "t", "th"],
                                 domain=[[-3, 3], [-3, 3]], names=["t", "th"]))
    r4 = symplectic_r4()
    flat4 = regularity_scan(r4, Chart(2, 4, ["u", "v", "0", "0"]))
    curved4 = regularity_scan(r4, Chart(2, 4, ["u", "v", "0.3*sin(u)", "0.2*u*v"]))
    ok = (not plane.regular_on_samples
          and np.allclose(plane.witnesses[0], (0.0, 0.0))
          and not cubic.regular_on_samples
          and abs(cubic.witnesses[0][0]) <= 1e-12
          and fig8.regular_on_samples and fig8.rank == 1
          and flat4.regular_on_samples and flat4.rank == 2
          and curved4.regular_on_samples and curved4.rank == 2)
    _line(1, "regularity verdicts", ok,
          f"plane witness {plane.witnesses.get(0)}, cubic witness {cubic.witnesses.get(0)}, "
          f"fig8 rank {sorted(fig8.witnesses)}, R4 ranks {sorted(flat4.witnesses)}"
          f"/{sorted(curved4.witnesses)}")


def test_criterion_02_jacobi_certificates():
    rng = np.random.default_rng(2)
    worst = 0.0
    for bv in _all_structures():
        pts = rng.uniform(bv.domain[:, 0], bv.domain[:, 1], size=(1000, bv.dim))
        worst = max(worst, float(jacobi_residual(bv, pts).max()))
    bad = BivectorField(3, {(0, 1): "z + 0.1*x^2", (1, 2): "x", (2, 0): "y"},
                        domain=[[-2, 2]] * 3, certify=False)
    pts = rng.uniform(-2, 2, size=(1000, 3))
    control = float(jacobi_residual(bad, pts).max())
    ok = worst <= 1e-10 and control > 0.1
    _line(2, "jacobi residuals", ok,
          f"max fixture residual {worst:.2e}, corrupted control {control:.3f}")


def _averaged_form_error(bv, steps, count, seed):
    x, xi = _half_box_states(bv, count, 0.0, seed)
    res = flow(bv, x, xi, steps=steps, with_omega=True)
    assert not res.exited.any()
    n = bv.dim
    worst = 0.0
    for i in range(count):
        expected = np.zeros((2 * n, 2 * n))
        expected[:n, n:] = np.eye(n)
        expected[n:, :n] = -np.eye(n)
        expected[n:, n:] = bv.matrix_at(x[i]).T
        worst = max(worst, float(np.abs(res.omega[i] - expected).max()))
    return worst


def test_criterion_03_averaged_form_zero_section():
    details = []
    ok = True
    for bv, name in ((so3_star(), "so3"), (symplectic_r4(), "r4")):
        err_n = _averaged_form_error(bv, 512, 50, seed=3)
        err_2n = _averaged_form_error(bv, 1024, 50, seed=3)
        # identity is machine-exact at the zero section, so the doubling
        # clause is floor-guarded against accumulated roundoff
        ok = ok and err_2n <= 1e-6 and err_2n <= err_n / 12.0 + 1e-13
        details.append(f"{name}: {err_2n:.2e} (N/2: {err_n:.2e})")
    # off the zero section the truncation error is resolvable and the
    # fourth-order fall is genuine
    so3 = so3_star()
    x1, k1 = np.array([[0.8, 0.1, -0.2]]), np.array([[0.3, 0.4, 0.5]])
    ref = flow(so3, x1, k1, steps=4096, with_omega=True).omega[0]
    e64, e128 = (float(np.abs(flow(so3, x1, k1, steps=s, with_omega=True).omega[0]
                              - ref).max()) for s in (64, 128))
    ok = ok and e64 / e128 >= 12.0
    details.append(f"off-section fall {e64 / e128:.1f}x")
    _line(3, "averaged-form identity", ok, "; ".join(details))


def test_criterion_04_exponential_differential():
    worst_fd, worst_id = 0.0, 0.0
    h = 1e-5
    for bv in _all_structures():
        n = bv.dim
        x, xi = _half_box_states(bv, 10, 0.0, seed=4)
        res = flow(bv, x, xi, steps=256, with_jac=True)
        assert not res.exited.any()
        for i in range(10):
            dexp = res.jac[i][:n, :]
            worst_id = max(worst_id, float(np.abs(
                dexp - np.hstack([np.eye(n), bv.matrix_at(x[i])])).max()))
        states = np.concatenate([x, xi], axis=1)
        bumps = np.vstack([np.eye(2 * n), -np.eye(2 * n)]) * h
        probes = (states[:, None, :] + bumps[None, :, :]).reshape(-1, 2 * n)
        ends = exp_chi(bv, probes[:, :n], probes[:, n:], steps=256)
        ends = ends.reshape(10, 2, 2 * n, n)
        fd = np.swapaxes((ends[:, 0] - ends[:, 1]) / (2 * h), 1, 2)
        jacs = res.jac[:, :n, :]
        worst_fd = max(worst_fd, float(np.abs(fd - jacs).max()))
    ok = worst_fd <= 1e-5 and worst_id <= 1e-10
    _line(4, "exponential differential", ok,
          f"vs finite differences {worst_fd:.2e}, zero-section identity {worst_id:.2e}")


def test_criterion_05_cotangent_paths():
    worst = 0.0
    for bv in _all_structures():
        x, xi = _half_box_states(bv, 100, 0.1, seed=5)
        res = flow(bv, x, xi, steps=1024, with_traj=True)
        assert not res.exited.any()
        worst = max(worst, float(cotangent_path_residual(bv, res).max()))
    ok = worst <= 1e-8
    _line(5, "cotangent paths", ok, f"max node residual {worst:.2e}")


def test_criterion_06_saturation_geometry():
    bv, chart = coiso_line()
    comp = ComplementChoice(bv, chart, mode="coisotropic")
    sat = saturation_chart(comp, u_counts=5, radius=0.2, per_u=3)
    planar = float(np.abs(sat.points[:, 2]).max())
    ranks_ok = all(rank_svd(j)[0] == 2 for j in sat.jacs)
    resid = float(saturation_residuals(sat).max())
    land = full_fiber_landing(sat, radius=0.05)

    so3 = so3_star()
    sphere = Chart(2, 3, ["cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)"],
                   domain=[[-0.6, 0.6]] * 2)
    comp_s = ComplementChoice(so3, sphere, mode="default")
    sat_s = saturation_chart(comp_s, u_counts=5)
    on_chart = float(np.abs(sat_s.points - sphere.points(sat_s.us)).max())
    ok = (planar <= 1e-8 and ranks_ok and resid <= 1e-8
          and land["checked"] > 0 and land["max_distance"] <= 1e-4
          and comp_s.rank_perp == 0 and sat_s.model_dim == 2 and on_chart <= 1e-12)
    _line(6, "saturation geometry", ok,
          f"line: |z| {planar:.2e}, residual {resid:.2e}; "
          f"sphere: fiber rank {comp_s.rank_perp}, P vs X {on_chart:.2e}")


def test_criterion_07_dual_pair():
    details = []
    ok = True
    for (bv, chart), name in ((coiso_line(), "line"), (sympl_plane(), "plane")):
        for u in chart.grid(3):
            rep = dual_pair_check(bv, chart, u)
            ok = (ok and rep["pairing"] <= 1e-8
                  and rep["triple_dim"] == rep["triple_expected"]
                  and rep["realization_dim"] == rep["realization_expected"])
        details.append(f"{name}: pairing {rep['pairing']:.2e}, "
                       f"triple rank {rep['triple_dim']}={rep['triple_expected']}")
    _line(7, "dual pair conditions", ok, "; ".join(details))


def test_criterion_08_normal_form():
    bv, chart = coiso_line()
    rep_line = verify_normal_form(
        saturation_chart(ComplementChoice(bv, chart, mode="coisotropic"), radius=0.2))
    bv4, plane = sympl_plane()
    rep_plane = verify_normal_form(saturation_chart(ComplementChoice(bv4, plane), radius=0.2))
    so3, ray = so3_ray()
    rep_ray = verify_normal_form(saturation_chart(ComplementChoice(so3, ray), radius=0.05))
    ok = (rep_line["max_mismatch"] <= 1e-5 and rep_plane["max_mismatch"] <= 1e-5
          and rep_ray["max_mismatch"] <= 1e-4)
    _line(8, "normal form pushforward", ok,
          f"line {rep_line['max_mismatch']:.2e}, plane {rep_plane['max_mismatch']:.2e}, "
          f"ray {rep_ray['max_mismatch']:.2e}")


def _complement_conditions(bv, chart, comp, us):
    """Independent rank tests of the two defining conditions of W.

    The expected G is rebuilt from raw point data (the Euclidean default
    the constructor uses), never read off the frame's column layout.
    """
    worst_sharp, worst_cap = 0.0, 0.0
    for u in us:
        fr = comp.at(u)
        p = bv.matrix_at(fr.x)
        if comp.mode == "pre_poisson":
            span = np.hstack([fr.txperp[:, fr.cap_dim:], fr.w])
            anchor = fr.txperp[:, :fr.cap_dim]
        else:
            span = fr.w
            anchor = fr.txperp
        image = p @ null(span.T)
        if image.size:
            q = orth(fr.w)
            worst_sharp = max(worst_sharp, float(np.abs(image - q @ (q.T @ image)).max()))
            if rank_svd(np.hstack([fr.w, image]))[0] != fr.w.shape[1]:
                worst_sharp = max(worst_sharp, 1.0)
        cap_wtx = subspace_intersect(fr.w, fr.tx)
        coeff = null(anchor.T @ fr.tx) if anchor.size else np.eye(chart.param_dim)
        g_exp = fr.tx @ coeff if coeff.size else fr.tx[:, :0]
        if cap_wtx.shape[1] != g_exp.shape[1]:
            worst_cap = max(worst_cap, 1.0)
        elif cap_wtx.shape[1]:
            ang = principal_angles(cap_wtx, g_exp)
            worst_cap = max(worst_cap, float(ang.max()) if ang.size else 0.0)
    return worst_sharp, worst_cap


def fig8_chart():
    return Chart(2, 4, ["sin(2*t)", "sin(t)", "t", "th"],
                 domain=[[-3, 3], [-3, 3]], names=["t", "th"])


def test_criterion_09_specialization_identities():
    so3, ray = so3_ray()
    comp_t = ComplementChoice(so3, ray)
    tau_worst = 0.0
    for u in ray.grid(5):
        _, tau = sigma_tau(comp_t, u)
        tau_worst = max(tau_worst, float(np.abs(tau).max()))

    # sigma vanishes with the constructed splitting on every coisotropic
    # case, including fiber rank 2 (Lagrangian plane) and 1-dim G (curve)
    sigma_worst = 0.0
    sharp_worst, cap_worst = 0.0, 0.0
    bv4 = symplectic_r4()
    cases = [coiso_line() + ("coisotropic",),
             (bv4, Chart(2, 4, ["u", "0", "v", "0"]), "coisotropic"),
             (flat_rank2_r3s1(), fig8_chart(), "coisotropic"),
             (bv4, Chart(1, 4, ["0", "u", "0", "0"]), "pre_poisson")]
    for bv, chart, mode in cases:
        comp = ComplementChoice(bv, chart, mode=mode)
        for u in chart.grid(3):
            sigma, _ = sigma_tau(comp, u)
            if mode == "coisotropic" and sigma.size:
                sigma_worst = max(sigma_worst, float(np.abs(sigma).max()))
        sharp, cap = _complement_conditions(bv, chart, comp, chart.grid(3))
        sharp_worst = max(sharp_worst, sharp)
        cap_worst = max(cap_worst, cap)
    ok = (tau_worst <= 1e-14 and sigma_worst <= 1e-14
          and max(sharp_worst, cap_worst) <= 1e-10)
    _line(9, "specialization identities", ok,
          f"tau {tau_worst:.2e}, sigma {sigma_worst:.2e}, "
          f"conditions {sharp_worst:.2e}/{cap_worst:.2e}")


def test_criterion_10_coisotropic_embedding():
    graph = dirac_graph(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                        "two_form")
    got = GotayModel(3, lambda xs: [graph] * len(xs))
    rep = got.verify(samples=20, radius=0.1)
    ok = (rep["jacobi_fd"] <= 1e-10 and rep["coisotropy"] <= 1e-10
          and rep["reproduction_angle"] <= 1e-8)
    _line(10, "coisotropic embedding", ok,
          f"jacobi {rep['jacobi_fd']:.2e}, coisotropy {rep['coisotropy']:.2e}, "
          f"reproduction {rep['reproduction_angle']:.2e}")


def test_criterion_11_model_independence():
    bv, chart = coiso_line()
    default = ComplementChoice(bv, chart)
    coiso = ComplementChoice(bv, chart, mode="coisotropic")
    skewed = ComplementChoice(bv, chart, mode="custom",
                              w=np.array([[0.3, 0.2], [1.0, 0.0], [0.0, 1.0]]))
    rep_modes = compare_complements(default, coiso, count=50)
    rep_skew = compare_complements(default, skewed, count=50)
    ok = all(rep["checked"] > 0 and rep["max_mismatch"] <= 1e-4 for rep in (rep_modes, rep_skew))
    _line(11, "model independence", ok,
          f"default/coisotropic {rep_modes['max_mismatch']:.2e}, "
          f"default/skewed {rep_skew['max_mismatch']:.2e} over 50 samples")


def test_criterion_12_fiber_reflection():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        s = rng.normal(size=(k, k))
        if rng.uniform() < 0.5:
            l_base = dirac_graph(s - s.T, "two_form")
        else:
            l_base = dirac_graph(s - s.T, "bivector")
        a = rng.normal(size=(k, k))
        res = model.fiberwise_reflection_residual(l_base, a - a.T, rng.normal(size=(k, r)))
        worst = max(worst, res)
    ok = worst <= 1e-12
    _line(12, "fiberwise reflection identity", ok,
          f"max principal angle {worst:.2e} over 100 instances")
