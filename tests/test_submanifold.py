"""Charts, pointwise tangent data, regularity scans, classification."""

import io
import json
import re

import numpy as np
import pytest

from poissat import cli, linear, submanifold
from poissat.field import (
    BivectorField,
    flat_rank2_r3,
    flat_rank2_r3s1,
    log_symplectic_plane,
    so3_star,
    symplectic_r4,
)
from poissat.fixtures import FIXTURES
from poissat.linear import RankDeficient, subspace_equal
from poissat.submanifold import (
    Chart,
    classify,
    make_transversal,
    point_data,
    point_data_rows,
    pullback_dirac,
    regularity_scan,
)


def plane_in_so3():
    return Chart(2, 3, ["u", "v", "0"], names=["u", "v"])


def cubic_graph():
    # leaves the symplectic leaf along x3; rank of TXperp drops at u = 0
    return Chart(1, 3, ["u", "0", "u^3"], names=["u"])


def coiso_line():
    return Chart(1, 3, ["u", "0", "0"], names=["u"])


def transversal_ray():
    return Chart(1, 3, ["u + 1", "0", "0"], domain=[[-0.5, 0.5]], names=["u"])


def isotropic_line():
    return Chart(1, 4, ["0", "u", "0", "0"], names=["u"])


def sympl_plane():
    return Chart(2, 4, ["u", "v", "0", "0"], names=["u", "v"])


def test_chart_points_and_jacobian():
    ch = cubic_graph()
    u = np.array([[0.5], [-1.0], [0.0]])
    pts = ch.points(u)
    assert np.allclose(pts, [[0.5, 0.0, 0.125], [-1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    jac = ch.jacobian(u)
    assert jac.shape == (3, 3, 1)
    assert np.allclose(jac[0, :, 0], [1.0, 0.0, 0.75])
    single = ch.jac_at([0.5])
    assert np.array_equal(single, jac[0])


def test_chart_immersion_rejected(tmp_path):
    # point data decides the rank of dX at every row it visits; the
    # derivative (2u, 0, 0) vanishes at the domain center
    bv = flat_rank2_r3()
    chart = Chart(1, 3, ["u^2", "0", "0"], names=["u"])
    assert len(point_data_rows(bv, chart, [[0.5], [-1.0]])) == 2
    with pytest.raises(ValueError, match=re.escape("not an immersion at u = (0.0,)")):
        point_data_rows(bv, chart, chart.grid(9))
    # rank 1 on the whole line u = 0: the first grid point on it is named
    chart = Chart(2, 3, ["u^2", "v", "u^2*v"], names=["u", "v"])
    with pytest.raises(ValueError, match=re.escape("not an immersion at u = (0.0, -1.0)")):
        point_data_rows(bv, chart, chart.grid(9))
    # analyze reports it at top level (exit 4)
    scene = tmp_path / "square.scene"
    scene.write_text(FIXTURES["coiso-line"].replace('component = "u"', 'component = "u^2"'))
    out = io.StringIO()
    assert cli.main(["analyze", str(scene)], stream=out) == 4
    assert json.loads(out.getvalue())["error"] == "chart is not an immersion at u = (0.0,)"


def test_chart_zero_parameters():
    ch = Chart(0, 3, ["1", "0", "0"])
    assert np.allclose(ch.point_at([]), [1.0, 0.0, 0.0])
    assert ch.jacobian(ch.grid(5)).shape == (1, 3, 0)


def test_chart_grid_count_one_is_the_center():
    # linspace over the box gives its lower corner for a count of 1
    ch = Chart(2, 3, ["u", "v", "0"], names=["u", "v"], domain=[[-0.5, 0.5], [0.0, 2.0]])
    assert np.array_equal(ch.grid(1), [ch.center()])
    assert any(np.array_equal(row, ch.center()) for row in ch.grid([1, 3]))


def test_point_data_plane_in_so3():
    bv = so3_star()
    pd = point_data(bv, plane_in_so3(), [0.5, 0.25])
    assert pd.rank_perp == 1
    direction = np.array([-0.25, 0.5, 0.0])
    assert subspace_equal(pd.txperp, direction[:, None] / np.linalg.norm(direction))
    assert pd.corank == 0
    origin = point_data(bv, plane_in_so3(), [0.0, 0.0])
    assert origin.rank_perp == 0
    assert origin.corank == 1


def test_point_data_zero_dim_chart():
    bv = so3_star()
    pd = point_data(bv, Chart(0, 3, ["1", "0", "0"]), [])
    assert pd.rank_perp == 2
    assert pd.corank == 1
    assert pd.tx.shape == (3, 0)


def test_scan_plane_in_so3():
    scan = regularity_scan(so3_star(), plane_in_so3(), counts=9)
    assert not scan.regular_on_samples
    assert set(scan.witnesses) == {0, 1}
    assert scan.witnesses[0] == (0.0, 0.0)
    assert scan.refined > 0
    with pytest.raises(ValueError, match="regular"):
        scan.rank


def test_scan_transversal_ray():
    scan = regularity_scan(so3_star(), transversal_ray(), counts=9)
    assert scan.regular_on_samples
    assert scan.rank == 2
    assert scan.refined == 0


def test_scan_cubic_graph():
    scan = regularity_scan(flat_rank2_r3(), cubic_graph(), counts=9)
    assert set(scan.witnesses) == {1, 2}
    assert scan.witnesses[1] == (0.0,)


def test_classify_plane_in_so3():
    cl = classify(so3_star(), plane_in_so3())
    assert cl["coisotropic"]
    assert cl["pre_poisson"]
    assert not cl["regular"]
    assert not cl["transversal"]
    assert not cl["poisson_submanifold"]
    assert not cl["poisson_dirac"]
    assert cl.ranks["perp"] == [0, 1]
    assert cl.ranks["sum"] == [2]


def test_classify_reuses_a_given_scan(monkeypatch):
    # one classify call runs its own scan and computes each point-data row
    # once, one batch per step: the grid, the refinement between grid points
    # of different rank, then the 10 extra samples
    bv, chart = flat_rank2_r3(), cubic_graph()
    rows = []

    def counted(bv, chart, us):
        rows.append(len(us))
        return point_data_rows(bv, chart, us)

    with monkeypatch.context() as m:
        m.setattr(submanifold, "point_data_rows", counted)
        cl = classify(bv, chart, counts=9, seed=2)
    assert rows == [9, 20, 10] and cl.scan.refined == 20
    assert cl.sample_count == len(cl.scan.params) + 10 == sum(rows)
    scan = regularity_scan(bv, chart, counts=9, seed=2)
    assert cl.scan.witnesses == scan.witnesses
    assert np.array_equal(cl.scan.params, scan.params)


def test_classify_transversal_ray():
    cl = classify(so3_star(), transversal_ray())
    assert cl["transversal"]
    assert cl["regular"]
    assert cl["poisson_dirac"]
    assert cl["pre_poisson"]
    assert not cl["coisotropic"]
    assert not cl["poisson_submanifold"]
    assert cl.ranks["perp"] == [2]
    assert cl.ranks["cap"] == [0]


def test_classify_coiso_line():
    cl = classify(flat_rank2_r3(), coiso_line())
    assert cl["coisotropic"]
    assert cl["regular"]
    assert cl["pre_poisson"]
    assert not cl["poisson_dirac"]
    assert cl.ranks["perp"] == [1]
    assert cl.ranks["cap"] == [1]


def test_classify_isotropic_line():
    cl = classify(symplectic_r4(), isotropic_line())
    assert cl["pre_poisson"]
    assert cl["regular"]
    assert not cl["coisotropic"]
    assert not cl["transversal"]
    assert not cl["poisson_dirac"]
    assert cl.ranks["perp"] == [3]
    assert cl.ranks["cap"] == [1]
    assert cl.ranks["sum"] == [3]


def test_classify_sympl_plane():
    cl = classify(symplectic_r4(), sympl_plane())
    assert cl["transversal"]
    assert cl["poisson_dirac"]


def test_classify_degeneracy_axis():
    # the bivector vanishes on the x = 0 axis, so the axis is a Poisson
    # submanifold (with the zero structure)
    axis = Chart(1, 2, ["0", "u"], names=["u"])
    cl = classify(log_symplectic_plane(), axis)
    assert cl["poisson_submanifold"]
    assert cl["coisotropic"]
    assert cl["regular"]
    assert cl.ranks["perp"] == [0]


def test_classify_cubic_graph():
    cl = classify(flat_rank2_r3(), cubic_graph())
    assert not cl["regular"]
    assert not cl["pre_poisson"]
    assert cl.ranks["perp"] == [1, 2]


def test_classify_implications():
    cases = [
        (so3_star(), plane_in_so3()),
        (so3_star(), transversal_ray()),
        (flat_rank2_r3(), coiso_line()),
        (flat_rank2_r3(), cubic_graph()),
        (symplectic_r4(), isotropic_line()),
        (symplectic_r4(), sympl_plane()),
    ]
    for bv, ch in cases:
        cl = classify(bv, ch)
        if cl["transversal"]:
            assert cl["regular"] and cl["poisson_dirac"] and cl["pre_poisson"]
        if cl["poisson_submanifold"]:
            assert cl["regular"] and cl["coisotropic"]
        if cl["coisotropic"] and cl["regular"]:
            assert cl["pre_poisson"]


def test_pullback_routes_agree():
    cases = [
        (so3_star(), transversal_ray(), [0.3]),
        (so3_star(), plane_in_so3(), [0.5, 0.25]),
        (flat_rank2_r3(), coiso_line(), [0.4]),
        (symplectic_r4(), isotropic_line(), [0.2]),
        (symplectic_r4(), sympl_plane(), [0.1, -0.3]),
    ]
    for bv, ch, u in cases:
        pd = point_data(bv, ch, u)
        generic = pullback_dirac(pd, route="generic")
        perp = pullback_dirac(pd, route="perp")
        assert subspace_equal(generic, perp, tol=1e-8)


def test_pullback_coiso_line_frozen():
    bv, ch = flat_rank2_r3(), coiso_line()
    l = pullback_dirac(point_data(bv, ch, [0.4]))
    expected = np.array([[1.0], [0.0]])
    assert subspace_equal(l, expected)
    assert 1 - linear.rank_svd(l[1:])[0] == 0  # n - rank of the cotangent block


def test_pullback_corank_jump():
    # away from the jump at u = 0 the pullback is a line's Dirac space; the
    # jump itself is regularity_scan's to catch (test_scan_cubic_graph)
    bv, ch = flat_rank2_r3(), cubic_graph()
    l = pullback_dirac(point_data(bv, ch, [0.5]))
    assert l.shape == (2, 1)


def test_make_transversal_isotropic_line():
    bv = symplectic_r4()
    thick = make_transversal(bv, isotropic_line())
    assert thick.param_dim == 2
    assert np.allclose(thick.point_at([0.3, 0.7]), [0.7, 0.3, 0.0, 0.0])
    cl = classify(bv, thick)
    assert cl["transversal"]


def test_make_transversal_noop_when_transversal():
    bv = so3_star()
    ch = transversal_ray()
    out = make_transversal(bv, ch)
    assert out.param_dim == ch.param_dim
    us = ch.sample(5, seed=3)
    assert np.allclose(out.points(us), ch.points(us))


def test_make_transversal_coiso_line():
    bv = flat_rank2_r3()
    thick = make_transversal(bv, coiso_line(), thickness=0.25)
    assert thick.param_dim == 3
    assert np.allclose(thick.domain[1:], [[-0.25, 0.25], [-0.25, 0.25]])
    cl = classify(bv, thick, counts=3)
    assert cl["transversal"]


def test_pullback_random_lines_routes_agree():
    bv = so3_star()
    rng = np.random.default_rng(42)
    for _ in range(10):
        base = rng.uniform(0.5, 1.5, 3)
        vel = rng.normal(size=3)
        vel /= np.linalg.norm(vel)
        comps = [f"{base[i]} + ({vel[i]})*u" for i in range(3)]
        ch = Chart(1, 3, comps, domain=[[-0.2, 0.2]], names=["u"])
        u = rng.uniform(-0.2, 0.2, 1)
        try:
            pd = point_data(bv, ch, u)
            generic = pullback_dirac(pd, route="generic")
            perp = pullback_dirac(pd, route="perp")
        except RankDeficient:
            continue
        assert subspace_equal(generic, perp, tol=1e-8)


def _point_data_reference(bv, chart, u):
    # point_data one row at a time, with its own rank decisions
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x, dx = chart.point_at(u), chart.jac_at(u)
    n, k = bv.dim, chart.param_dim
    tx = linear.orth(dx) if k else np.zeros((n, 0))
    if tx.shape[1] != k:
        raise ValueError(f"chart is not an immersion at u = {tuple(u.tolist())}")
    p = bv.matrix_at(x)
    _, txperp, _ = linear.rank_svd(p @ linear.annihilator(tx), scale=np.linalg.norm(p, 2))
    return submanifold.PointData(u, x, dx, p, tx, txperp)


def figure_eight():
    return Chart(2, 4, ["sin(2*t)", "sin(t)", "t", "th"], domain=[[-3.0, 3.0], [-1.0, 1.0]],
                 names=["t", "th"])


def sin_plane_r3():
    # sin(x3) d1^d2: Poisson (a function times a constant bivector in two of
    # the coordinates it does not depend on), rank 2 off sin(x3) = 0
    return BivectorField(3, {(0, 1): "sin(x3)"}, domain=[[-4.0, 4.0]] * 3)


@pytest.mark.parametrize("make", [
    lambda: (flat_rank2_r3s1(), figure_eight()),
    lambda: (sin_plane_r3(), Chart(2, 3, ["u", "cos(v)", "3*v + u^2"], names=["u", "v"])),
    lambda: (sin_plane_r3(), Chart(1, 3, ["cos(u)", "sin(u)", "2*u"], domain=[[-1.5, 1.5]],
                                   names=["u"])),
    lambda: (so3_star(), Chart(0, 3, ["0.5", "0", "0"])),
], ids=["figure-eight", "sin-plane-2d", "sin-plane-helix", "point"])
@pytest.mark.build_independent
def test_stacked_point_data_rows_is_bitwise_per_row(make):
    bv, chart = make()
    us = np.vstack([chart.grid(9), chart.sample(25, seed=3)])
    if chart.param_dim:
        us = np.vstack([us, [chart.center()] * 2])  # a repeated row
    rows = point_data_rows(bv, chart, us)
    assert len(rows) == len(us)
    for u, got in zip(us, rows):
        for ref in (_point_data_reference(bv, chart, u), point_data(bv, chart, u)):
            for name in ("u", "x", "dx", "p", "tx", "txperp"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.corank == ref.corank


@pytest.mark.build_independent
def test_stacked_immersion_failure_raises_as_per_row():
    # dX = 3 (u - 0.9)^2 e3 vanishes at u = 0.9 only, so the batch raises at
    # that row, read third, as reading row by row does
    bv = BivectorField(3, {(0, 1): "1e-5"})
    chart = Chart(1, 3, ["0", "0", "(u - 0.9)^3"], names=["u"])
    us = np.array([[-0.5], [0.0], [0.9], [0.6], [0.2]])
    with pytest.raises(ValueError) as per_row:
        for u in us:
            _point_data_reference(bv, chart, u)
    with pytest.raises(ValueError) as stacked:
        point_data_rows(bv, chart, us)
    assert str(stacked.value) == str(per_row.value)
    assert str(stacked.value) == "chart is not an immersion at u = (0.9,)"
    assert len(point_data_rows(bv, chart, us[[0, 1, 4]])) == 3


@pytest.mark.build_independent
def test_stacked_non_finite_rows_raise_as_per_row():
    # the batch kernel reaches the (1, 2) slot first, failing at row 0.5; row
    # by row, the (2, 3) slot of row -0.2 fails first
    bv = BivectorField(3, {(0, 1): "1/(x3 - 0.5)", (1, 2): "1/(x3 + 0.2)"}, certify=False)
    chart = Chart(1, 3, ["0", "0", "u"], names=["u"])
    us = np.array([[0.1], [-0.2], [0.5]])
    with pytest.raises(ValueError) as per_row:
        for u in us:
            _point_data_reference(bv, chart, u)
    with pytest.raises(ValueError) as stacked:
        point_data_rows(bv, chart, us)
    assert type(stacked.value) is type(per_row.value)
    assert str(stacked.value) == str(per_row.value)
    assert "-0.2" in str(stacked.value)


def _classified(monkeypatch, bv, chart, seed):
    # classify, with every sample it sees (the scan grid, its refinements
    # and the 10 extra samples) collected where submanifold computes it
    seen = []

    def collected(bv, chart, us):
        pds = point_data_rows(bv, chart, us)
        seen.extend(pds)
        return pds

    with monkeypatch.context() as m:
        m.setattr(submanifold, "point_data_rows", collected)
        cl = classify(bv, chart, counts=9, seed=seed)
    assert cl.sample_count == len(seen)
    return cl, seen


def _cap_dims_against_intersection(monkeypatch, bv, chart, seed):
    # per sample, dim TX + dim TXperp - dim(TX + TXperp), on the basis
    # widths and the sum rank classify decides, must be the intersection's
    # column count
    cl, seen = _classified(monkeypatch, bv, chart, seed)
    sums = linear.rank_svd_joined([(pd.tx, pd.txperp) for pd in seen])
    derived = [pd.tx.shape[1] + pd.rank_perp - rank for pd, (rank, _, _) in zip(seen, sums)]
    caps = [cap.shape[1] for cap in linear.subspace_intersect_many(
        [pd.txperp for pd in seen], [pd.tx for pd in seen])]
    assert derived == caps
    assert cl.ranks["cap"] == sorted(set(caps))
    assert cl["poisson_dirac"] == (cl["regular"] and not any(caps))
    assert cl["transversal"] == (cl.ranks["sum"] == [bv.dim] and not any(caps))
    return set(caps)


def _derived_ranks_against_bordered(monkeypatch, bv, chart, seed):
    # the corank and the Poisson-submanifold flag come from the widths of TX
    # and TXperp; the oracle decides them from other matrices: the corank
    # from the bordered matrix [P; dX^T], and TX as a Poisson submanifold
    # where [TX | P] has rank k.  Both judge P against a scale that is not
    # its own (see the reparametrisation test below), so they are an oracle
    # only on charts of moderate speed and structures of moderate size
    cl, seen = _classified(monkeypatch, bv, chart, seed)
    n, k = bv.dim, chart.param_dim
    bordered = [n - r for r, _, _ in linear.rank_svd_joined(
        [(pd.p, pd.dx.T) for pd in seen], axis=0)]
    assert [pd.corank for pd in seen] == bordered
    tangent = [r == k for r, _, _ in linear.rank_svd_joined([(pd.tx, pd.p) for pd in seen])]
    assert [pd.rank_perp == 0 for pd in seen] == tangent
    assert cl["poisson_submanifold"] == all(tangent)
    return set(bordered)


@pytest.mark.parametrize("name", [name for name, text in FIXTURES.items() if "[poisson]" in text])
@pytest.mark.build_independent
def test_cap_dims_match_the_intersection_on_fixtures(monkeypatch, name):
    scene = cli.parse_scene(FIXTURES[name])
    bv = cli.build_bivector(scene)
    chart = cli.build_chart(scene, bv.dim)
    for seed in range(10):
        _cap_dims_against_intersection(monkeypatch, bv, chart, seed)


@pytest.mark.parametrize("name", [name for name, text in FIXTURES.items() if "[poisson]" in text])
@pytest.mark.build_independent
def test_derived_ranks_match_the_bordered_oracle_on_fixtures(monkeypatch, name):
    scene = cli.parse_scene(FIXTURES[name])
    bv = cli.build_bivector(scene)
    chart = cli.build_chart(scene, bv.dim)
    for seed in range(10):
        _derived_ranks_against_bordered(monkeypatch, bv, chart, seed)


def _random_affine_charts(bv, seed, count=20):
    # count charts of every dimension k < n (k = 0 is a point chart), with a
    # classify seed each
    rng, names = np.random.default_rng(seed), ["u", "v", "w"]
    for _ in range(count):
        for k in range(bv.dim):
            base, dirs = rng.uniform(-1, 1, bv.dim), rng.normal(size=(bv.dim, k))
            comps = [f"{base[i]:.6f}" + "".join(f" + ({dirs[i, a]:.6f})*{names[a]}"
                                                for a in range(k)) for i in range(bv.dim)]
            yield (Chart(k, bv.dim, comps, domain=[[-0.5, 0.5]] * k, names=names[:k]),
                   int(rng.integers(100)))


@pytest.mark.parametrize("make", [
    so3_star,
    lambda: BivectorField(4, {(0, 1): "x3"}, domain=[[-2.0, 2.0]] * 4),
], ids=["so3-star", "x3-d1-d2"])
@pytest.mark.build_independent
def test_cap_dims_match_the_intersection_on_random_affine_charts(monkeypatch, make):
    bv = make()
    dims = set()
    for chart, seed in _random_affine_charts(bv, 5):
        dims |= _cap_dims_against_intersection(monkeypatch, bv, chart, seed)
    assert dims == {0, 1}


@pytest.mark.build_independent
def test_derived_ranks_match_the_bordered_oracle_on_random_affine_charts(monkeypatch):
    bv = so3_star()
    coranks = set()
    for chart, seed in _random_affine_charts(bv, 6):
        coranks |= _derived_ranks_against_bordered(monkeypatch, bv, chart, seed)
    assert coranks == {0, 1}


def _z_axis(entry="1", scale=0):
    # X(u) = (0, 0, 2^s u) on the domain |u| <= 2^-s under entry * d1^d2: a
    # Poisson transversal at every s
    return ('[poisson]\ndim = 3\nentry = 1 2 "%s"\ndomain = -2 2\n'
            '[submanifold]\nparams = 1\ncomponent = "0"\ncomponent = "0"\n'
            'component = "%r*u"\ndomain = %r %r\n'
            % (entry, 2.0 ** scale, -2.0 ** -scale, 2.0 ** -scale))


def _transversal_ray(scale=0):
    text = FIXTURES["transversal-ray"]
    return (text.replace('component = "u + 1"', f'component = "{2.0 ** scale!r}*u + 1"')
            .replace("domain = -0.5 0.5", f"domain = {-0.5 * 2.0 ** -scale!r} "
                                          f"{0.5 * 2.0 ** -scale!r}"))


def _analyzed(text):
    code, report, _ = cli.run_scene(cli.parse_scene(text), "analyze")
    stage = report["stages"]["analyze"]
    return code, stage["rank_sets"], stage["flags"]


@pytest.mark.parametrize("scene", [_z_axis, _transversal_ray], ids=["z-axis", "transversal-ray"])
@pytest.mark.parametrize("scale", [-20, 34])
@pytest.mark.build_independent
def test_analyze_keeps_its_verdict_under_a_power_of_two_reparametrisation(scene, scale):
    # X(2^s u) on a domain scaled by 2^-s is the same submanifold sampled at
    # the same points, and rescaling by a power of two is exact: the ranks
    # and flags must not see the chart's speed
    assert _analyzed(scene(scale=scale)) == _analyzed(scene(scale=0))
    assert _analyzed(scene(scale=0))[0] == 0


@pytest.mark.build_independent
def test_a_faint_transversal_is_not_a_poisson_submanifold():
    # TX + TXperp = R^3 under 1e-9 d1^d2 as under d1^d2: TXperp is not 0
    code, ranks, flags = _analyzed(_z_axis(entry="1e-9"))
    assert code == 0
    assert ranks["perp"] == [2] and flags["transversal"]
    assert not flags["poisson_submanifold"]
