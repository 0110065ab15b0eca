"""Scene parsing, fixture catalog, pipeline exit codes, and reports."""

import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from poissat import cli, linear, model, submanifold
from poissat.cli import (
    Scene,
    SceneError,
    build_bivector,
    build_chart,
    parse_scene,
    run_scene,
    scene_parameters,
)
from poissat.expr import EvalError
from poissat.fixtures import FIXTURES
from poissat.sprayflow import LeftDomain


def scene_of(name):
    return parse_scene(FIXTURES[name])


def complement_of(text):
    """The chart and complement that a run of the scene text builds, after
    its analyze stage; a bad frame column raises before any stage."""
    sc = parse_scene(text)
    stages = cli._PoissonStages(sc, scene_parameters(sc), want_csv=False)
    stages.analyze()
    return stages.chart, stages.comp


def run_main(argv):
    out = io.StringIO()
    code = cli.main(argv, stream=out)
    return code, out.getvalue()


def strict_json(text):
    # json.loads accepts NaN and Infinity, which are not JSON
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


# --- scene parsing ---


def test_parse_sections_and_repeated_keys():
    sc = scene_of("so3-plane")
    assert sc.has("poisson") and sc.has("submanifold")
    entries = sc.rows("poisson", "entry")
    assert [t for t, _ in entries] == [["1", "2", "z"], ["2", "3", "x"], ["3", "1", "y"]]
    assert sc.scalar("poisson", "dim", convert=int) == 3


def test_parse_quoted_expression_with_spaces():
    sc = parse_scene('[poisson]\ndim = 2\nentry = 1 2 "x + 1"\n'
                     "[submanifold]\nparams = 1\ncomponent = \"u\"\ncomponent = \"0\"\n")
    assert sc.rows("poisson", "entry")[0][0] == ["1", "2", "x + 1"]


@pytest.mark.parametrize("text,line", [
    ("dim = 3\n", 1),                                    # key outside any section
    ("[poisson]\ndim 3\n", 2),                           # no equals sign
    ("[poisson]\nentry =\n", 2),                         # empty value
    ("[poisson]\nwhat = 1\n", 2),                        # unknown key
    ("[nope]\n", 1),                                     # unknown section
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_parse_requires_exactly_one_structure_section():
    with pytest.raises(SceneError):
        parse_scene("[flow]\nsteps = 8\n")
    with pytest.raises(SceneError):
        parse_scene("[poisson]\ndim = 2\n[presymplectic]\ndim = 2\n")


def test_comments_and_blank_lines_skipped():
    sc = parse_scene("# header\n\n[poisson]\n# inner\ndim = 2\n")
    assert sc.scalar("poisson", "dim", convert=int) == 2


# --- builders ---


def test_build_bivector_one_based_entries():
    bv = build_bivector(scene_of("so3-plane"))
    m = bv.matrix_at([1.0, 2.0, 3.0])
    assert m[0, 1] == 3.0 and m[1, 2] == 1.0 and m[2, 0] == 2.0
    assert np.allclose(bv.domain, [[-2, 2]] * 3)


def test_build_bivector_rejects_duplicates_and_bad_indices():
    with pytest.raises(SceneError):
        build_bivector(parse_scene('[poisson]\ndim = 2\nentry = 1 2 "1"\nentry = 2 1 "x"\n'))
    with pytest.raises(SceneError):
        build_bivector(parse_scene('[poisson]\ndim = 2\nentry = 1 3 "1"\n'))
    with pytest.raises(SceneError):
        build_bivector(parse_scene('[poisson]\ndim = 2\nentry = 1 1 "1"\n'))


def test_build_chart_vars_and_domain():
    sc = scene_of("figure-eight")
    bv = build_bivector(sc)
    chart = build_chart(sc, bv.dim)
    assert chart.param_dim == 2
    u = np.array([0.3, -0.7])
    assert np.allclose(chart.point_at(u),
                       [np.sin(0.6), np.sin(0.3), 0.3, -0.7])
    assert np.allclose(chart.domain, [[-3, 3], [-3, 3]])


def test_domain_row_count_checked():
    with pytest.raises(SceneError):
        build_bivector(parse_scene('[poisson]\ndim = 3\ndomain = -1 1\ndomain = -2 2\n'))


def test_complement_constant_and_callable_frames():
    text = FIXTURES["coiso-line"].replace(
        "mode = coisotropic",
        'mode = custom\nw = "0.3" "1" "0"\nw = "0" "0" "1"')
    chart, comp = complement_of(text)
    assert comp.mode == "custom"
    fr = comp.at(chart.center())
    assert np.allclose(fr.w, [[0.3, 0.0], [1.0, 0.0], [0.0, 1.0]])

    _, comp2 = complement_of(text.replace('w = "0.3" "1" "0"', 'w = "0.3*u" "1" "0"'))
    assert np.allclose(comp2.at([0.5]).w[:, 0], [0.15, 1.0, 0.0])


def test_nonconstant_g_rejected():
    text = FIXTURES["coiso-line"].replace(
        "mode = coisotropic", 'mode = coisotropic\ng = "u" "0" "0"')
    with pytest.raises(SceneError):
        complement_of(text)


# a g column that reads u but vanishes at the domain's corners and at
# chart.sample(3, seed=7): constancy is decided from the expression, not
# from values at probe points (its value at u = 0.5 is -0.00283)
_ROOTS = "*".join(f"(u - {a!r})" for a in
                  build_chart(scene_of("coiso-line"), 3).sample(3, seed=7)[:, 0].tolist())


@pytest.mark.parametrize("command", ["analyze", "all"])
@pytest.mark.parametrize("columns, error", [
    ('mode = coisotropic\ng = "1" "u" "0"', "line 17: 'g' must be a constant frame"),
    (f'mode = coisotropic\ng = "1" "(u^2 - 1)*{_ROOTS}" "0"',
     "line 17: 'g' must be a constant frame"),
    ('mode = custom\nw = "1/(u-u)" "1" "0"\nw = "0" "0" "1"',
     "non-finite result from division at point (-1.0,)"),
    ("mode = custom", "custom mode needs a w frame"),
    ('mode = default\ng = "0" "0" "1"', "line 17: complement mode 'default' reads no 'g' column"),
    ('mode = coisotropic\nh = "0" "1" "0"',
     "line 17: complement mode 'coisotropic' reads no 'h' column"),
    ('mode = pre_poisson\nw = "0" "1" "0"\nw = "0" "0" "1"',
     "line 17: complement mode 'pre_poisson' reads no 'w' column"),
    ('mode = custom\nw = "0" "1" "0"\nw = "0" "0" "1"\ng = "0" "0" "1"',
     "line 19: complement mode 'custom' reads no 'g' column"),
], ids=["nonconstant-g", "g-vanishing-at-probes", "non-finite-w", "custom-without-w",
        "unread-g-default", "unread-h-coisotropic", "unread-w-pre-poisson", "unread-g-custom"])
def test_bad_frame_column_exits_4_before_any_stage(tmp_path, monkeypatch, command, columns, error):
    # a frame column is a scene value: analyze no longer passes a scene that
    # a later stage rejects, and no stage runs; so is a column that the mode
    # never reads
    path = tmp_path / "frame.scene"
    path.write_text(FIXTURES["coiso-line"].replace("mode = coisotropic", columns))
    monkeypatch.setattr(cli, "classify", None)  # any stage would call it
    code, out = run_main([command, str(path), "--steps", "32"])
    assert code == 4
    rep = strict_json(out)
    assert rep["error"] == error and "stages" not in rep


def test_scene_without_frame_columns_builds_one_chart(tmp_path, monkeypatch):
    calls = []

    def counted(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "build_chart", counted(cli.build_chart))
    monkeypatch.setattr(cli, "_complement_frames", counted(cli._complement_frames))
    for name in FIXTURES:
        if "[poisson]" in FIXTURES[name]:
            assert not any(f"\n{key} = " in FIXTURES[name] for key in "ghw")
            calls.clear()
            run_main(["analyze", write_fixture(tmp_path, name)])
            assert calls == ["build_chart"], name
    # a scene with frame columns builds its chart and evaluates its columns
    # once, before any stage, and every stage reuses both
    path = tmp_path / "custom.scene"
    path.write_text(FIXTURES["coiso-line"].replace(
        "mode = coisotropic", 'mode = custom\nw = "0.3" "1" "0"\nw = "0" "0" "1"'))
    calls.clear()
    code, _ = run_main(["all", str(path), "--steps", "32"])
    assert code == 0
    assert calls == ["build_chart", "_complement_frames"]


def test_parameters_defaults_and_overrides():
    p = scene_parameters(scene_of("coiso-line"))
    assert p["steps"] == 1024 and p["xi_radius"] == 0.2
    assert p["tolerances"]["normal"] == 1e-5
    p2 = scene_parameters(scene_of("coiso-line"), steps_override=64, tol_override=1e-3)
    assert p2["steps"] == 64 and p2["tolerances"]["normal"] == 1e-3
    with pytest.raises(SceneError):
        scene_parameters(parse_scene("[poisson]\ndim = 2\n[model]\ntol_normal = 0\n"))


# --- fixtures catalog ---


def test_fixture_list_catalog():
    assert list(FIXTURES) == [
        "so3-plane", "logsympl-axis", "cubic-graph", "figure-eight", "coiso-line",
        "transversal-ray", "sympl-plane", "zero-structure", "gotay-presymplectic",
    ]


def test_every_fixture_parses_and_builds():
    for name, text in FIXTURES.items():
        sc = parse_scene(text)
        scene_parameters(sc)
        if sc.has("presymplectic"):
            continue
        bv = build_bivector(sc)
        chart = build_chart(sc, bv.dim)
        assert chart.ambient_dim == bv.dim


def test_fixture_emit_byte_identical(tmp_path):
    code1, out1 = run_main(["fixtures", "emit", "coiso-line", "--out", str(tmp_path)])
    code2, out2 = run_main(["fixtures", "emit", "coiso-line"])
    assert code1 == code2 == 0
    assert out1 == out2 == FIXTURES["coiso-line"]
    assert (tmp_path / "coiso-line.scene").read_text() == FIXTURES["coiso-line"]


def test_fixture_list_and_unknown_name():
    code, out = run_main(["fixtures", "list"])
    assert code == 0
    assert out.splitlines() == list(FIXTURES)
    code, out = run_main(["fixtures", "emit", "nope"])
    assert code == 4


# --- pipeline runs and exit codes ---


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.scene"
    path.write_text(FIXTURES[name])
    return str(path)


def test_analyze_nonregular_exits_3(tmp_path):
    code, out = run_main(["analyze", write_fixture(tmp_path, "so3-plane")])
    assert code == 3
    rep = json.loads(out)
    stage = rep["stages"]["analyze"]
    assert stage["status"] == "fail"
    assert stage["witnesses"]["0"] == [0.0, 0.0]  # rank drop at the origin
    assert rep["exit_code"] == 3


@pytest.mark.build_independent
def test_analyze_names_a_chart_that_is_not_an_immersion(tmp_path):
    # dX = 3 (u - 0.5)^2 e1 vanishes at u = 0.5, a point of the scan's grid:
    # the chart is at fault there, not the structure
    scene = tmp_path / "cube.scene"
    scene.write_text(FIXTURES["coiso-line"].replace('component = "u"',
                                                    'component = "(u - 0.5)^3"'))
    code, out = run_main(["analyze", str(scene)])
    assert code == 4
    assert json.loads(out)["error"] == "chart is not an immersion at u = (0.5,)"


def test_analyze_cubic_graph_witness_on_fold_line(tmp_path):
    code, out = run_main(["analyze", write_fixture(tmp_path, "cubic-graph")])
    assert code == 3
    w0 = json.loads(out)["stages"]["analyze"]["witnesses"]["0"]
    assert abs(w0[0]) <= 1e-12  # u1 = 0 line


def test_coiso_line_all_exits_0(tmp_path):
    code, out = run_main(["all", write_fixture(tmp_path, "coiso-line")])
    assert code == 0
    rep = json.loads(out)
    assert [s["status"] for s in rep["stages"].values()] == ["pass"] * 4
    assert rep["stages"]["saturate"]["max_residual"] <= 1e-8
    assert rep["stages"]["verify"]["max_mismatch"] <= 1e-5
    assert rep["stages"]["analyze"]["flags"]["coisotropic"] is True


def test_zero_structure_all_exits_0(tmp_path):
    code, out = run_main(["all", write_fixture(tmp_path, "zero-structure")])
    assert code == 0
    rep = json.loads(out)
    assert rep["stages"]["model"]["rank_perp"] == 0
    assert rep["stages"]["saturate"]["model_dim"] == 1


def test_gotay_scene_all_exits_0(tmp_path):
    code, out = run_main(["all", write_fixture(tmp_path, "gotay-presymplectic")])
    assert code == 0
    rep = json.loads(out)
    assert rep["stages"]["analyze"]["fiber_dim"] == 1
    assert rep["stages"]["saturate"]["status"] == "skipped"
    assert np.allclose(rep["stages"]["model"]["bivector_at_origin"],
                       [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert rep["stages"]["verify"]["status"] == "pass"


@pytest.mark.parametrize("command", ["verify", "all"])
@pytest.mark.parametrize("dim,entries", [(2, 'entry = 1 2 "2"\n'),
                                         (4, 'entry = 1 2 "1"\nentry = 3 4 "1"\n')],
                         ids=["dim2", "dim4"])
def test_gotay_symplectic_scene_verifies(tmp_path, command, dim, entries):
    # a symplectic form has kernel rank 0: no fiber, so nothing to be coisotropic
    path = tmp_path / "symplectic.scene"
    path.write_text(f"[presymplectic]\ndim = {dim}\n{entries}")
    code, out = run_main([command, str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["stages"]["analyze"]["fiber_dim"] == 0
    assert rep["stages"]["verify"]["status"] == "pass"
    assert rep["stages"]["verify"]["coisotropy"] == 0.0


@pytest.mark.parametrize("command,stage", [("all", "model"), ("verify", "verify")])
def test_gotay_kernel_rank_jump_exits_3(tmp_path, command, stage):
    # x3 dx1^dx2 on R^4: kernel rank 4 at the origin, 2 wherever x3 != 0
    path = tmp_path / "jump.scene"
    path.write_text('[presymplectic]\ndim = 4\nentry = 1 2 "x3"\n')
    code, out = run_main([command, str(path)])
    assert code == 3
    rep = json.loads(out)
    assert rep["exit_code"] == 3
    assert rep["stages"]["analyze"]["status"] == "pass"
    assert rep["stages"][stage] == {"status": "fail",
                                    "reason": "tangent kernel rank is not constant"}
    assert list(rep["stages"])[-1] == stage


def test_sympl_plane_saturate_with_csv(tmp_path):
    code, out = run_main(["saturate", write_fixture(tmp_path, "sympl-plane"),
                          "--out", str(tmp_path / "res")])
    assert code == 0
    csv = (tmp_path / "res" / "points.csv").read_text().splitlines()
    assert csv[0] == "u1,u2,xi1,xi2,x1,x2,x3,x4,residual"
    rep = json.loads((tmp_path / "res" / "report.json").read_text())
    assert len(csv) == 1 + rep["stages"]["saturate"]["samples"]
    assert all(float(row.split(",")[-1]) <= 1e-8 for row in csv[1:])


def test_transversal_ray_verify(tmp_path):
    code, out = run_main(["verify", write_fixture(tmp_path, "transversal-ray"),
                          "--steps", "512"])
    assert code == 0
    rep = json.loads(out)
    assert rep["parameters"]["steps"] == 512
    assert rep["stages"]["verify"]["max_mismatch"] <= 1e-4


@pytest.mark.parametrize("command", ["analyze", "all"])
@pytest.mark.parametrize("steps", [17, 8, 0])
def test_bad_steps_exit_4_before_any_stage(tmp_path, command, steps):
    code, out = run_main([command, write_fixture(tmp_path, "coiso-line"), "--steps", str(steps)])
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "steps must be even and at least 16"
    assert "stages" not in rep
    path = tmp_path / "odd.scene"
    path.write_text(FIXTURES["coiso-line"] + f"\n[flow]\nsteps = {steps}\n")
    code, out = run_main([command, str(path)])
    assert code == 4
    assert json.loads(out)["error"] == "steps must be even and at least 16"


@pytest.mark.parametrize("command", ["analyze", "all"])
@pytest.mark.build_independent
def test_u_in_a_point_chart_exits_4_before_any_stage(tmp_path, command):
    # a 0-parameter chart has no variable u: its component is a parse error,
    # not a kernel that fails inside the analyze stage
    path = tmp_path / "point.scene"
    path.write_text(FIXTURES["coiso-line"].replace("params = 1", "params = 0"))
    code, out = run_main([command, str(path)])
    assert code == 4
    rep = strict_json(out)
    assert rep["error"] == "unknown variable 'u' for arity 0 (position 0)"
    assert "stages" not in rep


@pytest.mark.parametrize("command", ["analyze", "all"])
@pytest.mark.parametrize("fixture", ["coiso-line", "gotay-presymplectic"])
def test_negative_seed_exits_4_before_any_stage(tmp_path, fixture, command):
    path = tmp_path / "seed.scene"
    path.write_text(FIXTURES[fixture] + "\n[model]\nseed = -1\n")
    code, out = run_main([command, str(path)])
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "seed must be non-negative"
    assert "stages" not in rep


@pytest.mark.parametrize("fixture", list(FIXTURES))
@pytest.mark.build_independent
def test_seed_sweep_keeps_every_verdict(tmp_path, fixture):
    # the seed moves sample points and probe directions, never a verdict:
    # at [model] seed 1-9, `all` gives seed 0's exit code and stage statuses
    verdicts = []
    for seed in range(10):
        path = tmp_path / f"seed-{seed}.scene"
        path.write_text(FIXTURES[fixture] + f"\n[model]\nseed = {seed}\n")
        code, out = run_main(["all", str(path), "--steps", "32"])
        rep = json.loads(out)
        assert rep["parameters"]["seed"] == seed
        verdicts.append((code, {name: stage["status"] for name, stage in rep["stages"].items()}))
    assert verdicts[1:] == [verdicts[0]] * 9


def test_verification_failure_exits_2(tmp_path):
    path = write_fixture(tmp_path, "transversal-ray")
    code, out = run_main(["verify", path, "--steps", "512", "--tol", "1e-18"])
    assert code == 2
    rep = json.loads(out)
    assert rep["stages"]["verify"]["status"] == "fail"
    assert rep["exit_code"] == 2


# coiso-line with its symplectic leaf tilted out of the z = 0 plane: there
# the saturation residual is a nonzero rounding (coiso-line's own is exactly
# 0.0, and a tolerance must be positive)
TILTED_COISO_LINE = FIXTURES["coiso-line"].replace('entry = 1 2 "1"',
                                                   'entry = 1 2 "1"\nentry = 1 3 "1"')


@pytest.mark.parametrize("text, key, stage, measured", [
    (TILTED_COISO_LINE, "tol_saturation", "saturate", "max_residual"),
    (FIXTURES["coiso-line"], "tol_landing", "saturate", "landing_distance"),
    (FIXTURES["coiso-line"], "tol_normal", "verify", "max_mismatch"),
], ids=["saturation", "landing", "normal"])
def test_stage_compares_the_measured_value_with_the_scene_tolerance(text, key, stage, measured):
    # a tolerance equal to the measured value passes; the float below it
    # fails that stage alone, with exit 2
    _, clean, _ = run_scene(parse_scene(text), "all", steps_override=32)
    value = float(clean["stages"][stage][measured])
    assert value > 0.0
    for tol, code, status in ((value, 0, "pass"), (float(np.nextafter(value, 0)), 2, "fail")):
        got, rep, _ = run_scene(parse_scene(f"{text}{key} = {tol!r}\n"), "all",
                                steps_override=32)
        assert (got, rep["stages"][stage]["status"], rep["stages"][stage][key]) == (
            code, status, tol)
        assert rep["stages"][stage][measured] == value
        assert all(rep["stages"][s]["status"] == "pass" for s in rep["stages"] if s != stage)


def test_saturate_fails_when_every_landing_probe_leaves_the_box(monkeypatch):
    # a box 0.008 thin across the leaf: the saturation grid fits at a halved
    # radius, but every landing probe (radius 0.05) leaves it, so landing
    # measures nothing and its distance reads 0.0; a check that measured no
    # probe fails
    text = FIXTURES["coiso-line"].replace(
        "domain = -2 2\n", "domain = -2 2\ndomain = -0.004 0.004\ndomain = -2 2\n", 1)
    landings = []
    real = cli.full_fiber_landing

    def recording(*args, **kwargs):
        landings.append(real(*args, **kwargs))
        return landings[-1]

    monkeypatch.setattr(cli, "full_fiber_landing", recording)
    code, rep, _ = run_scene(parse_scene(text), "saturate", steps_override=32)
    assert [(land["checked"], land["skipped"]) for land in landings] == [(0, 10)]
    stage = rep["stages"]["saturate"]
    assert (code, stage["status"], stage["landing_distance"]) == (2, "fail", 0.0)
    assert stage["max_residual"] <= stage["tol_saturation"]


PRE_POISSON_LINE = """\
[poisson]
dim = 4
entry = 1 2 "1"
entry = 3 4 "1"
domain = -2 2

[submanifold]
params = 1
component = "0"
component = "u"
component = "0"
component = "0"
domain = -1 1

[complement]
mode = pre_poisson

[flow]
xi_radius = 0.05
"""


def test_pre_poisson_cross_residual_gates_the_model_stage(tmp_path, monkeypatch):
    # the cap rows of sigma vanish in the constructed frame; a cross residual
    # above the frame conditions' floor must fail the model stage
    path = tmp_path / "pre-poisson.scene"
    path.write_text(PRE_POISSON_LINE)
    code, out = run_main(["model", str(path), "--steps", "32"])
    assert code == 0
    stage = json.loads(out)["stages"]["model"]
    assert (stage["status"], stage["cross_residual"]) == ("pass", 0.0)
    real = cli.marle_invariants

    def crossed(*args, **kwargs):
        return [{**row, "cross_residual": 1e-6} for row in real(*args, **kwargs)]

    monkeypatch.setattr(cli, "marle_invariants", crossed)
    code, out = run_main(["model", str(path), "--steps", "32"])
    assert code == 2
    stage = json.loads(out)["stages"]["model"]
    assert (stage["status"], stage["cross_residual"]) == ("fail", 1e-6)


def test_malformed_expression_exits_4_with_position(tmp_path):
    path = tmp_path / "bad.scene"
    path.write_text('[poisson]\ndim = 2\nentry = 1 2 "x +* y"\n'
                    '[submanifold]\nparams = 1\ncomponent = "u"\ncomponent = "0"\n')
    code, out = run_main(["analyze", str(path)])
    assert code == 4
    rep = json.loads(out)
    assert "position 3" in rep["error"]
    assert rep["exit_code"] == 4


def test_non_finite_entry_exits_4_naming_the_operation(tmp_path):
    path = tmp_path / "pole.scene"
    path.write_text('[poisson]\ndim = 2\nentry = 1 2 "1/(x - x)"\n'
                    '[submanifold]\nparams = 1\ncomponent = "u"\ncomponent = "0"\n')
    code, out = run_main(["analyze", str(path)])
    assert code == 4
    assert json.loads(out)["error"].startswith("non-finite result from division at point (")


def test_overflowing_jacobi_residual_exits_4_with_a_strict_json_report(tmp_path):
    # finite entries whose Schouten products overflow: the certificate once
    # took the NaN residuals for a pass
    path = tmp_path / "overflow.scene"
    path.write_text('[poisson]\ndim = 3\nentry = 1 2 "1e200*z"\nentry = 2 3 "1e200*x"\n'
                    'entry = 3 1 "1e200*x"\n[submanifold]\nparams = 0\n'
                    'component = "0.5"\ncomponent = "0.5"\ncomponent = "0.5"\n')
    code, out = run_main(["analyze", str(path)])
    assert code == 4
    rep = strict_json(out)
    assert rep["exit_code"] == 4
    assert rep["error"].startswith("non-finite Jacobi residual at point (")


def _line_scene(entry="x", component="0"):
    return (f'[poisson]\ndim = 2\nentry = 1 2 "{entry}"\n'
            f'[submanifold]\nparams = 1\ncomponent = "u"\ncomponent = "{component}"\n')


@pytest.mark.parametrize("scene,operation", [
    # Python 1.0 / 0.0 raises ZeroDivisionError
    pytest.param(_line_scene(entry="x + 1/0"), "division", id="x + 1/0-division"),
    # Python 10.0 ** 400 raises OverflowError
    pytest.param(_line_scene(entry="x + 10^400"), "integer power",
                 id="x + 10^400-integer power"),
    # a constant entry is evaluated before the certificate skips its partials
    pytest.param(_line_scene(entry="1e400"), "evaluation", id="1e400-evaluation"),
    pytest.param(_line_scene(entry="1/0"), "division", id="1/0-division"),
    # a constant chart component is evaluated like any other
    pytest.param(_line_scene(component="1e400"), "evaluation", id="component 1e400-evaluation"),
    # 0*e, 0/e and e^0 fold only when e reads a variable or is a finite literal
    pytest.param(_line_scene(entry="0/0"), "division", id="0/0-division"),
    pytest.param(_line_scene(entry="0*(1/0)"), "division", id="0*(1/0)-division"),
    pytest.param(_line_scene(entry="0*1e400"), "multiplication", id="0*1e400-multiplication"),
    pytest.param(_line_scene(entry="(1/0)^0"), "division", id="(1/0)^0-division"),
    pytest.param('[presymplectic]\ndim = 2\nentry = 1 2 "x + 1/0"\n', "division",
                 id="presymplectic x + 1/0-division"),
])
def test_literal_arithmetic_error_exits_4_naming_the_operation(tmp_path, scene, operation):
    path = tmp_path / "literal.scene"
    path.write_text(scene)
    code, out = run_main(["analyze", str(path)])
    assert code == 4
    assert json.loads(out)["error"].startswith(f"non-finite result from {operation} at point (")


@pytest.mark.parametrize("command,flows", [("all", 9), ("verify", 1)])
def test_all_transversal_ray_flow_calls(tmp_path, monkeypatch, command, flows):
    # saturate: grid 1, landing probes 1, lockstep projection 4 iterations;
    # model: zero-section grid 1, closedness 1, extraction 1; verify reads
    # the saturate stage's grid, and alone it flows that grid once
    calls = []
    real_flow = model.flow

    def counting_flow(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[1])))
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(model, "flow", counting_flow)
    code, _ = run_main([command, write_fixture(tmp_path, "transversal-ray"), "--steps", "32"])
    assert code == 0
    assert len(calls) == flows
    assert min(calls) > 1  # no single-trajectory flows remain


@pytest.mark.parametrize("fixture,argv,frames,lifts,gate", [
    ("figure-eight", ["verify", "--steps", "128"], 126, 25, 91),
    ("transversal-ray", ["all", "--steps", "32", "--csv"], 133, 6, 19),
], ids=["verify-figure-eight", "all-transversal-ray"])
def test_frames_and_lifts_once_per_parameter(tmp_path, monkeypatch, fixture, argv, frames,
                                             lifts, gate):
    # ComplementChoice sends point_data_rows one row per distinct u that
    # reaches its frames (grid, stencil and probe parameters, and the anchor
    # twice: the constructor's frame, which sets the alignment references,
    # is not kept), counted in rows; the stacked pullback_dirac_rows lifts
    # once per distinct u of each verify and extraction_radius call, on the
    # memoised frame, counted in rows, so the submanifold module computes
    # point data only for the regularity gate: the scan grid and
    # classify's 10 extra samples, counted in rows
    calls = {"frame_rows": 0, "pullback_dirac": 0, "gate_rows": 0}
    real_frame_rows, real_pullback = model.point_data_rows, model.pullback_dirac_rows
    real_rows = submanifold.point_data_rows

    def frame_rows(bv, chart, us):
        calls["frame_rows"] += len(us)
        return real_frame_rows(bv, chart, us)

    def pullback_dirac_rows(pds):
        calls["pullback_dirac"] += len(pds)
        return real_pullback(pds)

    def point_data_rows(bv, chart, us):
        calls["gate_rows"] += len(us)
        return real_rows(bv, chart, us)

    monkeypatch.setattr(model, "point_data_rows", frame_rows)
    monkeypatch.setattr(model, "pullback_dirac_rows", pullback_dirac_rows)
    monkeypatch.setattr(submanifold, "point_data_rows", point_data_rows)
    code, _ = run_main([argv[0], write_fixture(tmp_path, fixture), *argv[1:]])
    assert code == 0
    assert calls == {"frame_rows": frames, "pullback_dirac": lifts, "gate_rows": gate}


@pytest.mark.parametrize("job,single,stacked", [("analyze-cubic-graph", 0, 1084),
                                               ("gotay-verify", 1, 80),
                                               ("verify-figure-eight", 1, 1570)],
                         ids=["analyze-cubic-graph", "gotay-verify", "verify-figure-eight"])
@pytest.mark.build_independent
def test_rank_svd_calls_are_exact(tmp_path, monkeypatch, job, single, stacked):
    # every matrix that reaches a rank decision is counted where it enters:
    # one per rank_svd call, one per matrix of a rank_svd_many batch, so
    # moving work into a batch cannot hide it.  analyze decides no single
    # matrix: each of the 271 samples classify sees on cubic-graph takes
    # four stacked ones (the orth of dX, the null of TX^T, TXperp and the
    # sum [TX | TXperp]), and every flag, the corank and the cap dimension
    # are read from those ranks.  GotayModel.verify
    # decides one (the vertical frame, at construction) and stacks the rest:
    # the origin's kernel and inclusion at construction (9), then, once per
    # distinct input, the one kernel and inclusion of the constant form's
    # one L (5), its one lift (3), the one graph of a zero-section bivector
    # and the one gauge (2), and the one extraction (1), and the 20
    # reproduction pullbacks (60).  verify on figure-eight decides 1571
    # matrices; every complement frame's null and inclusion rank are stacked
    # over the memo misses of one frames call, the constant structure's 25
    # bivector graphs are one graph, and the zero-section check stacks the
    # ranks of its 25 expected frames and reuses dPhi's, so 1 remains single
    real, real_many = linear.rank_svd, linear.rank_svd_many
    count = {"single": 0, "stacked": 0}

    def counted(*args, **kwargs):
        count["single"] += 1
        return real(*args, **kwargs)

    def counted_many(ms, *args, **kwargs):
        count["stacked"] += len(ms)
        return real_many(ms, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("poissat"):
            if getattr(mod, "rank_svd", None) is real:
                monkeypatch.setattr(mod, "rank_svd", counted)
            if getattr(mod, "rank_svd_many", None) is real_many:
                monkeypatch.setattr(mod, "rank_svd_many", counted_many)
    if job == "gotay-verify":
        omega = linear.dirac_graph(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                                   "two_form")
        model.GotayModel(3, lambda xs: [omega] * len(xs)).verify(samples=20)
    elif job == "verify-figure-eight":
        code, _ = run_main(["verify", write_fixture(tmp_path, "figure-eight"), "--steps", "32"])
        assert code == 0
    else:
        code, _ = run_main(["analyze", write_fixture(tmp_path, "cubic-graph")])
        assert code == 3
    assert count == {"single": single, "stacked": stacked}


@pytest.mark.build_independent
def test_svd_rows_are_exact(tmp_path, monkeypatch):
    # every matrix np.linalg.svd receives is counted, one per matrix of a
    # stack: the rank rules run it once per distinct matrix of a call, so the
    # 1595 rank-decided matrices of verify on figure-eight reach it as 126
    # rows, and the zero-section check's principal angles add two
    # singular-value rows per zero sample (50)
    real = np.linalg.svd
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(len(a) if np.ndim(a) == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, _ = run_main(["verify", write_fixture(tmp_path, "figure-eight"), "--steps", "32"])
    assert code == 0
    assert sum(rows) == 176


@pytest.mark.parametrize("target", [pytest.param("pullback_dirac_rows", id="pullback_dirac"),
                                    pytest.param("dirac_gauge_many", id="dirac_gauge")])
def test_extraction_radius_rank_failure_exits_3(tmp_path, monkeypatch, target):
    # a rank failure does not depend on the fiber radius: it must stop the
    # model stage with its reason, not halve the radius down to 0.0; the
    # model lifts and gauges through the stacked entry points, so those are
    # patched (the ids keep the names of the one-row steps they batch).  The
    # message is the one the "perp" frame alignment raises when TXperp
    # changes width
    reason = ("reference frame dimension mismatch for 'perp': "
              "1 columns in the reference, 2 in the basis")

    def rank_deficient(*args, **kwargs):
        raise model.RankDeficient(reason)

    monkeypatch.setattr(model, target, rank_deficient)
    code, out = run_main(["model", write_fixture(tmp_path, "coiso-line"), "--steps", "32"])
    assert code == 3
    stage = json.loads(out)["stages"]["model"]
    assert stage == {"status": "fail", "reason": reason}


LATE_AREA = ('[poisson]\ndim = 4\nentry = 1 2 "1"\nentry = 3 4 "1"\ndomain = -2 2\n'
             '[submanifold]\nparams = 2\ncomponent = "u"\ncomponent = "0"\n'
             'component = "v"\ncomponent = "exp(40*(u - 1))/40"\ndomain = -1 1\n'
             "[complement]\nmode = pre_poisson\n")

LATE_AREA_REASON = ("complement mode 'pre_poisson' needs a pre_poisson chart; analyze saw "
                    "rank_sets {'perp': [2], 'cap': [0, 2], 'sum': [2, 4]}")


def _run_late_area(tmp_path, monkeypatch, command):
    flows = []
    monkeypatch.setattr(model, "flow", lambda *args, **kwargs: flows.append(args))
    path = tmp_path / "late-area.scene"
    path.write_text(LATE_AREA)
    code, out = run_main([command, str(path), "--steps", "32"])
    return code, strict_json(out), flows


def test_frame_that_changes_dimension_exits_3(tmp_path, monkeypatch):
    # a surface in symplectic R^4 whose cap TXperp cap TX has 2 columns at
    # the anchor and none at u = 0.9, which the model stage's grid reaches:
    # a failed rank condition, not an error.  analyze samples the jump in
    # the sum rank, so the model stage fails before any frame is built (the
    # frame that changes dimension itself is pinned in test_model)
    code, rep, flows = _run_late_area(tmp_path, monkeypatch, "model")
    assert code == 3
    assert rep["stages"]["model"] == {"status": "fail", "reason": LATE_AREA_REASON}
    assert not flows


@pytest.mark.parametrize("command", ["saturate", "verify", "all"])
def test_complement_mode_is_checked_against_analyze_flags(tmp_path, monkeypatch, command):
    # analyze finds the sum rank not constant (flags.pre_poisson false), so
    # the first stage after it fails before any frame is built or flow run;
    # the frames would meet a non-isotropic cap near u = 0.5
    code, rep, flows = _run_late_area(tmp_path, monkeypatch, command)
    first = "saturate" if command == "all" else command
    assert code == rep["exit_code"] == 3
    assert rep["stages"]["analyze"]["flags"]["pre_poisson"] is False
    assert list(rep["stages"]) == ["analyze", first]
    assert rep["stages"][first] == {"status": "fail", "reason": LATE_AREA_REASON}
    assert not flows


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_unknown_complement_mode_exits_4_before_any_stage(tmp_path, command):
    # the mode is a scene value, checked with the others before any stage
    path = tmp_path / "bogus.scene"
    path.write_text(FIXTURES["coiso-line"].replace("mode = coisotropic", "mode = bogus"))
    code, out = run_main([command, str(path)])
    assert code == 4
    rep = strict_json(out)
    assert rep["error"] == "unknown complement mode 'bogus'"
    assert "stages" not in rep


@pytest.fixture(scope="module")
def clean_all(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean")
    return {name: strict_json(run_main(["all", write_fixture(path, name), "--steps", "32"])[1])
            for name in ("coiso-line", "gotay-presymplectic")}


@pytest.mark.parametrize("make,status,code", [
    pytest.param(lambda: linear.RankDeficient("corank jumps"), "fail", 3, id="RankDeficient"),
    pytest.param(lambda: linear.NotPoisson("no bivector presentation", 1), "error", 4,
                 id="NotPoisson"),
    pytest.param(lambda: LeftDomain("left the domain box"), "error", 4, id="LeftDomain"),
    pytest.param(lambda: EvalError("non-finite result from exp at point (9.0,)", (9.0,)),
                 "error", 4, id="EvalError"),
])
@pytest.mark.parametrize("fixture,stage,owner,attr", [
    pytest.param("coiso-line", "analyze", cli, "classify", id="poisson-analyze"),
    pytest.param("coiso-line", "saturate", cli, "full_fiber_landing",
                 id="poisson-saturate"),
    pytest.param("coiso-line", "model", cli, "extraction_radius", id="poisson-model"),
    pytest.param("coiso-line", "verify", cli, "verify_normal_form", id="poisson-verify"),
    pytest.param("gotay-presymplectic", "analyze", cli, "GotayModel",
                 id="presymplectic-analyze"),
    pytest.param("gotay-presymplectic", "model", model.GotayModel, "bivector_at",
                 id="presymplectic-model"),
    pytest.param("gotay-presymplectic", "verify", model.GotayModel, "verify",
                 id="presymplectic-verify"),
])
def test_stage_outcomes_map_to_one_exit_code_table(tmp_path, monkeypatch, clean_all, fixture,
                                                   stage, owner, attr, make, status, code):
    # both scene kinds share one rule: a failed prerequisite fails the stage
    # (exit 3), any other ValueError is the stage's error (exit 4), except
    # in analyze, where it is the run's top-level error; parameters and the
    # stages before the failing one stay in the report
    def raising(*args, **kwargs):
        raise make()

    monkeypatch.setattr(owner, attr, raising)
    got, out = run_main(["all", write_fixture(tmp_path, fixture), "--steps", "32"])
    rep = strict_json(out)
    if stage == "analyze" and status == "error":
        assert (got, rep["exit_code"], rep["error"]) == (4, 4, str(make()))
        assert "stages" not in rep
        return
    clean = clean_all[fixture]
    assert got == rep["exit_code"] == code
    assert rep["parameters"] == clean["parameters"]
    names = list(clean["stages"])
    assert list(rep["stages"]) == names[:names.index(stage) + 1]
    assert all(rep["stages"][s] == clean["stages"][s] for s in names[:names.index(stage)])
    assert rep["stages"][stage] == {"status": status, "reason": str(make())}


def test_presymplectic_overflow_in_verify_is_a_stage_error(tmp_path):
    # exp(1000*x1) is finite at the origin, where analyze and model read the
    # form, and overflows on verify's samples within radius 1: a breakdown
    # after analyze is that stage's error, and the report keeps the rest
    path = tmp_path / "overflow.scene"
    path.write_text('[presymplectic]\ndim = 3\nentry = 1 2 "exp(1000*x1)"\nradius = 1\n')
    code, out = run_main(["all", str(path)])
    assert code == 4
    rep = strict_json(out)
    assert rep["exit_code"] == 4
    assert [s["status"] for s in rep["stages"].values()] == ["pass", "skipped", "pass", "error"]
    assert rep["stages"]["verify"]["reason"].startswith("non-finite result from exp at point (")
    assert rep["parameters"]["seed"] == 0


def test_verify_alone_runs_the_saturation_rank_check(tmp_path, monkeypatch):
    # a chart differential of rank k + r - 1 must stop verify with the rank
    # reason, not be compared on the directions that are left
    real_bundle_flow = model._bundle_flow

    def rank_deficient(*args, **kwargs):
        frames, res, dphi, etas = real_bundle_flow(*args, **kwargs)
        dphi[:, :, -1] = 0.0
        return frames, res, dphi, etas

    monkeypatch.setattr(model, "_bundle_flow", rank_deficient)
    code, out = run_main(["verify", write_fixture(tmp_path, "transversal-ray"), "--steps", "32"])
    assert code == 3
    stage = json.loads(out)["stages"]["verify"]
    assert stage["status"] == "fail"
    assert stage["reason"].startswith("chart rank defect at u = ")


@pytest.mark.parametrize("radius", ["0", "-0.1", "nan", "inf"])
def test_presymplectic_radius_must_be_positive(tmp_path, radius):
    # radius 0 used to pass verify on 20 copies of the origin, and nan to
    # crash in the sampler
    path = tmp_path / "radius.scene"
    path.write_text(FIXTURES["gotay-presymplectic"].replace("radius = 0.1",
                                                            f"radius = {radius}"))
    code, out = run_main(["verify", str(path)])
    assert code == 4
    rep = strict_json(out)
    assert rep["error"] == "[presymplectic] radius must be finite and positive"
    assert "stages" not in rep


@pytest.mark.parametrize("radius", ["0.0005", "0", "-0.1", "nan", "inf"])
def test_xi_radius_below_the_radius_floor_exits_4(tmp_path, radius):
    # below the floor the radius-halving loop tries no radius at all; from
    # inf it would halve forever
    path = tmp_path / "radius.scene"
    path.write_text(FIXTURES["coiso-line"] + f"[flow]\nxi_radius = {radius}\n")
    code, out = run_main(["all", str(path), "--steps", "32"])
    assert code == 4
    rep = strict_json(out)
    assert rep["error"] == ("xi_radius must be finite and at least the radius floor "
                            f"{model.RADIUS_FLOOR}")
    assert "stages" not in rep


@pytest.mark.parametrize("old,new", [("-2 2", "-2 inf"), ("-2 2", "-inf 2"), ("-1 1", "nan 1"),
                                     ("-1 1", "1 1")])
def test_domain_must_be_finite_and_non_empty(tmp_path, old, new):
    # an infinite bound used to crash the chart's random sampler
    path = tmp_path / "domain.scene"
    path.write_text(FIXTURES["coiso-line"].replace(f"domain = {old}", f"domain = {new}"))
    code, out = run_main(["all", str(path), "--steps", "32"])
    assert code == 4
    rep = strict_json(out)
    lo, hi = (float(v) for v in new.split())
    assert rep["error"].endswith(f"domain interval [{lo}, {hi}] must be finite and non-empty")
    assert "stages" not in rep


@pytest.mark.parametrize("value", ["0", "nan", "inf"])
@pytest.mark.parametrize("key", ["tol_normal", "tol_saturation", "tol_landing", "--tol"])
def test_tolerances_must_be_finite_and_positive(tmp_path, key, value):
    # a nan tolerance failed every check and an inf one passed every check,
    # and either wrote a token that is not JSON into the report
    path = tmp_path / "tol.scene"
    argv = ["all", str(path), "--steps", "32"]
    if key == "--tol":
        path.write_text(FIXTURES["coiso-line"])
        argv += ["--tol", value]
    else:
        path.write_text(FIXTURES["coiso-line"] + f"[model]\n{key} = {value}\n")
    code, out = run_main(argv)
    assert code == 4
    rep = strict_json(out)
    name = "normal" if key == "--tol" else key.removeprefix("tol_")
    assert rep["error"] == f"tolerance '{name}' must be finite and positive"
    assert "stages" not in rep


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.build_independent
def test_gotay_verify_alone_matches_all(tmp_path, seed):
    # the alignment references are fixed at construction, so the model
    # stage that `all` runs first does not change the verify numbers
    path = tmp_path / "r3.scene"
    path.write_text('[presymplectic]\ndim = 3\nentry = 1 2 "1"\nentry = 2 3 "x2"\n'
                    f"[model]\nseed = {seed}\n")
    (code_v, out_v), (code_a, out_a) = (run_main([cmd, str(path)]) for cmd in ("verify", "all"))
    assert code_v == code_a
    assert json.loads(out_v)["stages"]["verify"] == json.loads(out_a)["stages"]["verify"]


@pytest.mark.parametrize("fixture", ["coiso-line", "transversal-ray", "gotay-presymplectic"])
def test_alignment_references_are_set_at_construction(tmp_path, monkeypatch, fixture):
    built = []

    def recording(build):
        def wrapped(*args, **kwargs):
            obj = build(*args, **kwargs)
            built.append((obj, set(obj._refs)))
            return obj
        return wrapped

    monkeypatch.setattr(cli, "ComplementChoice", recording(cli.ComplementChoice))
    monkeypatch.setattr(cli, "GotayModel", recording(cli.GotayModel))
    code, _ = run_main(["all", write_fixture(tmp_path, fixture), "--steps", "32"])
    assert code == 0
    [(obj, keys)] = built
    assert keys and set(obj._refs) == keys


def test_missing_file_exits_4(tmp_path):
    code, out = run_main(["analyze", str(tmp_path / "absent.scene")])
    assert code == 4
    assert "cannot read scene" in json.loads(out)["error"]


def test_jacobi_certificate_failure_exits_3(tmp_path):
    path = tmp_path / "corrupt.scene"
    path.write_text(FIXTURES["so3-plane"].replace('entry = 1 2 "z"',
                                                  'entry = 1 2 "z + 0.1*x^2"'))
    code, out = run_main(["analyze", str(path)])
    assert code == 3
    stage = json.loads(out)["stages"]["analyze"]
    assert stage["reason"] == "jacobi certificate failed"
    assert stage["residual"] > 0.1


def test_custom_complement_without_w_exits_3_pathway():
    # missing w is caught at scene level, before any numerics
    text = FIXTURES["coiso-line"].replace("mode = coisotropic", "mode = custom")
    with pytest.raises(SceneError):
        complement_of(text)


def test_coisotropic_mode_on_transversal_exits_3(tmp_path):
    text = FIXTURES["sympl-plane"].replace("mode = default", "mode = coisotropic")
    path = tmp_path / "wrongmode.scene"
    path.write_text(text)
    code, out = run_main(["saturate", str(path)])
    assert code == 3
    rep = json.loads(out)
    assert "coisotropic" in rep["stages"]["saturate"]["reason"]


def test_report_deterministic():
    sc = scene_of("coiso-line")
    code1, rep1, csv1 = run_scene(sc, "all", want_csv=True)
    code2, rep2, csv2 = run_scene(sc, "all", want_csv=True)
    assert code1 == code2 == 0
    rep1.pop("generated_at"), rep2.pop("generated_at")
    assert cli.report_text(rep1) == cli.report_text(rep2)
    assert csv1 == csv2


# sha256 of each `all --steps 32` report (without generated_at) and CSV.
# A refactor keeps these bytes; only an intended report change updates them.
GOLDEN_ALL_STEPS_32 = {
    "so3-plane": (3, "885de31b8d1d5fbe0244136a83c1f26fa953993c709fd7b4f44db6dcc60e65b0",
        None),
    "logsympl-axis": (3, "e2af017875f16f670fc65403b66b2c192e0b5bbc74ebc6ba9efe8af0ed73556c",
        None),
    "cubic-graph": (3, "4bf11f775c0826aa4123ca7801a74f5006d96988464706b8806d14f0a719e947",
        None),
    "figure-eight": (0, "67fd7e633521e792f920da7f5f7822cf421f4914a2644a3f5d29250c79512a9d",
        "43b6a95d172a498ebc066827785694f7cf6097bcf5fa6b4664ab32a52e9d983a"),
    "coiso-line": (0, "8665e155b9cf94bc865d036637c4f51989d7ba4f8ea381c73477608871917f9a",
        "635672099cdf2b459a2503c7b90da8f2c5b677791b413b047fee47dd0ad28017"),
    "transversal-ray": (0, "501799271cdd345a958069452405b8490537f61e2f8fe987aba32f989aeabf95",
        "25a5326b08c8e38c5e2d7f2fa14c43ea94a8e6c1a784201afbc71b0dee2983aa"),
    "sympl-plane": (0, "5404230260e6117e82b8398ea4ff867970b7549f990ac6fa3843d9770ef64355",
        "c3c4ab6b9ee73b713036aacdb974c0fd3c26fcf83054485e8da78fadcb76d0a9"),
    "zero-structure": (0, "9e8804e6a927ac677757f8410b51c66822ea3567733b9b016d75d7aa57a37086",
        "07fa82582d4464bd3fd4a61588392c672869764d14fae460cab73ece6c4ca34a"),
    "gotay-presymplectic": (0, "08ad919745f5e05cd9fdf80e32f39661f679d6fbc1bacf260326f93d60819c34",
        None),
}


@pytest.mark.parametrize("name", list(GOLDEN_ALL_STEPS_32))
def test_all_reports_match_golden_digests(name):
    def digest(text):
        return None if text is None else hashlib.sha256(text.encode()).hexdigest()

    code, rep, csv_text = run_scene(scene_of(name), "all", scene_name=name, steps_override=32,
                                    want_csv=True)
    rep.pop("generated_at")
    assert (code, digest(cli.report_text(rep)), digest(csv_text)) == GOLDEN_ALL_STEPS_32[name]


# The same digests for the pre_poisson model stage, whose sigma_rank,
# quotient_rank and cross_residual no fixture reaches.
PRE_POISSON_SCENES = {
    "pre-poisson-line": PRE_POISSON_LINE,
    "coiso-line-pre-poisson": FIXTURES["coiso-line"].replace("mode = coisotropic",
                                                             "mode = pre_poisson"),
}
GOLDEN_PRE_POISSON_STEPS_32 = {
    "pre-poisson-line": (0, "286b4e8edad8a83771ebb45bf65b9a63581efa8de182403b9ef969d337df1199",
        "4ac0022c7131fcd5e350a76ad0c2da37741c95e0e188a1ce15604f9097d9e73c"),
    "coiso-line-pre-poisson": (0,
        "9a67fd87e5cfe5db4dda369db686af534d6fbf25bd49cfb5296f43f6b03ba393",
        "635672099cdf2b459a2503c7b90da8f2c5b677791b413b047fee47dd0ad28017"),
}


@pytest.mark.parametrize("name", list(GOLDEN_PRE_POISSON_STEPS_32))
def test_pre_poisson_reports_match_golden_digests(name):
    def digest(text):
        return None if text is None else hashlib.sha256(text.encode()).hexdigest()

    assert "mode = pre_poisson" in PRE_POISSON_SCENES[name]
    code, rep, csv_text = run_scene(parse_scene(PRE_POISSON_SCENES[name]), "all", scene_name=name,
                                    steps_override=32, want_csv=True)
    rep.pop("generated_at")
    assert "quotient_rank" in rep["stages"]["model"]
    assert (code, digest(cli.report_text(rep)), digest(csv_text)) == GOLDEN_PRE_POISSON_STEPS_32[name]


def test_report_field_order_stable():
    _, rep, _ = run_scene(scene_of("zero-structure"), "analyze")
    assert list(rep) == ["schema", "convention", "scene", "command", "generated_at",
                         "parameters", "stages", "exit_code"]
    assert rep["schema"] == 1
    assert "sharp(a) = PI @ a" in rep["convention"]


def test_console_script_wired():
    proc = subprocess.run([sys.executable, "-m", "poissat.cli", "fixtures", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == list(FIXTURES)
