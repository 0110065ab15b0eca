"""Scene parsing, fixture catalog, pipeline exit codes, and reports."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from poissat import cli, model
from poissat.cli import (
    Scene,
    SceneError,
    build_bivector,
    build_chart,
    build_complement,
    parse_scene,
    run_scene,
    scene_parameters,
)
from poissat.fixtures import FIXTURES


def scene_of(name):
    return parse_scene(FIXTURES[name])


def run_main(argv):
    out = io.StringIO()
    code = cli.main(argv, stream=out)
    return code, out.getvalue()


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
    sc = parse_scene(text)
    bv = build_bivector(sc)
    chart = build_chart(sc, bv.dim)
    comp = build_complement(sc, bv, chart)
    assert comp.mode == "custom"
    fr = comp.at(chart.center())
    assert np.allclose(fr.w, [[0.3, 0.0], [1.0, 0.0], [0.0, 1.0]])

    varying = text.replace('w = "0.3" "1" "0"', 'w = "0.3*u" "1" "0"')
    sc2 = parse_scene(varying)
    comp2 = build_complement(sc2, bv, build_chart(sc2, bv.dim))
    assert np.allclose(comp2.at([0.5]).w[:, 0], [0.15, 1.0, 0.0])


def test_nonconstant_g_rejected():
    text = FIXTURES["coiso-line"].replace(
        "mode = coisotropic", 'mode = coisotropic\ng = "u" "0" "0"')
    sc = parse_scene(text)
    bv = build_bivector(sc)
    with pytest.raises(SceneError):
        build_complement(sc, bv, build_chart(sc, bv.dim))


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


def test_verification_failure_exits_2(tmp_path):
    path = write_fixture(tmp_path, "transversal-ray")
    code, out = run_main(["verify", path, "--steps", "512", "--tol", "1e-18"])
    assert code == 2
    rep = json.loads(out)
    assert rep["stages"]["verify"]["status"] == "fail"
    assert rep["exit_code"] == 2


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


def _line_scene(entry="x", component="0"):
    return (f'[poisson]\ndim = 2\nentry = 1 2 "{entry}"\n'
            f'[submanifold]\nparams = 1\ncomponent = "u"\ncomponent = "{component}"\n')


@pytest.mark.parametrize("scene,operation", [
    # Python 1.0 / 0.0 raises ZeroDivisionError
    pytest.param(_line_scene(entry="x + 1/0"), "division", id="x + 1/0-division"),
    # Python 10.0 ** 400 raises OverflowError
    pytest.param(_line_scene(entry="x + 10^400"), "integer power",
                 id="x + 10^400-integer power"),
    # a constant chart component is evaluated like any other
    pytest.param(_line_scene(component="1e400"), "evaluation", id="component 1e400-evaluation"),
    pytest.param('[presymplectic]\ndim = 2\nentry = 1 2 "x + 1/0"\n', "division",
                 id="presymplectic x + 1/0-division"),
])
def test_literal_arithmetic_error_exits_4_naming_the_operation(tmp_path, scene, operation):
    path = tmp_path / "literal.scene"
    path.write_text(scene)
    code, out = run_main(["analyze", str(path)])
    assert code == 4
    assert json.loads(out)["error"].startswith(f"non-finite result from {operation} at point (")


def test_all_transversal_ray_flow_calls(tmp_path, monkeypatch):
    # saturate: grid 1, landing probes 1, lockstep projection 4 iterations;
    # model: zero-section grid 1, closedness 1, extraction 1; verify: grid 1
    calls = []
    real_flow = model.flow

    def counting_flow(*args, **kwargs):
        calls.append(len(np.atleast_2d(args[1])))
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(model, "flow", counting_flow)
    code, _ = run_main(["all", write_fixture(tmp_path, "transversal-ray"), "--steps", "32"])
    assert code == 0
    assert len(calls) == 10
    assert min(calls) > 1  # no single-trajectory flows remain


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
    sc = parse_scene(text)
    bv = build_bivector(sc)
    with pytest.raises(SceneError):
        build_complement(sc, bv, build_chart(sc, bv.dim))


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
