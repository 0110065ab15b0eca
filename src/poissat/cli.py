"""Scene files, the stage pipeline, and report emission.

A scene is a flat sectioned key = value text; values are shlex-split so
expressions travel as quoted tokens.  Sections: [poisson] (dim, entry,
domain), [submanifold] (params, vars, component, domain), [flow] (steps,
xi_radius), [complement] (mode, g/h/w frame columns), [model] (counts,
seeds, tolerances), or [presymplectic] (dim, entry, radius) for the
coisotropic-embedding pipeline.

Commands run the stages analyze -> saturate -> model -> verify and emit
a JSON report (schema 1) plus an optional CSV point cloud.  Exit codes:
0 all stages pass, 2 a tolerance check fails, 3 a prerequisite fails
(non-regular chart, Jacobi certificate, complement rank conditions),
4 file/parse/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import CONVENTION, __version__
from .expr import EvalError, ExprError, Neg, compile_kernel, parse
from .field import BivectorField, JacobiError
from .fixtures import FIXTURES
from .linear import NotPoisson, RankDeficient, dirac_graph_many
from .model import (
    RADIUS_FLOOR,
    ComplementChoice,
    GotayModel,
    eta_closedness_residual,
    eta_forms,
    eta_zero_section,
    extraction_radius,
    full_fiber_landing,
    marle_invariants,
    saturation_chart,
    sigma_tau,
    verify_normal_form,
    verify_saturation_poisson,
)
from .submanifold import Chart, classify, regularity_scan

_MISSING = object()

_SECTIONS = {
    "poisson": {"dim", "entry", "domain"},
    "submanifold": {"params", "vars", "component", "domain"},
    "flow": {"steps", "xi_radius"},
    "complement": {"mode", "g", "h", "w"},
    "model": {"u_counts", "per_u", "seed", "tol_normal", "tol_saturation", "tol_landing"},
    "presymplectic": {"dim", "entry", "radius"},
}


class SceneError(ValueError):
    """Scene text failure; carries the 1-based line in .line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class Scene:
    """Parsed scene: ordered (key, tokens, line) rows per section."""

    def __init__(self, sections):
        self.sections = sections

    def has(self, section):
        return section in self.sections

    def rows(self, section, key):
        return [(t, ln) for k, t, ln in self.sections.get(section, []) if k == key]

    def scalar(self, section, key, default=_MISSING, convert=str):
        rows = self.rows(section, key)
        if not rows:
            if default is _MISSING:
                raise SceneError(f"[{section}] is missing '{key}'")
            return default
        tokens, line = rows[-1]
        if len(tokens) != 1:
            raise SceneError(f"'{key}' takes a single value", line)
        try:
            return convert(tokens[0])
        except ValueError:
            raise SceneError(f"bad value for '{key}': {tokens[0]!r}", line) from None


def parse_scene(text: str) -> Scene:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise SceneError("empty section name", lineno)
            if current not in _SECTIONS:
                raise SceneError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise SceneError("key outside any [section]", lineno)
        key, eq, value = line.partition("=")
        if not eq:
            raise SceneError("expected key = value", lineno)
        key = key.strip()
        if key not in _SECTIONS[current]:
            raise SceneError(f"unknown key '{key}' in [{current}]", lineno)
        try:
            tokens = shlex.split(value.strip(), comments=False, posix=True)
        except ValueError as exc:
            raise SceneError(f"bad value: {exc}", lineno) from None
        if not tokens:
            raise SceneError(f"'{key}' has no value", lineno)
        sections[current].append((key, tokens, lineno))
    if "poisson" in sections and "presymplectic" in sections:
        raise SceneError("scene mixes [poisson] and [presymplectic]")
    if "poisson" not in sections and "presymplectic" not in sections:
        raise SceneError("scene needs a [poisson] or [presymplectic] section")
    return Scene(sections)


# Builders


def _entries(scene, section, dim):
    entries = {}
    for tokens, line in scene.rows(section, "entry"):
        if len(tokens) != 3:
            raise SceneError('entry takes: i j "expression"', line)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise SceneError(f"bad entry indices {tokens[0]!r} {tokens[1]!r}", line) from None
        if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
            raise SceneError(f"entry indices out of range: {i} {j}", line)
        if (i - 1, j - 1) in entries or (j - 1, i - 1) in entries:
            raise SceneError(f"duplicate entry {i} {j}", line)
        entries[(i - 1, j - 1)] = tokens[2]
    return entries


def _domain(scene, section, dim):
    rows = scene.rows(section, "domain")
    if not rows:
        return None
    vals = []
    for tokens, line in rows:
        if len(tokens) != 2:
            raise SceneError("domain takes: lo hi", line)
        try:
            lo, hi = float(tokens[0]), float(tokens[1])
        except ValueError:
            raise SceneError(f"bad domain row {tokens!r}", line) from None
        if not lo < hi:
            raise SceneError(f"empty domain interval [{lo}, {hi}]", line)
        vals.append([lo, hi])
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise SceneError(f"[{section}] needs 1 or {dim} domain rows, got {len(vals)}",
                         rows[-1][1])
    return np.array(vals)


def build_bivector(scene: Scene) -> BivectorField:
    dim = scene.scalar("poisson", "dim", convert=int)
    if dim < 1:
        raise SceneError("dim must be positive")
    entries = _entries(scene, "poisson", dim)
    return BivectorField(dim, entries, domain=_domain(scene, "poisson", dim))


def build_chart(scene: Scene, ambient_dim) -> Chart:
    k = scene.scalar("submanifold", "params", convert=int)
    if k < 0:
        raise SceneError("params must be nonnegative")
    names = None
    rows = scene.rows("submanifold", "vars")
    if rows:
        tokens, line = rows[-1]
        if len(tokens) != k:
            raise SceneError(f"vars needs {k} names, got {len(tokens)}", line)
        names = tokens
    comps = []
    for tokens, line in scene.rows("submanifold", "component"):
        if len(tokens) != 1:
            raise SceneError("component takes a single expression", line)
        comps.append(tokens[0])
    if len(comps) != ambient_dim:
        raise SceneError(f"need {ambient_dim} components, got {len(comps)}")
    comps = [parse(c, k, names) for c in comps]
    return Chart(k, ambient_dim, comps, domain=_domain(scene, "submanifold", k), names=names)


def _frame_columns(scene, key, chart):
    """Frame value for [complement] g/h/w: constant matrix or callable."""
    rows = scene.rows("complement", key)
    if not rows:
        return None
    n, k = chart.ambient_dim, chart.param_dim
    names = None  # chart components were already parsed; reuse text names
    vars_rows = scene.rows("submanifold", "vars")
    if vars_rows:
        names = vars_rows[-1][0]
    slots = []
    for c, (tokens, line) in enumerate(rows):
        if len(tokens) != n:
            raise SceneError(f"'{key}' column needs {n} expressions, got {len(tokens)}", line)
        slots += [((c, i), parse(t, k, names)) for i, t in enumerate(tokens)]
    kernel = compile_kernel(slots, (len(rows), n))
    probes = np.vstack([chart.grid(2), chart.sample(3, seed=7)]) if k else np.zeros((1, 0))
    vals = kernel(probes)
    if np.ptp(vals, axis=0).max() == 0.0:
        return vals[0].T  # (n, cols) constant frame
    if key != "w":
        raise SceneError(f"'{key}' must be a constant frame", rows[0][1])

    def at(u):
        return kernel(np.atleast_1d(np.asarray(u, dtype=float))[None, :])[0].T

    return at


def build_complement(scene: Scene, bv, chart) -> ComplementChoice:
    mode = scene.scalar("complement", "mode", default="default")
    if mode not in ("default", "coisotropic", "pre_poisson", "custom"):
        raise SceneError(f"unknown complement mode {mode!r}")
    g = _frame_columns(scene, "g", chart)
    h = _frame_columns(scene, "h", chart)
    w = _frame_columns(scene, "w", chart)
    if mode == "custom" and w is None:
        raise SceneError("custom mode needs a w frame")
    return ComplementChoice(bv, chart, mode=mode, g=g, h=h, w=w)


def scene_parameters(scene: Scene, steps_override=None, tol_override=None):
    p = {
        "steps": scene.scalar("flow", "steps", default=1024, convert=int),
        "xi_radius": scene.scalar("flow", "xi_radius", default=0.2, convert=float),
        "u_counts": scene.scalar("model", "u_counts", default=5, convert=int),
        "per_u": scene.scalar("model", "per_u", default=3, convert=int),
        "seed": scene.scalar("model", "seed", default=0, convert=int),
        "mode": scene.scalar("complement", "mode", default="default"),
        "tolerances": {
            "normal": scene.scalar("model", "tol_normal", default=1e-4, convert=float),
            "saturation": scene.scalar("model", "tol_saturation", default=1e-8, convert=float),
            "landing": scene.scalar("model", "tol_landing", default=1e-4, convert=float),
        },
    }
    if steps_override is not None:
        p["steps"] = int(steps_override)
    if tol_override is not None:
        p["tolerances"]["normal"] = float(tol_override)
    for name, tol in p["tolerances"].items():
        if tol <= 0:
            raise SceneError(f"tolerance '{name}' must be positive")
    if p["steps"] < 16 or p["steps"] % 2:
        raise SceneError("steps must be even and at least 16")
    if p["seed"] < 0:
        raise SceneError("seed must be non-negative")
    if p["u_counts"] < 1 or p["per_u"] < 0:
        raise SceneError("flow/model parameters out of range")
    if not p["xi_radius"] >= RADIUS_FLOOR:
        raise SceneError(f"xi_radius must be at least the radius floor {RADIUS_FLOOR}")
    return p


# Stages

_STAGES = ("analyze", "saturate", "model", "verify")

_RUNS = {
    "analyze": ("analyze",),
    "saturate": ("analyze", "saturate"),
    "model": ("analyze", "model"),
    "verify": ("analyze", "verify"),
    "all": _STAGES,
}


def _stage_analyze(bv, chart, seed):
    scan = regularity_scan(bv, chart, counts=9, seed=seed)
    cls = classify(bv, chart, counts=9, seed=seed, scan=scan)
    out = {
        "status": "pass" if scan.regular_on_samples else "fail",
        "observed_ranks": sorted(int(r) for r in scan.witnesses),
        "witnesses": {str(r): [float(v) for v in u]
                      for r, u in sorted(scan.witnesses.items())},
        "samples": int(len(scan.params)),
        "refined": int(scan.refined),
        "flags": {k: bool(v) for k, v in cls.flags.items()},
        "rank_sets": cls.ranks,
    }
    if out["status"] == "fail":
        out["reason"] = "rank of TXperp is not constant on the sampled set"
    return out


def _saturation_chart(comp, p):
    return saturation_chart(comp, steps=p["steps"], u_counts=p["u_counts"],
                            radius=p["xi_radius"], per_u=p["per_u"], seed=p["seed"])


def _stage_saturate(comp, p):
    """Stage report, the chart and its per-sample saturation residuals."""
    sat = _saturation_chart(comp, p)
    ver = verify_saturation_poisson(sat, tol=p["tolerances"]["saturation"])
    land = full_fiber_landing(sat, radius=min(0.05, p["xi_radius"]), seed=p["seed"] + 1,
                              tol=p["tolerances"]["landing"])
    out = {
        "status": "pass" if ver["ok"] and land["ok"] else "fail",
        "model_dim": int(sat.model_dim),
        "samples": int(len(sat.points)),
        "radius_used": float(sat.radius_used),
        "max_residual": ver["max_residual"],
        "tol_saturation": ver["tol"],
        "landing_distance": land["max_distance"],
        "tol_landing": land["tol"],
    }
    return out, sat, ver["residuals"]


def _stage_model(comp, p):
    u0 = comp.chart.center()
    sigma, tau = sigma_tau(comp, u0)
    fr = comp.at(u0)
    grid = comp.chart.grid(3)
    etas = eta_forms(comp, grid, np.zeros((len(grid), comp.rank_perp)), steps=p["steps"])
    zero_resid = max([0.0, *(float(np.abs(eta - eta_zero_section(comp, u)).max())
                             for u, eta in zip(grid, etas))])
    zeta = np.full(comp.rank_perp, p["xi_radius"] / 4)
    closed = eta_closedness_residual(comp, u0, zeta, steps=min(p["steps"], 256))
    radius = extraction_radius(comp, u0, steps=min(p["steps"], 256), start=p["xi_radius"],
                               seed=p["seed"])
    conditions = {k: bool(v) if isinstance(v, (bool, np.bool_)) else float(v)
                  for k, v in fr.conditions.items()}
    invariants = {}
    if comp.mode == "pre_poisson":
        rows = marle_invariants(comp, grid)
        invariants = {"quotient_rank": int(rows[0]["quotient"].rank()),
                      "cross_residual": max(r["cross_residual"] for r in rows)}
    ok = (zero_resid <= 1e-6 and closed <= 1e-6 and radius > 0.0
          and invariants.get("cross_residual", 0.0) <= 1e-8
          and all(v <= 1e-8 for v in conditions.values() if not isinstance(v, bool))
          and all(v for v in conditions.values() if isinstance(v, bool)))
    return {
        "status": "pass" if ok else "fail",
        "rank_perp": int(comp.rank_perp),
        "cap_dim": int(comp.cap_dim),
        "sigma_rank": int(sigma.rank()),
        "tau_max": float(np.abs(tau).max()) if tau.size else 0.0,
        "eta_zero_section_residual": zero_resid,
        "eta_closedness_residual": float(closed),
        "extraction_radius": float(radius),
        "conditions": conditions,
        **invariants,
    }


def _stage_verify(sat, p):
    rep = verify_normal_form(sat, tol=p["tolerances"]["normal"])
    return {
        "status": "pass" if rep["ok"] else "fail",
        "max_mismatch": rep["max_mismatch"],
        "tol_normal": rep["tol"],
        "radius_used": rep["radius_used"],
        "samples": int(rep["samples"]),
        "steps": int(rep["steps"]),
    }


_GOTAY_TOLERANCES = {"coisotropy": 1e-10, "reproduction": 1e-8, "jacobi": 1e-10}


def _run_gotay(scene, command, report, p):
    dim = scene.scalar("presymplectic", "dim", convert=int)
    if dim < 1:
        raise SceneError("dim must be positive")
    radius = scene.scalar("presymplectic", "radius", default=0.1, convert=float)
    if radius <= 0:
        raise SceneError("[presymplectic] radius must be positive")
    entries = _entries(scene, "presymplectic", dim)
    trees = {ij: parse(text, dim) for ij, text in entries.items()}
    kernel = compile_kernel(
        [pair for (i, j), t in trees.items() for pair in (((i, j), t), ((j, i), Neg(t)))],
        (dim, dim),
    )
    stages = report["stages"]

    def form_at(xs):
        # L at every row of xs from one kernel call; a non-finite form raises
        # as the first failing row does alone
        try:
            forms = kernel(xs)
        except EvalError:
            for x in xs:
                kernel(x[None])
            raise
        return dirac_graph_many(forms, "two_form")

    exit_code = 0
    stage = "analyze"
    try:
        got = GotayModel(dim, form_at)
        stages["analyze"] = {
            "status": "pass",
            "base_dim": int(dim),
            "fiber_dim": int(got.fiber_dim),
            "model_dim": int(dim + got.fiber_dim),
        }
        for stage in _RUNS[command][1:]:
            if stage == "saturate":
                stages[stage] = {"status": "skipped", "reason": "presymplectic scene"}
            elif stage == "model":
                p0 = got.bivector_at(np.zeros(dim), np.zeros(got.fiber_dim))
                stages[stage] = {
                    "status": "pass",
                    "bivector_at_origin": [[float(v) for v in row] for row in p0],
                }
            else:
                tols = _GOTAY_TOLERANCES
                rep = got.verify(samples=20, radius=radius, seed=p["seed"] + 4)
                ok = (rep["coisotropy"] <= tols["coisotropy"]
                      and rep["reproduction_angle"] <= tols["reproduction"]
                      and rep["jacobi_fd"] <= tols["jacobi"])
                stages[stage] = {
                    "status": "pass" if ok else "fail",
                    "coisotropy": rep["coisotropy"],
                    "reproduction_angle": rep["reproduction_angle"],
                    "jacobi_fd": rep["jacobi_fd"],
                    "tolerances": tols,
                }
                if not ok:
                    exit_code = 2
    except RankDeficient as exc:
        stages[stage] = {"status": "fail", "reason": str(exc)}
        exit_code = 3
    report["exit_code"] = exit_code
    return exit_code


def run_scene(scene: Scene, command, scene_name="scene", steps_override=None,
              tol_override=None, want_csv=False):
    """Run the requested stages; returns (exit_code, report, csv_text)."""
    if command not in _RUNS:
        raise ValueError(f"unknown command {command!r}")
    p = scene_parameters(scene, steps_override, tol_override)
    report = {**_report_head(scene_name, command), "parameters": p, "stages": {}}
    if scene.has("presymplectic"):
        return _run_gotay(scene, command, report, p), report, None

    stages = report["stages"]
    try:
        bv = build_bivector(scene)
    except JacobiError as exc:
        stages["analyze"] = {
            "status": "fail",
            "reason": "jacobi certificate failed",
            "residual": exc.residual,
            "point": list(exc.point),
        }
        report["exit_code"] = 3
        return 3, report, None
    chart = build_chart(scene, bv.dim)

    stages["analyze"] = _stage_analyze(bv, chart, p["seed"])
    if stages["analyze"]["status"] == "fail":
        report["exit_code"] = 3
        return 3, report, None

    todo = [s for s in _RUNS[command] if s != "analyze"]
    exit_code = 0
    csv_text = None
    comp = sat = None
    if todo:
        try:
            comp = build_complement(scene, bv, chart)
        except RankDeficient as exc:
            stages[todo[0]] = {"status": "fail", "reason": str(exc)}
            report["exit_code"] = 3
            return 3, report, None

    for stage in todo:
        try:
            if stage == "saturate":
                stages[stage], sat, residuals = _stage_saturate(comp, p)
                if want_csv:
                    csv_text = _csv_text(sat, residuals)
            elif stage == "model":
                stages[stage] = _stage_model(comp, p)
            elif stage == "verify":
                if sat is None:  # verify alone: the grid the saturate stage builds
                    sat = _saturation_chart(comp, p)
                stages[stage] = _stage_verify(sat, p)
        except RankDeficient as exc:
            stages[stage] = {"status": "fail", "reason": str(exc)}
            report["exit_code"] = 3
            return 3, report, csv_text
        except (NotPoisson, ValueError) as exc:
            stages[stage] = {"status": "error", "reason": str(exc)}
            report["exit_code"] = 4
            return 4, report, csv_text
        if stages[stage]["status"] == "fail":
            exit_code = 2

    report["exit_code"] = exit_code
    return exit_code, report, csv_text


def _csv_text(sat, res):
    k = sat.chart.param_dim
    r = sat.comp.rank_perp
    n = sat.bv.dim
    header = ([f"u{i + 1}" for i in range(k)] + [f"xi{i + 1}" for i in range(r)]
              + [f"x{i + 1}" for i in range(n)] + ["residual"])
    lines = [",".join(header)]
    for i in range(len(sat.points)):
        vals = [*sat.us[i], *sat.zetas[i], *sat.points[i], res[i]]
        lines.append(",".join(f"{float(v):.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def report_text(report):
    return json.dumps(report, indent=2) + "\n"


# Entry point


def _build_parser():
    ap = argparse.ArgumentParser(prog="poissat",
                                 description="saturation and local-model pipeline")
    ap.add_argument("--version", action="version", version=f"poissat {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("analyze", "saturate", "model", "verify", "all"):
        c = sub.add_parser(name, help=f"run the {name} stage(s) of a scene")
        c.add_argument("scene", help="scene file path")
        c.add_argument("--steps", type=int, default=None, help="override flow steps")
        c.add_argument("--tol", type=float, default=None, help="override tol_normal")
        c.add_argument("--out", default=None, help="directory for report.json/points.csv")
        c.add_argument("--csv", action="store_true", help="emit the saturation point cloud")
    f = sub.add_parser("fixtures", help="list or emit shipped scenes")
    f.add_argument("action", choices=("list", "emit"))
    f.add_argument("name", nargs="?", default=None)
    f.add_argument("--out", default=None, help="directory to write the scene file into")
    return ap


def _report_head(scene_name, command):
    return {"schema": 1, "convention": CONVENTION, "scene": scene_name, "command": command,
            "generated_at": datetime.now(timezone.utc).isoformat()}


def _error_report(scene_name, command, message):
    return {**_report_head(scene_name, command), "error": message, "exit_code": 4}


def _emit(report, csv_text, out_dir, stream):
    stream.write(report_text(report))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report_text(report))
        if csv_text is not None:
            (out / "points.csv").write_text(csv_text)


def main(argv=None, stream=None):
    stream = sys.stdout if stream is None else stream
    args = _build_parser().parse_args(argv)

    if args.command == "fixtures":
        if args.action == "list":
            for name in FIXTURES:
                stream.write(name + "\n")
            return 0
        if args.name not in FIXTURES:
            stream.write(f"unknown fixture {args.name!r}; see `poissat fixtures list`\n")
            return 4
        text = FIXTURES[args.name]
        stream.write(text)
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{args.name}.scene").write_text(text)
        return 0

    scene_name = Path(args.scene).name
    try:
        text = Path(args.scene).read_text()
    except OSError as exc:
        report = _error_report(scene_name, args.command, f"cannot read scene: {exc}")
        _emit(report, None, args.out, stream)
        return 4
    try:
        scene = parse_scene(text)
        code, report, csv_text = run_scene(scene, args.command, scene_name=scene_name,
                                           steps_override=args.steps, tol_override=args.tol,
                                           want_csv=args.csv or args.out is not None)
    except (SceneError, ExprError, ValueError) as exc:
        report = _error_report(scene_name, args.command, str(exc))
        _emit(report, None, args.out, stream)
        return 4
    _emit(report, csv_text, args.out, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
