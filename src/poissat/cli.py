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
4 file/parse/numeric failure.  Each scene kind's stages are the methods
of one class (_PoissonStages, _GotayStages); run_scene alone maps their
outcomes to statuses and exit codes, and main alone writes the top-level
error report for what run_scene raises.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import CONVENTION, __version__
from .expr import EvalError, Neg, compile_kernel, parse
from .field import BivectorField, JacobiError
from .fixtures import FIXTURES
from .linear import RankDeficient, dirac_graph_many, rank_svd
from .model import (
    COMPLEMENT_MODES,
    RADIUS_FLOOR,
    ComplementChoice,
    GotayModel,
    eta_checks,
    eta_zero_section,
    full_fiber_landing,
    marle_invariants,
    saturation_chart,
    saturation_residuals,
    sigma_tau,
    verify_normal_form,
    worst_of,
)
from .submanifold import Chart, classify

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
        if not -np.inf < lo < hi < np.inf:
            raise SceneError(f"domain interval [{lo}, {hi}] must be finite and non-empty", line)
        vals.append([lo, hi])
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise SceneError(f"[{section}] needs 1 or {dim} domain rows, got {len(vals)}",
                         rows[-1][1])
    return np.array(vals)


def _poisson_dim(scene):
    dim = scene.scalar("poisson", "dim", convert=int)
    if dim < 1:
        raise SceneError("dim must be positive")
    return dim


def build_bivector(scene: Scene) -> BivectorField:
    dim = _poisson_dim(scene)
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
    vals = kernel(chart.grid(2))  # a column non-finite at a corner of the box raises here
    if kernel.constant:
        return vals[0].T  # (n, cols) constant frame
    if key != "w":
        raise SceneError(f"'{key}' must be a constant frame", rows[0][1])

    def at(u):
        return kernel(np.atleast_1d(np.asarray(u, dtype=float))[None, :])[0].T

    return at


def _complement_frames(scene, chart):
    """The [complement] g, h and w frames, each None when the scene has none."""
    frames = {key: _frame_columns(scene, key, chart) for key in "ghw"}
    if scene.scalar("complement", "mode", default="default") == "custom" and frames["w"] is None:
        raise SceneError("custom mode needs a w frame")
    return frames


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
    if p["mode"] not in COMPLEMENT_MODES:
        raise SceneError(f"unknown complement mode {p['mode']!r}")
    for key in "ghw":
        rows = scene.rows("complement", key)
        if rows and key not in COMPLEMENT_MODES[p["mode"]]:
            raise SceneError(f"complement mode {p['mode']!r} reads no '{key}' column", rows[0][1])
    if steps_override is not None:
        p["steps"] = int(steps_override)
    if tol_override is not None:
        p["tolerances"]["normal"] = float(tol_override)
    for name, tol in p["tolerances"].items():
        if not 0 < tol < np.inf:
            raise SceneError(f"tolerance '{name}' must be finite and positive")
    if p["steps"] < 16 or p["steps"] % 2:
        raise SceneError("steps must be even and at least 16")
    if p["seed"] < 0:
        raise SceneError("seed must be non-negative")
    if p["u_counts"] < 1 or p["per_u"] < 0:
        raise SceneError("flow/model parameters out of range")
    if not RADIUS_FLOOR <= p["xi_radius"] < np.inf:
        raise SceneError(f"xi_radius must be finite and at least the radius floor {RADIUS_FLOOR}")
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


class _PoissonStages:
    """The stages of a [poisson] scene, one method each.  The [complement]
    frame columns are checked on construction, before any stage runs; the
    bivector, the chart, the frame columns, the complement and the
    saturation chart are each built once, by the first step that needs them,
    and saturate leaves the point cloud in csv when it is wanted.  The
    model functions return what they measured; these methods alone compare
    it with the scene's tolerances and with model_tolerances, and a check
    that measured no sample fails."""

    csv = None
    # the model stage's fixed bounds: each residual passes at or below its
    # bound, the extraction radius above its own
    model_tolerances = {"eta_zero_section": 1e-6, "eta_closedness": 1e-6,
                        "cross_residual": 1e-8, "conditions": 1e-8, "extraction_radius": 0.0}

    def __init__(self, scene, p, want_csv):
        self.scene, self.p, self.want_csv = scene, p, want_csv
        if p["mode"] == "custom" or any(scene.rows("complement", key) for key in "ghw"):
            # frame columns are scene values: reading them here makes a bad or
            # missing one a scene error before any stage (their chart is then
            # built before the bivector, and analyze reuses it)
            self.frames

    @cached_property
    def bv(self):
        return build_bivector(self.scene)

    @cached_property
    def chart(self):
        return build_chart(self.scene, _poisson_dim(self.scene))

    @cached_property
    def frames(self):
        return _complement_frames(self.scene, self.chart)

    def analyze(self):
        self.classification = cls = classify(self.bv, self.chart, counts=9, seed=self.p["seed"])
        scan = cls.scan
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

    @cached_property
    def comp(self):
        # the coisotropic and pre_poisson splittings need the chart property
        # of their name, which analyze has sampled
        mode = self.p["mode"]
        if mode in ("coisotropic", "pre_poisson") and not self.classification.flags[mode]:
            raise RankDeficient(f"complement mode {mode!r} needs a {mode} chart; "
                                f"analyze saw rank_sets {self.classification.ranks}")
        return ComplementChoice(self.bv, self.chart, mode=mode, **self.frames)

    # saturate sets it before it builds the chart, so the landing probes ride
    # the chart's grid flow; verify alone builds the chart without them
    _landing = False

    @cached_property
    def sat(self):
        p = self.p
        return saturation_chart(self.comp, steps=p["steps"], u_counts=p["u_counts"],
                                radius=p["xi_radius"], per_u=p["per_u"], seed=p["seed"],
                                landing=self._landing)

    def saturate(self):
        self._landing = True
        sat, tols = self.sat, self.p["tolerances"]
        res = saturation_residuals(sat)
        worst = float(res.max(initial=0.0))
        land = full_fiber_landing(sat)
        if self.want_csv:
            self.csv = _csv_text(sat, res)
        ok = (worst <= tols["saturation"] and land["checked"] > 0
              and land["max_distance"] <= tols["landing"])
        return {
            "status": "pass" if ok else "fail",
            "model_dim": int(sat.model_dim),
            "samples": int(len(sat.points)),
            "radius_used": float(sat.radius_used),
            "max_residual": worst,
            "tol_saturation": tols["saturation"],
            "landing_distance": land["max_distance"],
            "tol_landing": tols["landing"],
        }

    def model(self):
        comp, p = self.comp, self.p
        u0 = comp.chart.center()
        sigma, tau = sigma_tau(comp, u0)
        fr = comp.at(u0)
        grid = comp.chart.grid(3)
        zeta = np.full(comp.rank_perp, p["xi_radius"] / 4)
        etas, closed, radius = eta_checks(comp, u0, grid, zeta, steps=p["steps"],
                                          start=p["xi_radius"], seed=p["seed"])
        zero_resid = worst_of(float(np.abs(eta - eta_zero_section(comp, u)).max())
                              for u, eta in zip(grid, etas))
        conditions = {k: bool(v) if isinstance(v, (bool, np.bool_)) else float(v)
                      for k, v in fr.conditions.items()}
        invariants = {}
        if comp.mode == "pre_poisson":
            rows = marle_invariants(comp, grid)
            invariants = {"quotient_rank": int(rank_svd(rows[0]["quotient"])[0]),
                          "cross_residual": worst_of(r["cross_residual"] for r in rows)}
        tols = self.model_tolerances
        ok = (zero_resid <= tols["eta_zero_section"] and closed <= tols["eta_closedness"]
              and radius > tols["extraction_radius"]
              and invariants.get("cross_residual", 0.0) <= tols["cross_residual"]
              and all(v <= tols["conditions"] for v in conditions.values()
                      if not isinstance(v, bool))
              and all(v for v in conditions.values() if isinstance(v, bool)))
        return {
            "status": "pass" if ok else "fail",
            "rank_perp": int(comp.rank_perp),
            "cap_dim": int(comp.cap_dim),
            "sigma_rank": int(rank_svd(sigma)[0]),
            "tau_max": float(np.abs(tau).max(initial=0.0)),
            "eta_zero_section_residual": zero_resid,
            "eta_closedness_residual": float(closed),
            "extraction_radius": float(radius),
            "conditions": conditions,
            **invariants,
        }

    def verify(self):
        tol = self.p["tolerances"]["normal"]
        rep = verify_normal_form(self.sat)
        return {
            "status": "pass" if rep["max_mismatch"] <= tol else "fail",
            "max_mismatch": rep["max_mismatch"],
            "tol_normal": tol,
            "radius_used": rep["radius_used"],
            "samples": int(rep["samples"]),
            "steps": int(rep["steps"]),
        }


class _GotayStages:
    """The stages of a [presymplectic] scene, one method each; the scene
    values are checked on construction, before any stage runs."""

    csv = None
    tolerances = {"coisotropy": 1e-10, "reproduction": 1e-8, "jacobi": 1e-10}

    def __init__(self, scene, p, want_csv):
        self.dim = dim = scene.scalar("presymplectic", "dim", convert=int)
        if dim < 1:
            raise SceneError("dim must be positive")
        self.radius = scene.scalar("presymplectic", "radius", default=0.1, convert=float)
        if not 0 < self.radius < np.inf:
            raise SceneError("[presymplectic] radius must be finite and positive")
        self.seed = p["seed"]
        trees = {ij: parse(text, dim) for ij, text in _entries(scene, "presymplectic", dim).items()}
        self.kernel = compile_kernel(
            [pair for (i, j), t in trees.items() for pair in (((i, j), t), ((j, i), Neg(t)))],
            (dim, dim),
        )

    def _form_at(self, xs):
        # L at every row of xs from one kernel call; a non-finite form raises
        # as the first failing row does alone
        try:
            forms = self.kernel(xs)
        except EvalError:
            for x in xs:
                self.kernel(x[None])
            raise
        return dirac_graph_many(forms, "two_form")

    def analyze(self):
        self.gotay = GotayModel(self.dim, self._form_at)
        return {
            "status": "pass",
            "base_dim": int(self.dim),
            "fiber_dim": int(self.gotay.fiber_dim),
            "model_dim": int(self.dim + self.gotay.fiber_dim),
        }

    def saturate(self):
        return {"status": "skipped", "reason": "presymplectic scene"}

    def model(self):
        p0 = self.gotay.bivector_at(np.zeros(self.dim), np.zeros(self.gotay.fiber_dim))
        return {"status": "pass", "bivector_at_origin": [[float(v) for v in row] for row in p0]}

    def verify(self):
        tols = self.tolerances
        rep = self.gotay.verify(samples=20, radius=self.radius, seed=self.seed + 4)
        ok = (rep["coisotropy"] <= tols["coisotropy"]
              and rep["reproduction_angle"] <= tols["reproduction"]
              and rep["jacobi_fd"] <= tols["jacobi"])
        return {
            "status": "pass" if ok else "fail",
            "coisotropy": rep["coisotropy"],
            "reproduction_angle": rep["reproduction_angle"],
            "jacobi_fd": rep["jacobi_fd"],
            "tolerances": tols,
        }


def run_scene(scene: Scene, command, scene_name="scene", steps_override=None,
              tol_override=None, want_csv=False):
    """Run the requested stages; returns (exit_code, report, csv_text).

    Each scene kind defines its stages as the methods of one class
    (_PoissonStages, _GotayStages); this loop is the one place that maps a
    stage's outcome to its status and the exit code:
      - a SceneError anywhere, or any other ValueError in analyze, is
        raised, and main reports it at top level (exit 4);
      - JacobiError or RankDeficient: the stage fails, exit 3;
      - any other ValueError after analyze (NotPoisson, LeftDomain and
        EvalError among them): the stage's status is error, exit 4;
      - a stage that reports fail: exit 2, or 3 at analyze.
    Exit 3 or 4 ends the run; the stages before it stay in the report.
    """
    if command not in _RUNS:
        raise ValueError(f"unknown command {command!r}")
    p = scene_parameters(scene, steps_override, tol_override)
    report = {**_report_head(scene_name, command), "parameters": p, "stages": {}}
    stages = report["stages"]
    kind = (_GotayStages if scene.has("presymplectic") else _PoissonStages)(scene, p, want_csv)
    exit_code = 0
    for stage in _RUNS[command]:
        try:
            stages[stage] = getattr(kind, stage)()
        except (JacobiError, RankDeficient) as exc:
            stages[stage] = {"status": "fail", "reason": str(exc)}
            if isinstance(exc, JacobiError):
                stages[stage].update(reason="jacobi certificate failed",
                                     residual=exc.residual, point=list(exc.point))
            exit_code = 3
        except ValueError as exc:
            if stage == "analyze" or isinstance(exc, SceneError):
                raise
            stages[stage] = {"status": "error", "reason": str(exc)}
            exit_code = 4
        else:
            if stages[stage]["status"] == "fail":
                exit_code = 3 if stage == "analyze" else 2
        if exit_code >= 3:
            break
    report["exit_code"] = exit_code
    return exit_code, report, kind.csv


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


def _json_value(value):
    """value with every non-finite float written as the string "NaN",
    "Infinity" or "-Infinity": neither bare token is JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def report_text(report):
    return json.dumps(_json_value(report), indent=2, allow_nan=False) + "\n"


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
        try:
            text = Path(args.scene).read_text()
        except OSError as exc:
            raise SceneError(f"cannot read scene: {exc}") from None
        code, report, csv_text = run_scene(parse_scene(text), args.command,
                                           scene_name=scene_name, steps_override=args.steps,
                                           tol_override=args.tol,
                                           want_csv=args.csv or args.out is not None)
    except ValueError as exc:  # the top-level error report; see run_scene
        code, csv_text = 4, None
        report = {**_report_head(scene_name, args.command), "error": str(exc), "exit_code": 4}
    _emit(report, csv_text, args.out, stream)
    return code

if __name__ == "__main__":
    sys.exit(main())
