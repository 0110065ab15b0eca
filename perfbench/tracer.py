"""Per-layer tracing from outside the package.

Tracer.installed() wraps the public functions of each poissat module in
every poissat.* namespace that holds them (model imports flow by name,
field and cli import evaluate, four modules import rank_svd), checks that
no namespace still holds an unwrapped original, and restores the
originals on exit.  Spans are aggregated in memory per name (calls,
inclusive time, self time, work counters) rather than kept one by one:
a landing pass makes some 10^5 evaluate calls.  Self time is a span's
duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from poissat import sprayflow


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    counts: dict = field(default_factory=dict)  # exact work counters
    times: dict = field(default_factory=dict)  # seconds, split by a counter's key

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def add_time(self, key, seconds):
        self.times[key] = self.times.get(key, 0.0) + seconds


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._children = []  # per open span: time covered by its direct children

    def reset(self):
        self.stats = {}

    def wrap(self, name, fn, count=None):
        """fn with a span named name; count(stat, args, kwargs, result, duration)."""
        clock = self.clock
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = Stat()
                stat.calls += 1
                stat.total += duration
                stat.self += duration - inner
                if children:
                    children[-1] += duration
            if count is not None:
                count(stat, args, kwargs, result, duration)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def snapshot(self):
        """Work counts only: calls and counters per span, no times."""
        return {name: (s.calls, tuple(sorted(s.counts.items())))
                for name, s in sorted(self.stats.items())}

    @contextmanager
    def installed(self, targets):
        """Wrap every (name, module, attr, count) target for the duration."""
        undo = []
        originals = []
        try:
            for name, module, attr, count in targets:
                mod = sys.modules[module]
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[member]
                    setattr(owner, member, self.wrap(name, original, count))
                    undo.append((owner, member, original))
                else:
                    original = getattr(mod, member)
                    wrapper = self.wrap(name, original, count)
                    for holder in _package_modules():
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, key, wrapper)
                                undo.append((holder, key, original))
                originals.append(original)
            unwrapped = _holders(originals)
            if unwrapped:
                raise RuntimeError(f"unwrapped originals still bound: {unwrapped}")
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "poissat" or n.startswith("poissat."))]


def _holders(originals):
    """Names in poissat modules and their classes that still hold an original."""
    ids = {id(o) for o in originals}
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if id(value) in ids:
                found.append(f"{mod.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for member, attr in vars(value).items():
                    if id(getattr(attr, "__func__", attr)) in ids:
                        found.append(f"{mod.__name__}.{key}.{member}")
    return found


# Layer targets.

def _count_points(stat, args, kwargs, result, duration):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    shape = getattr(pts, "shape", None)
    stat.add("points", shape[0] if shape is not None and len(shape) > 1 else 1)


_FLOW_SIGNATURE = inspect.signature(sprayflow.flow)


def _count_flow(stat, args, kwargs, result, duration):
    bound = _FLOW_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    trajectories = len(result.exited)
    steps = bound.arguments["steps"]
    stat.add("trajectories", trajectories)
    stat.add("traj_steps", trajectories * steps)
    stat.add("exited", int(result.exited.sum()))
    batch = "b1" if trajectories == 1 else "batched"
    stat.add(f"{batch}.traj_steps", trajectories * steps)
    stat.add_time(batch, duration)


TARGETS = (
    ("expr.evaluate", "poissat.expr", "evaluate", _count_points),
    ("field.matrix", "poissat.field", "BivectorField.matrix", None),
    ("field.matrix_jac", "poissat.field", "BivectorField.matrix_jac", None),
    ("field.BivectorField.init", "poissat.field", "BivectorField.__init__", None),
    ("cli.parse_scene", "poissat.cli", "parse_scene", None),
    ("cli.build_bivector", "poissat.cli", "build_bivector", None),
    ("cli.run_scene", "poissat.cli", "run_scene", None),
    ("sprayflow.flow", "poissat.sprayflow", "flow", _count_flow),
    ("model.SaturationChart.project", "poissat.model", "SaturationChart.project", None),
    ("model.SaturationChart.map_and_jac", "poissat.model", "SaturationChart.map_and_jac", None),
    ("model.ComplementChoice.at", "poissat.model", "ComplementChoice.at", None),
    ("model.eta_canonical", "poissat.model", "eta_canonical", None),
    ("model.local_model_bivector", "poissat.model", "local_model_bivector", None),
    ("model.saturation_chart", "poissat.model", "saturation_chart", None),
    ("model.full_fiber_landing", "poissat.model", "full_fiber_landing", None),
    ("model.verify_normal_form", "poissat.model", "verify_normal_form", None),
    ("model.extraction_radius", "poissat.model", "extraction_radius", None),
    ("model.eta_closedness_residual", "poissat.model", "eta_closedness_residual", None),
    ("model.GotayModel.verify", "poissat.model", "GotayModel.verify", None),
    ("submanifold.point_data", "poissat.submanifold", "point_data", None),
    ("submanifold.pullback_dirac", "poissat.submanifold", "pullback_dirac", None),
    ("submanifold.regularity_scan", "poissat.submanifold", "regularity_scan", None),
    ("submanifold.classify", "poissat.submanifold", "classify", None),
    ("linear.rank_svd", "poissat.linear", "rank_svd", None),
    ("linear.dirac_to_bivector", "poissat.linear", "dirac_to_bivector", None),
)


# Per-layer metrics of one traced pass.  Times are shares of the traced
# pass's wall time (%): a layer a workload never reaches then reads 0 %
# rather than a constant 0 s.

def _calls(name):
    return lambda st, wall: st[name].calls if name in st else 0


def _counter(name, key):
    return lambda st, wall: st[name].counts.get(key, 0) if name in st else 0


def _self_pct(name):
    return lambda st, wall: 100.0 * st[name].self / wall if name in st else 0.0


def _pct(name):
    return lambda st, wall: 100.0 * st[name].total / wall if name in st else 0.0


def _ratio(num, den):
    return lambda st, wall: num(st, wall) / den(st, wall) if den(st, wall) else 0.0


def _rate(batch):
    """Trajectory steps per second of flow time, over flows of one batch class."""
    def rate(st, wall):
        stat = st.get("sprayflow.flow")
        secs = stat.times.get(batch, 0.0) if stat else 0.0
        return stat.counts[f"{batch}.traj_steps"] / secs if secs else 0.0
    return rate


def _us_per_call(name):
    return lambda st, wall: 1e6 * st[name].total / st[name].calls if name in st else 0.0


_SHARES = {"self_pct": _self_pct, "pct": _pct}


def _pair(name, kind):
    """(name.calls, count) and (name.<kind>, %) for kind self_pct or pct."""
    return [(f"{name}.calls", "count", _calls(name)), (f"{name}.{kind}", "%", _SHARES[kind](name))]


_FLOW = "sprayflow.flow"
LAYER_METRICS = (
    _pair("expr.evaluate", "self_pct")
    + [("expr.evaluate.points", "count", _counter("expr.evaluate", "points")),
       ("expr.evaluate.us_per_call", "us", _us_per_call("expr.evaluate"))]
    + _pair("field.matrix", "self_pct")
    + _pair("field.matrix_jac", "self_pct")
    + [("field.BivectorField.init_pct", "%", _pct("field.BivectorField.init")),
       ("cli.parse_scene.pct", "%", _pct("cli.parse_scene")),
       ("cli.build_bivector.pct", "%", _pct("cli.build_bivector"))]
    + _pair(_FLOW, "self_pct")
    + [(f"{_FLOW}.trajectories", "count", _counter(_FLOW, "trajectories")),
       (f"{_FLOW}.traj_steps", "count", _counter(_FLOW, "traj_steps")),
       (f"{_FLOW}.batch_mean", "count", _ratio(_counter(_FLOW, "trajectories"), _calls(_FLOW))),
       (f"{_FLOW}.exited_ratio", "ratio", _ratio(_counter(_FLOW, "exited"),
                                                 _counter(_FLOW, "trajectories"))),
       (f"{_FLOW}.b1.traj_steps_per_s", "1/s", _rate("b1")),
       (f"{_FLOW}.batched.traj_steps_per_s", "1/s", _rate("batched"))]
    + _pair("model.SaturationChart.project", "pct")
    + [("model.SaturationChart.map_and_jac.calls", "count",
        _calls("model.SaturationChart.map_and_jac")),
       ("model.project.iters_per_call", "count",
        _ratio(_calls("model.SaturationChart.map_and_jac"),
               _calls("model.SaturationChart.project")))]
    + _pair("model.ComplementChoice.at", "self_pct")
    + _pair("model.eta_canonical", "pct")
    + _pair("model.local_model_bivector", "pct")
    + [(f"{n}.pct", "%", _pct(n)) for n in (
        "model.saturation_chart", "model.full_fiber_landing", "model.verify_normal_form",
        "model.extraction_radius", "model.eta_closedness_residual", "model.GotayModel.verify")]
    + _pair("submanifold.point_data", "self_pct")
    + _pair("submanifold.pullback_dirac", "self_pct")
    + [("submanifold.regularity_scan.pct", "%", _pct("submanifold.regularity_scan")),
       ("submanifold.classify.pct", "%", _pct("submanifold.classify"))]
    + _pair("linear.rank_svd", "self_pct")
    + _pair("linear.dirac_to_bivector", "self_pct")
    + [("cli.run_scene.self_pct", "%", _self_pct("cli.run_scene"))]
)
OVERHEAD = ("trace.overhead_ratio", "ratio")


def layer_metrics(stats, wall):
    """Every per-layer metric of one traced pass that took wall seconds."""
    return {name: float(fn(stats, wall)) for name, _, fn in LAYER_METRICS}
