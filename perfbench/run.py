"""poissat benchmark: one workload per run, closed loop, one client.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 measures the end-to-end metrics untraced, each time normalised
to a reference host speed by the calibration kernel timed around it (see
calibration.py); --trace 1 times untraced and traced passes and reports
the per-layer metrics.  Every report is checked (see README.md); the last
line of stdout is the JSON result.  Exit code 2, without a result line,
when the program cannot be imported or the references are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
SETUP_REPS = 15
SETUP_TIMEOUT_S = 60
HIGH_BEYOND = 10  # pass_s_hi: highest percentile with this many samples above it
MIN_TRACED_PASSES = 2  # counts must repeat across at least two traced passes
END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_s_hi": "s", "pass_cpu_s": "s",
              "peak_rss_mb": "MB"}


def high_percentile(samples, beyond=HIGH_BEYOND):
    """(value, percentile, n): the highest sample with `beyond` samples above it.

    With no more than `beyond` samples the maximum is returned at 100 %.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    idx = n - beyond - 1
    return xs[idx], 100.0 * (idx + 1) / n, n


def calibrated(seconds, minimum, fn):
    """repeat(seconds, minimum, fn), timing the calibration kernel before
    the first call and after each.

    fn returns (wall_s, cpu_s).  Returns (raw, normalised): the lists of
    those pairs as measured, and normalised by the mean of the kernel
    timings on either side of each call (wall by kernel wall, CPU by
    kernel CPU).
    """
    import calibration  # numpy, so only after env.prepare()

    cal = [calibration.measure()]

    def timed():
        out = fn()
        cal.append(calibration.measure())
        return out

    raw = repeat(seconds, minimum, timed)
    normalised = [(calibration.normalise(wall, cal[i][0], cal[i + 1][0]),
                   calibration.normalise(cpu, cal[i][1], cal[i + 1][1]))
                  for i, (wall, cpu) in enumerate(raw)]
    return raw, normalised


def measure_setup(workload, seed):
    """Median normalised wall time of SETUP_REPS fresh processes doing the set-up."""
    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def setup():
        wall0, cpu0 = time.perf_counter(), children_cpu()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        return time.perf_counter() - wall0, children_cpu() - cpu0

    raw, normalised = calibrated(0, SETUP_REPS, setup)
    print(f"setup_s raw median {statistics.median(wall for wall, _ in raw)!r} s")
    return statistics.median(wall for wall, _ in normalised)


class Checker:
    """Checks every job outcome against the stored default-seed reference.

    A job fails when it raises, when its exit code or any stage status
    differs from the reference (a verdict failure), when at the default
    seed its report or CSV bytes differ from the reference (drift), or
    when its bytes differ from the same job's first outcome in this run at
    the same seed (non-determinism).
    """

    def __init__(self, refs, default_seed):
        self.refs = refs
        self.default_seed = default_seed
        self.first = {}
        self.attempted = self.failed = self.verdict_failed = 0
        self.drift_checked = self.drifted = self.nondeterministic = 0

    def check(self, job, seed, out):
        self.attempted += 1
        if isinstance(out, Exception):
            print(f"job {job.name} seed {seed} raised:\n"
                  + "".join(traceback.format_exception(out)), file=sys.stderr)
            self.verdict_failed += 1
            self.failed += 1
            return
        ref = self.refs[job]
        bad = False
        if out.exit_code != ref.exit_code or out.statuses != ref.statuses:
            print(f"job {job.name} seed {seed}: verdict {out.exit_code} {out.statuses}, "
                  f"reference {ref.exit_code} {ref.statuses}", file=sys.stderr)
            self.verdict_failed += 1
            bad = True
        if seed == self.default_seed:
            self.drift_checked += 1
            if (out.report, out.csv) != (ref.report, ref.csv):
                print(f"job {job.name}: report or CSV differs from the reference",
                      file=sys.stderr)
                self.drifted += 1
                bad = True
        first = self.first.setdefault((job, seed), out)
        if (out.report, out.csv) != (first.report, first.csv):
            print(f"job {job.name} seed {seed}: bytes differ between passes", file=sys.stderr)
            self.nondeterministic += 1
            bad = True
        self.failed += bad

    def summary(self):
        drift = self.drifted / self.drift_checked if self.drift_checked else 0.0
        return (f"fail_ratio {self.verdict_failed / self.attempted:.4g} "
                f"({self.verdict_failed}/{self.attempted} jobs); "
                f"drift_ratio {drift:.4g} ({self.drifted}/{self.drift_checked}); "
                f"non-deterministic {self.nondeterministic}")


def run_pass(jobs, seed, checker, run_job):
    """One closed-loop pass over the jobs; returns (wall_s, cpu_s)."""
    outs = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        try:
            outs.append(run_job(job, seed))
        except Exception as exc:  # a failing job is counted, the run goes on
            outs.append(exc)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for job, out in zip(jobs, outs):
        checker.check(job, seed, out)
    return wall, cpu


def repeat(seconds, minimum, fn):
    """Call fn until `seconds` have passed and it ran at least `minimum` times."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(fn())
    return results


def end_to_end(args, jobs, checker, run_job):
    setup_s = measure_setup(args.workload, args.seed)
    run_pass(jobs, checker.default_seed, checker, run_job)  # warm-up and byte check
    raw, passes = calibrated(args.seconds, 1, lambda: run_pass(jobs, args.seed, checker, run_job))
    walls = [wall for wall, _ in passes]
    hi, pct, n = high_percentile(walls)
    print(f"passes {n}; pass_s_hi is the p{pct:.1f} of {n} passes")
    print(f"pass_s raw median {statistics.median(wall for wall, _ in raw)!r} s; "
          f"pass_cpu_s raw median {statistics.median(cpu for _, cpu in raw)!r} s")
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(walls),
        "pass_s_hi": hi,
        "pass_cpu_s": statistics.median(cpu for _, cpu in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}, True


def per_layer(args, jobs, checker, run_job):
    import tracer

    run_pass(jobs, checker.default_seed, checker, run_job)  # warm-up and byte check
    untraced = repeat(args.seconds / 2, 1, lambda: run_pass(jobs, args.seed, checker, run_job))
    tr = tracer.Tracer()

    def traced_pass():
        tr.reset()
        wall, _ = run_pass(jobs, args.seed, checker, run_job)
        return wall, tr.snapshot(), tracer.layer_metrics(tr.stats, wall)

    with tr.installed(tracer.TARGETS):
        traced = repeat(args.seconds / 2, MIN_TRACED_PASSES, traced_pass)
    deterministic = all(snap == traced[0][1] for _, snap, _ in traced)
    print(f"traced passes {len(traced)}; counts repeat exactly: {deterministic}")
    metrics = {name: metric(statistics.median(layers[name] for _, _, layers in traced), unit)
               for name, unit, _ in tracer.LAYER_METRICS}
    overhead = (statistics.median(wall for wall, _, _ in traced)
                / statistics.median(wall for wall, _ in untraced))
    metrics[tracer.OVERHEAD[0]] = metric(overhead, tracer.OVERHEAD[1])
    for line in roles(args.workload, metrics):
        print(line)
    return metrics, deterministic


def roles(workload, metrics):
    """The profile each workload was chosen for (informational only)."""
    v = {k: m["value"] for k, m in metrics.items()}
    flow = v["sprayflow.flow.self_pct"]
    if workload == "landing":
        own = sum(v[f"{n}.self_pct"] for n in ("expr.evaluate", "field.matrix", "field.matrix_jac"))
        yield f"role landing: evaluate+field self {own:.1f} % > flow self {flow:.1f} %: {own > flow}"
    elif workload == "batched-grid":
        top = max((k for k in v if k.endswith(".self_pct")), key=v.get)
        yield (f"role batched-grid: largest self time is {top} ({v[top]:.1f} %): "
               f"{top == 'sprayflow.flow.self_pct'}")
    elif workload == "regularity-gate":
        calls = v["sprayflow.flow.calls"]
        yield f"role regularity-gate: flow calls {calls:.0f}: {calls == 0}"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        env.prepare()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}")
        refs = workloads.load_references(args.workload)
    except (env.MissingProgram, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]
    checker = Checker(refs, workloads.DEFAULT_SEED)
    record = env.describe(args.workload, args.seed, {j.name: j.steps for j in jobs})
    print("env " + json.dumps(record, sort_keys=True))
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, deterministic = measure(args, jobs, checker, workloads.run_job)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(checker.summary())
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": deterministic and checker.failed == 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
