"""Workloads: fixed lists of run_scene jobs over the shipped fixtures.

A job is parse_scene on the scene text plus run_scene plus report
serialisation, i.e. what `poissat <command> <scene>` does short of file
I/O.  The benchmark's seed reaches the program only as scene text: it is
written into each scene's [model] seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from poissat import cli
from poissat.fixtures import FIXTURES

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Job:
    command: str
    fixture: str
    steps: int | None  # --steps override; None keeps the scene's own
    csv: bool  # request the saturation point cloud
    expect_exit: int

    @property
    def name(self):
        return f"{self.command}-{self.fixture}"


_GATED = ("so3-plane", "logsympl-axis", "cubic-graph")
_POISSON = ("so3-plane", "logsympl-axis", "cubic-graph", "figure-eight", "coiso-line",
            "transversal-ray", "sympl-plane", "zero-structure")

# Why each workload exists is stated in README.md; the steps are fixed so
# a pass stays short enough for a median over many passes.
WORKLOADS = {
    "landing": (Job("all", "transversal-ray", 32, True, 0),),
    "batched-grid": (Job("verify", "figure-eight", 128, False, 0),
                     Job("verify", "sympl-plane", 128, False, 0)),
    "regularity-gate": tuple(Job("analyze", f, None, False, 3 if f in _GATED else 0)
                             for f in _POISSON)
                       + (Job("all", "gotay-presymplectic", None, False, 0),),
}


def scene_text(fixture, seed):
    """The fixture's scene text with the benchmark seed as [model] seed."""
    return FIXTURES[fixture] + f"\n[model]\nseed = {seed}\n"


@dataclass
class Outcome:
    exit_code: int
    statuses: dict
    report: str  # report text without generated_at
    csv: str | None


def _statuses(report):
    return {k: v.get("status") for k, v in report.get("stages", {}).items()}


def run_job(job, seed):
    """One job as the CLI runs it, looked up through cli so tracing sees it.

    The report is serialised without generated_at, the one field that
    differs between identical runs.
    """
    scene = cli.parse_scene(scene_text(job.fixture, seed))
    code, report, csv = cli.run_scene(scene, job.command, scene_name=f"{job.fixture}.scene",
                                      steps_override=job.steps, want_csv=job.csv)
    report.pop("generated_at", None)
    return Outcome(code, _statuses(report), cli.report_text(report), csv)


def reference_path(workload, job, suffix):
    return REFERENCE / workload / f"{job.name}{suffix}"


def load_reference(workload, job):
    text = reference_path(workload, job, ".json").read_text()
    csv_path = reference_path(workload, job, ".csv")
    csv = csv_path.read_text() if csv_path.exists() else None
    report = json.loads(text)
    return Outcome(report["exit_code"], _statuses(report), text, csv)


def load_references(workload):
    """Job -> reference outcome; each must carry the job's expected exit code."""
    refs = {job: load_reference(workload, job) for job in WORKLOADS[workload]}
    for job, ref in refs.items():
        if ref.exit_code != job.expect_exit:
            raise ValueError(f"reference {job.name} has exit {ref.exit_code}, "
                             f"expected {job.expect_exit}")
    return refs


def write_reference(workload, job, out):
    path = reference_path(workload, job, ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(out.report)
    if out.csv is not None:
        reference_path(workload, job, ".csv").write_text(out.csv)
