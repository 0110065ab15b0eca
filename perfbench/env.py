"""Process preparation and the run-environment record.

Every entry point of the benchmark calls prepare() before numpy or
poissat is imported: it pins the BLAS pools to one thread, so that wall
time on a small shared machine is not spread by thread oversubscription,
and puts the checkout's own src/ first on sys.path.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no importable poissat package under src/."""


def prepare():
    """Pin BLAS threads, put src/ on sys.path, and import poissat from it."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "poissat" / "__init__.py").is_file():
        raise MissingProgram(f"no poissat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import poissat

    if Path(poissat.__file__).resolve().parent != SRC / "poissat":
        raise MissingProgram(f"poissat imported from {poissat.__file__}, not {SRC}")


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe(workload, seed, steps):
    """Environment record printed with every result."""
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "steps": steps,
    }
