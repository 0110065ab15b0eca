"""Host-speed calibration: a fixed kernel timed between measured runs.

On a small shared host the speed of a core drifts by some 20 % for
minutes at a time, and CPU time drifts with wall time, so the raw pass
times of identical code differ by more than any useful bound between
runs.  The kernel below mixes interpreted Python (arithmetic, calls, dict
stores) with small numpy calls (a batched einsum and a 4x4 SVD), the two
kinds of work a poissat pass is made of.  It calls no poissat code, so a
change to the program cannot move it.  A time measured between two
kernel timings, divided by their mean and multiplied by REFERENCE_S, is
that time on a host where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.02  # the kernel's wall (and CPU) time on the reference host
REPEATS = 3  # kernel runs per timing; their median is taken

_PY_ITERS = 50000
_NP_ITERS = 240
_RNG = np.random.default_rng(0)
_BATCH = _RNG.standard_normal((100, 4, 4))
_MATRIX = _RNG.standard_normal((4, 4))


def _step(x, acc):
    return acc + x * x - acc * 1e-9


def kernel():
    """A fixed mix of interpreted and small-array work; returns a checksum."""
    table = {}
    acc = 0.0
    for i in range(_PY_ITERS):
        acc = _step(i * 0.5, acc)
        table[i & 255] = acc
    for _ in range(_NP_ITERS):
        out = np.einsum("nij,jk->nik", _BATCH, _MATRIX)
        acc += np.linalg.svd(_MATRIX, compute_uv=False)[0] + out[0, 0, 0]
    return acc


def measure():
    """(wall_s, cpu_s): the medians of REPEATS timings of the kernel."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return statistics.median(walls), statistics.median(cpus)


def normalise(seconds, before, after):
    """seconds on the reference host, given kernel timings on either side."""
    return seconds * REFERENCE_S / ((before + after) / 2)
