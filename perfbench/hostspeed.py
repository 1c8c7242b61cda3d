"""The host's current speed, read off a fixed reference kernel.

On a small virtual machine that shares its host with other tenants (2 Xeon
vCPUs), the speed of the CPU drifts by a third or more over seconds to
minutes, while the process keeps its CPU: process time tracks wall time
throughout.  No run is long enough to
average such a drift away, so each timing is paired with the reference kernel
run just before and just after it, and scaled to a host on which the kernel
takes ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(kernel before, kernel after)

The drift does not slow all code alike: interpreter-bound code swung further
than numpy code, and the kmft calls fell in between.  So the kernel has two
parts of about equal length, a pure-Python loop (dict updates, integer
arithmetic) and a numpy nearest-center pass like the k-means kernels', and
its time is their sum.  Neither part alone followed every call: over minutes
of calls, cut into 30 s windows, the Python loop alone left the window
medians of numpy-heavy `bulk-centers` calls ranging by up to 40%, and the
numpy part alone left simulator-heavy calls ranging by up to 20%.  The sum
kept every call of every workload within 25%, most within 15%.  The kernel
lives here, apart from kmft, so no change to kmft moves it; a change that
makes kmft slower makes the scaled time slower by the same share.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.015     # the kernel's time on the reference host
PYTHON_N = 50_000       # loop length: 5 to 10 ms on a 2.1 GHz Xeon vCPU, as the host drifts
REPEATS = 3             # each part's fastest of three, so a preemption is not read as drift

_POINTS = np.random.default_rng(0).random((10_000, 8))
_CENTERS = _POINTS[:16].copy()


def python_work(n: int = PYTHON_N) -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i % 7
        total += key
    return total + len(table)


def numpy_work() -> int:
    """One nearest-center pass over 10,000 points, a column at a time, as
    the k-means kernels do it: 5 to 9 ms on the same vCPU."""
    dist = np.zeros((len(_POINTS), len(_CENTERS)))
    for j in range(_POINTS.shape[1]):
        diff = _POINTS[:, j, np.newaxis] - _CENTERS[np.newaxis, :, j]
        dist += diff * diff
    return int(dist.argmin(axis=1)[-1])


def _fastest(work) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_seconds() -> float:
    """The reference kernel's time now."""
    return _fastest(python_work) + _fastest(numpy_work)


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel times `before` and `after`, scaled
    to the reference host."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
