"""Host cost of single simulator operations, of one baton handoff and of
the Lloyd kernels.

    python3 tools/opcost.py [SRC]

Runs against the kmft package under SRC (default: the `src` directory next
to this script), pinned to one CPU, and prints microseconds per operation,
the best and the median of ROUNDS rounds of N calls each:
  * a `send` + `recv` pair: one rank sends to itself and receives it back;
  * `charge(1)`;
  * a `failure_point` that does not fire;
  * an empty `with ctx.phase(...)` scope;
  * a baton handoff: two ranks hand the scheduler's baton back and forth
    with a bare switch, and the run's wall time is split over the handoffs.
Then, per `assign_labels` and per `center_sums` call, the same statistics
at each benchmark workload's per-rank shape (5,000 x 4 with k=8, 5,000 x 8
with k=16, 250 x 4 with k=16) and at its oracle shape (20,000 x 4 with k=8,
20,000 x 8 with k=16, 4,000 x 4 with k=16).  Last, per bounded samples pass
(`assign_bounded`, where the checkout has it), the mean over a real center
trajectory: the 60 centers a failure-free samples run of 20,000 x 4 blobs
with k=8 on 4 positions reads, each pass on position 0's 5,000 x 4 block,
the first with no bound.
Each loop's own Python overhead is included.  Run it on two checkouts back
to back to compare them; host speed drifts, so numbers from different
sessions do not compare.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

N = 20_000
ROUNDS = 7
HANDOFFS = 5_000       # per rank and round
KERNEL_CELLS = 2_000_000   # samples x centers per kernel round
KERNEL_SHAPES = [      # (n, d, k): per-rank shapes, then the oracle's
    (5_000, 4, 8), (5_000, 8, 16), (250, 4, 16),
    (20_000, 4, 8), (20_000, 8, 16), (4_000, 4, 16),
]


def _pin() -> int | None:
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _in_one_rank(kmft, body) -> float:
    """Seconds `body(ctx)` takes inside a one-rank world."""
    world = kmft.spawn_world(1, plan=kmft.FailurePlan(
        [kmft.FailureEvent(0, 10**9, kmft.FailPhase.DURING_COMPUTE)]))
    res = world.run({0: lambda ctx: _timed(body, ctx)})
    return res[0].value


def _timed(body, ctx) -> float:
    t0 = time.perf_counter()
    body(ctx)
    return time.perf_counter() - t0


def _send_recv(ctx) -> None:
    send, recv = ctx.send, ctx.recv
    for _ in range(N):
        send(0, b"x")
        recv(0)


def _charge(ctx) -> None:
    charge = ctx.charge
    for _ in range(N):
        charge(1)


def _failure_point(kmft):
    phase = kmft.FailPhase.DURING_COMPUTE

    def body(ctx) -> None:
        point = ctx.failure_point
        for _ in range(N):
            point(1, phase)
    return body


def _phase(kmft):
    comm = kmft.VtPhase.COMM

    def body(ctx) -> None:
        phase = ctx.phase
        for _ in range(N):
            with phase(comm):
                pass
    return body


def _handoff(kmft) -> float:
    """Seconds per handoff between two ranks that only switch."""
    world = kmft.spawn_world(2)

    def prog(ctx) -> None:
        switch, rank = ctx._world._sched.switch, ctx.rank
        for _ in range(HANDOFFS):
            switch(rank)

    t0 = time.perf_counter()
    world.run({0: prog, 1: prog})
    return (time.perf_counter() - t0) / (2 * HANDOFFS)


def _kernel_cases(kmeans, n: int, d: int, k: int) -> dict:
    """Seconds per `assign_labels` and per `center_sums` call at one shape."""
    rng = np.random.default_rng(n + d + k)
    values = rng.normal(scale=4.0, size=(n, d))
    centers = rng.normal(scale=4.0, size=(k, d))
    labels = kmeans.assign_labels(values, centers)
    # checkouts whose `center_sums` still gathered its rows by index take them
    rows = ([np.arange(n)] if "rows" in inspect.signature(kmeans.center_sums).parameters
            else [])
    calls = max(3, KERNEL_CELLS // (n * k))

    def timed(body) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            body()
        return (time.perf_counter() - t0) / calls

    return {
        f"assign_labels {n}x{d} k={k}": lambda: timed(
            lambda: kmeans.assign_labels(values, centers)),
        f"center_sums {n}x{d} k={k}": lambda: timed(
            lambda: kmeans.center_sums(values, *rows, labels, range(k))),
    }


def _bounded_pass_case(package) -> dict:
    """Seconds per bounded samples pass over a lockstep center trajectory."""
    kmeans = package.kmeans
    if not hasattr(kmeans, "assign_bounded"):
        return {}
    n, d, k, procs, iters = 20_000, 4, 8, 4, 60
    data, _ = package.make_blobs(n=n, d=d, blobs=5, spread=3.0, seed=1)
    run = package.run_parallel(data, package.KmeansConfig(k=k), procs,
                               package.Method.SAMPLES, record_history=True,
                               force_iters=iters)
    read = [kmeans.init_centroids(data, k).centers,
            *(rec.centers for rec in run.history[:-1])]
    block = data.values[:n // procs]

    def trajectory() -> float:
        labels, bound = np.zeros(len(block), dtype=np.int64), None
        t0 = time.perf_counter()
        for centers in read:
            labels, _, bound = kmeans.assign_bounded(block, centers, labels, bound)
        return (time.perf_counter() - t0) / len(read)

    return {f"bounded pass {len(block)}x{d} k={k}": trajectory}


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    cpu = _pin()
    import kmft as package
    from kmft import kmeans
    from kmft import simcluster as kmft

    cases = {
        "send+recv pair": lambda: _in_one_rank(kmft, _send_recv) / N,
        "charge": lambda: _in_one_rank(kmft, _charge) / N,
        "failure_point (no fire)": lambda: _in_one_rank(kmft, _failure_point(kmft)) / N,
        "phase scope": lambda: _in_one_rank(kmft, _phase(kmft)) / N,
        "baton handoff": lambda: _handoff(kmft),
    }
    for shape in KERNEL_SHAPES:
        cases.update(_kernel_cases(kmeans, *shape))
    cases.update(_bounded_pass_case(package))
    print(f"kmft from {src}, pinned to CPU {cpu}; us per op, best / median of {ROUNDS}")
    for name, case in cases.items():
        runs = [case() * 1e6 for _ in range(ROUNDS)]
        print(f"{name:<30} {min(runs):9.2f} {statistics.median(runs):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
