"""Host cost of single simulator operations, of one baton handoff and of
the Lloyd kernels.

    python3 tools/opcost.py [SRC]

Runs against the kmft package under SRC (default: the `src` directory next
to this script), pinned to one CPU, and prints microseconds per operation,
the best and the median of ROUNDS rounds of N calls each:
  * a `send` + `recv_any` pair: one rank sends to itself and receives it
    back;
  * `charge(1)`;
  * a `failure_point` that does not fire;
  * an empty `with ctx.phase(...)` scope;
  * a baton handoff: two ranks hand the scheduler's baton back and forth
    with a bare switch, and the run's wall time is split over the handoffs;
  * a 4-rank `reduce_all` of an (8, 5) float64 array, churn-samples'
    partials, the run's wall time split over the reduces;
  * a 16-root `broadcast` of (1, 4) float64 blocks on 16 ranks, as
    wide-centers' means step makes it, the run's wall time split over the
    broadcasts;
  * an all-to-all pass on 16 ranks as one `exchange` per rank, as
    wide-centers' centers pass makes it, with no records, the run's wall
    time split over the rank-passes (where the checkout has the op).
Then, per `assign_labels` and per `center_sums` call, the same statistics
at each benchmark workload's per-rank shape (5,000 x 4 with k=8, 5,000 x 8
with k=16, 250 x 4 with k=16) and at its oracle shape (20,000 x 4 with k=8,
20,000 x 8 with k=16, 4,000 x 4 with k=16), on the values of a `Dataset`,
so in the layout the checkout stores samples in.  Then, per whole
`run_sequential` call (one per round), the same statistics at each oracle
shape on that workload's data (`make_blobs` at seed 1) with its k and its
iteration count as `max_iters`.  Then, per bounded samples pass
(`assign_bounded`, where the checkout has it), the mean over a real center
trajectory: the 60 centers a failure-free samples run of 20,000 x 4 blobs
with k=8 on 4 positions reads, each pass on position 0's 5,000 x 4 block,
the first with no bound.  Then, per centers pass of position 1 at each
centers workload's shape (about 250 x 4 of 4,000 x 4 on 16 positions, and
5,000 x 8 of 20,000 x 8 on 4 positions, both k=16) and between them
(about 1,000 x 4 of 16,000 x 4 on 16 positions, near the size rule), the
mean over the passes of a failure-free lockstep centers run in which the
position holds rows: the plain pass (`assign_labels` of its rows,
gathered as the checkout gathers them, by `kmeans.take_rows` where it has
it) and,
where the checkout gathers rows by id, the bounded pass with its size rule
off, the rows it kept carrying their gaps and the rows that arrived
starting stale.  Only the assignment call is timed, not the bookkeeping
between passes.  Then, at the same three shapes, per centers position step
(where the checkout has `CentersPosition`): the mean of one position's
`compute` + `absorb`, over the same lockstep trajectory with every position
stepped as `run_parallel` steps them, bounded pass and ownership bookkeeping
together.  Last, per one-kill recovery: the host time of a forced
fault-tolerant run in which rank 1 dies in the compute of iteration 12,
minus that of the same run without the kill (the fastest of three
alternating runs each per round), at the wide-centers shape (4,000 x 4,
k=16, 16+1 ranks, interval 10, forced to 30) and at churn-samples' (20,000
x 4, k=8, samples on 4+3 ranks, interval 1, forced to 60).  It holds the
restore, the replayed passes and the detection's host work; the timeout
the survivors wait is virtual.
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
REDUCES = 2_000        # per round
WIDE = 16              # ranks of the wide-centers world's compute group
BROADCASTS = 400       # per round
PASSES = 200           # per round
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


def _send_recv_any(ctx) -> None:
    send, recv_any = ctx.send, ctx.recv_any
    for _ in range(N):
        send(0, b"x")
        recv_any()


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


def _reduce(kmft) -> float:
    """Seconds per 4-rank reduce of one (8, 5) float64 array."""
    world = kmft.spawn_world(4)
    group = kmft.Group((0, 1, 2, 3))
    partials = np.ones((8, 5))

    def prog(ctx) -> None:
        reduce_all = ctx.reduce_all
        for i in range(REDUCES):
            reduce_all(group, partials, i)

    t0 = time.perf_counter()
    world.run({rank: prog for rank in group.members})
    return (time.perf_counter() - t0) / REDUCES


def _broadcast(kmft) -> float:
    """Seconds per 16-root broadcast of (1, 4) float64 blocks on 16 ranks."""
    world = kmft.spawn_world(WIDE)
    group = kmft.Group(tuple(range(WIDE)))

    def prog(ctx) -> None:
        broadcast, block = ctx.broadcast, np.full((1, 4), float(ctx.rank))
        for i in range(BROADCASTS):
            broadcast(group, group.members, block, i)

    t0 = time.perf_counter()
    world.run({rank: prog for rank in group.members})
    return (time.perf_counter() - t0) / BROADCASTS


def _exchange(kmft) -> float:
    """Seconds per rank-pass of a 16-rank `exchange` with no records."""
    world = kmft.spawn_world(WIDE)
    group = kmft.Group(tuple(range(WIDE)))
    records, ends = np.empty((0, 2), dtype="<u8"), [0] * WIDE

    def prog(ctx) -> None:
        exchange = ctx.exchange
        for i in range(PASSES):
            exchange(group, False, records, ends, i)

    t0 = time.perf_counter()
    world.run({rank: prog for rank in range(WIDE)})
    return (time.perf_counter() - t0) / (PASSES * WIDE)


def _kernel_cases(kmeans, n: int, d: int, k: int) -> dict:
    """Seconds per `assign_labels` and per `center_sums` call at one shape."""
    rng = np.random.default_rng(n + d + k)
    values = kmeans.Dataset(rng.normal(scale=4.0, size=(n, d))).values
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


# (n, d, blobs, spread, k, iters): the oracle runs of the churn-samples,
# bulk-centers and wide-centers workloads, at the oracle shapes above
ORACLE_RUNS = [(20_000, 4, 5, 3.0, 8, 60), (20_000, 8, 10, 4.0, 16, 20),
               (4_000, 4, 8, 3.0, 16, 30)]


def _oracle_case(package, n: int, d: int, blobs: int, spread: float, k: int,
                 iters: int) -> dict:
    """Seconds per whole `run_sequential` call on one workload's data."""
    data, _ = package.make_blobs(n=n, d=d, blobs=blobs, spread=spread, seed=1)
    cfg = package.KmeansConfig(k=k, max_iters=iters, seed=1)

    def run() -> float:
        t0 = time.perf_counter()
        package.run_sequential(data, cfg)
        return time.perf_counter() - t0

    return {f"run_sequential {n}x{d} k={k} cap {iters}": run}


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


# (n, d, blobs, spread, k, procs, iters): the two centers workloads, and
# between them a block near kmeans.BOUND_MIN_CELLS (about 1,000 rows x k=16)
CENTERS_SHAPES = [(4_000, 4, 8, 3.0, 16, 16, 30), (16_000, 4, 8, 3.0, 16, 16, 30),
                  (20_000, 8, 10, 4.0, 16, 4, 20)]
CENTERS_POSITION = 1


def _centers_pass_cases(package, n: int, d: int, blobs: int, spread: float, k: int,
                        procs: int, iters: int) -> dict:
    """Seconds per plain and per bounded centers pass of one position over a
    lockstep center trajectory."""
    kmeans = package.kmeans
    data, _ = package.make_blobs(n=n, d=d, blobs=blobs, spread=spread, seed=1)
    run = package.run_parallel(data, package.KmeansConfig(k=k), procs,
                               package.Method.CENTERS, record_history=True,
                               force_iters=iters)
    values = data.values
    # checkouts without `take_rows` gathered whole rows
    take_rows = getattr(kmeans, "take_rows", lambda table, ids: table.take(ids, axis=0))
    lo, hi = package.partition(k, procs)[CENTERS_POSITION]
    # per pass: the centers read and the labels every row starts it with
    passes = [(kmeans.init_centroids(data, k).centers, np.zeros(n, dtype=np.int64)),
              *((rec.centers, rec.assign) for rec in run.history[:-1])]
    owned = [np.flatnonzero((start >= lo) & (start < hi)) for _, start in passes]
    passes = [(centers, ids, start[ids]) for (centers, start), ids in zip(passes, owned)
              if len(ids)]
    rows = round(statistics.mean(len(ids) for _, ids, _ in passes))
    shape = f"{rows}x{d} k={k}"

    def plain() -> float:
        spent = 0.0
        for centers, ids, _ in passes:
            t0 = time.perf_counter()
            kmeans.assign_labels(take_rows(values, ids), centers)
            spent += time.perf_counter() - t0
        return spent / len(passes)

    def bounded() -> float:
        spent, kept, bound = 0.0, np.zeros(0, dtype=np.int64), None
        cells, kmeans.BOUND_MIN_CELLS = kmeans.BOUND_MIN_CELLS, 0
        try:
            for centers, ids, labels in passes:
                if bound is not None:       # kept rows keep their gap, arrivals get 0
                    at = np.minimum(np.searchsorted(kept, ids), len(kept) - 1)
                    stays = kept[at] == ids
                    bound = kmeans.NearestBound(np.where(stays, bound.gap.take(at), 0.0),
                                                bound.ref)
                t0 = time.perf_counter()
                _, _, bound = kmeans.assign_bounded(values, centers, labels, bound, ids)
                spent += time.perf_counter() - t0
                kept = ids
        finally:
            kmeans.BOUND_MIN_CELLS = cells
        return spent / len(passes)

    cases = {f"centers plain pass {shape}": plain}
    if "ids" in inspect.signature(kmeans.assign_bounded).parameters:
        cases[f"centers bounded pass {shape}"] = bounded
    return cases


def _centers_step_case(package, n: int, d: int, blobs: int, spread: float, k: int,
                       procs: int, iters: int) -> dict:
    """Seconds per `CentersPosition.compute` + `absorb` of one position, over
    the center trajectory of a failure-free lockstep centers run."""
    parallel = package.parallel
    if not hasattr(parallel, "CentersPosition"):
        return {}
    data, _ = package.make_blobs(n=n, d=d, blobs=blobs, spread=spread, seed=1)
    run = package.run_parallel(data, package.KmeansConfig(k=k), procs,
                               package.Method.CENTERS, record_history=True,
                               force_iters=iters)
    read = [package.init_centroids(data, k).centers,
            *(rec.centers for rec in run.history[:-1])]
    states = [parallel.CentersPosition(data.values, k, procs, p) for p in range(procs)]

    def trajectory() -> float:
        for p, state in enumerate(states):
            state.reset(p)
        t0 = time.perf_counter()
        for centers in read:
            passes = [state.compute(centers) for state in states]
            for p, state in enumerate(states):
                state.absorb(passes[p], [out.outgoing[p] for src, out in enumerate(passes)
                                         if src != p and p in out.outgoing])
        return (time.perf_counter() - t0) / (len(read) * procs)

    return {f"centers position step {n // procs}x{d} k={k}": trajectory}


# (n, d, blobs, spread, k, method, active, spares, interval, iters): the
# wide-centers and churn-samples runs, each given one kill of rank 1 in the
# compute of iteration 12
RECOVERY_RUNS = [(4_000, 4, 8, 3.0, 16, "centers", 16, 1, 10, 30),
                 (20_000, 4, 5, 3.0, 8, "samples", 4, 3, 1, 60)]
RECOVERY_KILL = (1, 12)
RECOVERY_REPEATS = 3   # runs per side and round


def _recovery_case(package, n: int, d: int, blobs: int, spread: float, k: int,
                   method: str, active: int, spares: int, interval: int,
                   iters: int) -> dict:
    """Seconds a one-kill fault-tolerant run takes beyond the same run
    without the kill."""
    data, _ = package.make_blobs(n=n, d=d, blobs=blobs, spread=spread, seed=1)
    kill = package.FailurePlan([package.FailureEvent(
        *RECOVERY_KILL, package.FailPhase.DURING_COMPUTE)])

    def run(plan) -> float:
        t0 = time.perf_counter()
        out = package.run_ft_kmeans(
            data, package.KmeansConfig(k=k, max_iters=iters), package.Method(method),
            package.CheckpointPolicy(interval), package.WorldLayout(active, spares),
            plan=plan, seed=1, force_iters=iters)
        spent = time.perf_counter() - t0
        if out.reason or out.recoveries != (plan is not None):
            raise RuntimeError(f"{method} run: {out.recoveries} recoveries, "
                               f"reason {out.reason!r}")
        return spent

    def case() -> float:
        # the fastest of a few alternating runs per side damps host noise,
        # which on one run is as large as the recovery itself
        killed, plain = [], []
        for _ in range(RECOVERY_REPEATS):
            killed.append(run(kill))
            plain.append(run(None))
        return min(killed) - min(plain)

    return {f"one-kill recovery {method} {active}+{spares}": case}


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    cpu = _pin()
    import kmft as package
    from kmft import kmeans
    from kmft import simcluster as kmft

    cases = {
        "send+recv_any pair": lambda: _in_one_rank(kmft, _send_recv_any) / N,
        "charge": lambda: _in_one_rank(kmft, _charge) / N,
        "failure_point (no fire)": lambda: _in_one_rank(kmft, _failure_point(kmft)) / N,
        "phase scope": lambda: _in_one_rank(kmft, _phase(kmft)) / N,
        "baton handoff": lambda: _handoff(kmft),
        "reduce_all 4 ranks (8, 5) f64": lambda: _reduce(kmft),
        "broadcast 16 roots (1, 4) f64": lambda: _broadcast(kmft),
    }
    if hasattr(kmft.RankContext, "exchange"):
        cases["exchange 16 ranks"] = lambda: _exchange(kmft)
    for shape in KERNEL_SHAPES:
        cases.update(_kernel_cases(kmeans, *shape))
    for run in ORACLE_RUNS:
        cases.update(_oracle_case(package, *run))
    cases.update(_bounded_pass_case(package))
    for shape in CENTERS_SHAPES:
        cases.update(_centers_pass_cases(package, *shape))
    for shape in CENTERS_SHAPES:
        cases.update(_centers_step_case(package, *shape))
    for run in RECOVERY_RUNS:
        cases.update(_recovery_case(package, *run))
    print(f"kmft from {src}, pinned to CPU {cpu}; us per op, best / median of {ROUNDS}")
    for name, case in cases.items():
        runs = [case() * 1e6 for _ in range(ROUNDS)]
        print(f"{name:<34} {min(runs):9.2f} {statistics.median(runs):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
