"""The benchmark's workloads, as plain data (importing this needs no kmft).

Each workload is generated from the seed argument alone: ``make_blobs`` with
that seed builds the samples and the same seed is the simulator's schedule
seed.  All three run in deterministic mode with a forced iteration count, so
every repetition does the same work.  NOTES.md says why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Kill:
    """One planned crash: `rank` dies at (iteration, phase, substep)."""

    rank: int
    iteration: int
    phase: str          # a kmft.FailPhase value: compute | barrier | ckpt
    substep: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    blobs: int
    spread: float
    k: int
    method: str         # centers | samples
    procs: int          # active ranks
    spares: int
    interval: int       # checkpoint interval, iterations
    iters: int          # forced iteration count; the oracle's max_iters
    kills: tuple[Kill, ...] = ()
    # the oracle must still be moving at pass `iters`, so ownership records
    # keep moving for the whole run
    oracle_unconverged: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wide-centers",
        n=4000, d=4, blobs=8, spread=3.0, k=16, method="centers",
        procs=16, spares=1, interval=10, iters=30),
    Workload(
        name="bulk-centers",
        n=20000, d=8, blobs=10, spread=4.0, k=16, method="centers",
        procs=4, spares=1, interval=10, iters=20, oracle_unconverged=True),
    Workload(
        name="churn-samples",
        n=20000, d=4, blobs=5, spread=3.0, k=8, method="samples",
        procs=4, spares=3, interval=1, iters=60,
        kills=(Kill(1, 12, "compute"),
               Kill(4, 30, "barrier"),      # the spare promoted at 12
               Kill(2, 45, "ckpt", 1))),
)}
