"""Fingerprint the results of a fixed set of fault-tolerant runs.

    python3 tools/digest.py [SRC]

Runs the 212-run set below against the kmft package under SRC (default: the
`src` directory next to this script) and prints five lines, `<n> runs
<sha256>`, `<n> runs values <sha256>`, one `<n> runs ticks <method>
<sha256>` line per method over that method's runs, and `<n> runs results
<sha256>`.  Run it on two checkouts: a refactor that keeps every result
prints the same first line; a model change, which moves ticks but must keep
every value, prints the same second line; a change that only regroups the
`record_trace` events, and so moves the first line, prints the same ticks
lines when no tick moved; a change to one decomposition prints the same
ticks line for the other; and a change to what a snapshot holds, which
moves captures and restore digests, prints the same results line.

A sixth line, `<n> runs oracle <sha256>`, fingerprints `run_sequential`
alone: its centroid bytes, assignments, counts, changed flag and
iterations at each benchmark workload's shape (seed 1, `max_iters` the
workload's iteration count) and at one shape under
`kmeans.BOUND_MIN_CELLS`.  A change to the sequential oracle that must
keep its results prints the same oracle line.

For each method (centers, samples), with checkpoint interval 5, the set
holds:
  * two failure-free runs: 4+1 ranks forced to 12 iterations with
    `record_trace`, and 8+1 ranks run to convergence;
  * 100 single kills: ranks 0-3 at iterations 1, 2, 5, 7 and 10, in
    compute, barrier and checkpoint substeps 0-2, on 4+1 ranks forced to 12;
  * two kills on 4+2 ranks, spare exhaustion on 4+1, a lost buddy pair
    on 4+2, and a kill of the promoted spare on 4+3.
The schedule seed of each run is its index mod 5.  Each run hashes its
ledgers, vt totals, trace, centroid bytes, assignments, recovery events,
captures, reason, iterations, converged flag, recoveries, epochs and final
group; the values line leaves out the ledgers, vt totals and trace, the
ticks line leaves out only the trace, and the results line leaves out the
ledgers, vt totals, trace, captures and the recovery events' restore
digests.  Only the public API is used, so any
checkout since the set was defined can be fingerprinted; one that still
has commit modes runs its default mode, eager.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

FORCE = 12
KILL_ITERS = (1, 2, 5, 7, 10)
# (n, d, blobs, spread, k, max_iters) per oracle run: the wide-centers,
# bulk-centers and churn-samples workloads, then 400 samples with k=6
# (2,400 distances, under the oracle's size rule)
ORACLE_SHAPES = ((4000, 4, 8, 3.0, 16, 30), (20000, 8, 10, 4.0, 16, 20),
                 (20000, 4, 5, 3.0, 8, 60), (400, 3, 4, 2.0, 6, 100))


def _scenarios(kmft):
    """Yield (layout, kill events, force_iters, record_trace) per run."""
    ev = kmft.FailureEvent
    barrier = kmft.FailPhase.BEFORE_BARRIER
    phases = ((kmft.FailPhase.DURING_COMPUTE, 0), (barrier, 0),
              (kmft.FailPhase.DURING_CHECKPOINT, 0),
              (kmft.FailPhase.DURING_CHECKPOINT, 1),
              (kmft.FailPhase.DURING_CHECKPOINT, 2))
    yield (4, 1), (), FORCE, True
    yield (8, 1), (), None, False
    for rank in range(4):
        for it in KILL_ITERS:
            for phase, substep in phases:
                yield (4, 1), (ev(rank, it, phase, substep),), FORCE, False
    yield (4, 2), (ev(1, 3, barrier), ev(3, 8, barrier)), FORCE, False
    yield (4, 1), (ev(1, 3, barrier), ev(2, 8, barrier)), FORCE, False
    # rank 0 holds rank 1's mirror
    yield (4, 2), (ev(0, 7, barrier), ev(1, 7, barrier)), FORCE, False
    # rank 4 is the spare promoted into rank 1's position
    yield (4, 3), (ev(1, 3, barrier), ev(4, 8, barrier)), FORCE, False


def _fingerprint(out, ticks: bool = True, trace: bool = True,
                 snapshots: bool = True) -> bytes:
    parts = [
        sorted((r, sorted((p.value, n) for p, n in led.items()))
               for r, led in out.ledger.items()),
        sorted(out.vt_total.items()),
    ] if ticks else []
    if trace:
        parts.append(out.trace)
    parts += [
        None if out.centroids is None else out.centroids.centers.tobytes(),
        None if out.table is None else out.table.assign.tobytes(),
        [sorted((k, sorted(v.items()) if isinstance(v, dict) else v)
                for k, v in ev.items() if snapshots or k != "digests")
         for ev in out.recovery_events],
    ]
    if snapshots:
        parts.append(sorted(out.captures.items()))
    parts += [
        out.reason, out.iterations, out.converged, out.recoveries,
        out.epochs_committed, out.final_group,
    ]
    return repr(parts).encode()


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import kmft

    data, _ = kmft.make_blobs(n=400, d=3, blobs=4, spread=2.0, seed=3)
    cfg = kmft.KmeansConfig(k=6, max_iters=100, seed=3)
    total = hashlib.sha256()
    values = hashlib.sha256()
    ticks = {method: hashlib.sha256()
             for method in (kmft.Method.CENTERS, kmft.Method.SAMPLES)}
    results = hashlib.sha256()
    runs = 0
    policy = kmft.CheckpointPolicy(interval=5)
    for method in ticks:
        for (active, spares), events, force, trace in _scenarios(kmft):
            out = kmft.run_ft_kmeans(
                data, cfg, method, policy,
                kmft.WorldLayout(active=active, spares=spares),
                plan=kmft.FailurePlan(events), seed=runs % 5,
                force_iters=force, record_trace=trace)
            total.update(hashlib.sha256(_fingerprint(out)).digest())
            values.update(hashlib.sha256(
                _fingerprint(out, ticks=False, trace=False)).digest())
            ticks[method].update(
                hashlib.sha256(_fingerprint(out, trace=False)).digest())
            results.update(hashlib.sha256(_fingerprint(
                out, ticks=False, trace=False, snapshots=False)).digest())
            runs += 1
    print(f"{runs} runs {total.hexdigest()}")
    print(f"{runs} runs values {values.hexdigest()}")
    for method, digest in ticks.items():
        print(f"{runs // len(ticks)} runs ticks {method.value} {digest.hexdigest()}")
    print(f"{runs} runs results {results.hexdigest()}")
    oracle = hashlib.sha256()
    for n, d, blobs, spread, k, max_iters in ORACLE_SHAPES:
        data, _ = kmft.make_blobs(n=n, d=d, blobs=blobs, spread=spread, seed=1)
        centroids, table, iters = kmft.run_sequential(
            data, kmft.KmeansConfig(k=k, max_iters=max_iters, seed=1))
        oracle.update(hashlib.sha256(repr([
            centroids.centers.tobytes(), table.assign.tobytes(), table.counts.tobytes(),
            table.changed, iters]).encode()).digest())
    print(f"{len(ORACLE_SHAPES)} runs oracle {oracle.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
