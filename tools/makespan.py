"""Makespan and per-phase ticks of the centers benchmark workloads.

    python3 tools/makespan.py [SRC]

Runs against the kmft package under SRC (default: the `src` directory next
to this script).  For each centers workload of `perfbench/workloads.py`,
on its seed-1 dataset (`make_blobs` at seed 1, schedule seed 1), it runs
the workload's fault-tolerant config twice: with no kill, and with rank 1
killed in the compute of iteration 12.  Each run prints one line: the
makespan (the largest vt total over the ranks), then each phase's ticks
summed over the ranks; the one-kill line ends with its lost work, the
makespans' difference.  Ticks are deterministic, so two checkouts' lines
compare exactly: a change that only speeds the host up prints the same
lines.  The benchmark kills no rank on the centers workloads; this is
where a centers recovery's cost is read.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
KILL_RANK, KILL_ITERATION = 1, 12


def _run(kmft, wl, data, events):
    out = kmft.run_ft_kmeans(
        data, kmft.KmeansConfig(k=wl.k, max_iters=wl.iters, seed=SEED),
        kmft.Method.CENTERS, kmft.CheckpointPolicy(interval=wl.interval),
        kmft.WorldLayout(active=wl.procs, spares=wl.spares),
        plan=kmft.FailurePlan(events) if events else None, seed=SEED,
        force_iters=wl.iters)
    if out.reason or out.recoveries != len(events):
        raise SystemExit(f"{wl.name}: run failed ({out.reason!r}, "
                         f"{out.recoveries} recoveries)")
    phases = {phase.value: sum(ledger.get(phase, 0) for ledger in out.ledger.values())
              for phase in kmft.VtPhase}
    return max(out.vt_total.values()), phases


def _columns(makespan, phases) -> str:
    return "  ".join([f"makespan {makespan}",
                      *(f"{name} {ticks}" for name, ticks in phases.items())])


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else ROOT / "src"
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import kmft
    from workloads import WORKLOADS

    kill = (kmft.FailureEvent(KILL_RANK, KILL_ITERATION, kmft.FailPhase.DURING_COMPUTE),)
    for wl in WORKLOADS.values():
        if wl.method != "centers":
            continue
        data, _ = kmft.make_blobs(wl.n, wl.d, wl.blobs, wl.spread, SEED)
        print(f"{wl.name} seed {SEED}: {wl.n}x{wl.d} k={wl.k} on {wl.procs}+{wl.spares} "
              f"ranks, interval {wl.interval}, forced to {wl.iters}")
        free, phases = _run(kmft, wl, data, ())
        print(f"  {'no kill':<10} {_columns(free, phases)}")
        killed, phases = _run(kmft, wl, data, kill)
        print(f"  {f'kill {KILL_RANK}@{KILL_ITERATION}':<10} {_columns(killed, phases)}"
              f"  lost {killed - free}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
