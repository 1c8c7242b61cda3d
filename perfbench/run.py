"""Benchmark of kmft: host wall time beside tick ledgers, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one process each

A single-threaded closed loop: one client runs each call to completion, then
the next.  With ``--trace 0`` it repeats rounds of three calls for
``--seconds`` seconds, on four datasets made from the seed in turn, each
call gated against the sequential oracle:

* ``kmft.run_experiment`` on the workload's fault-tolerant config (the
  ``kmft-bench run`` path);
* ``kmft.run_parallel``, the failure-free lockstep driver, same method,
  procs and forced iterations;
* ``kmft.run_experiment(method="sequential")``, the oracle, with max_iters
  set to the forced count.

and prints the end-to-end metrics.  Every timing is scaled to a reference
host speed, read off a fixed kernel run between calls (see hostspeed.py);
the raw wall times are printed beside them.  With ``--trace 1`` it alternates
untraced and traced fault-tolerant calls and prints the per-layer split
(see tracer.py).  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when any call
failed its gate, 2 when the checkout holds no kmft sources.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# kmft is imported only after the first set-up has been timed: its import is
# part of setup_s.  numpy's is not: the reference kernel imports it first.
from hostspeed import kernel_seconds, scale
from setup_probe import MissingProgram, check_sources, timed_setup
from tracer import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 9          # one in this process, the rest in fresh ones
# A trace-0 run cycles through DATASETS datasets, so that how much work one
# seed's data happens to make weighs a quarter as much in the result
DATASETS = 4
DATASET_SEED_STEP = 1000
MIN_TRACED = 2             # traced calls, so their counts can be compared
MAX_FAILED = 10            # a traced run gives up after this many failed calls
SAMPLES_ATOL = 1e-12       # README: samples centroids across recoveries
LOCKSTEP_RTOL = 1e-9       # README: samples centroids, failure-free

END_TO_END = {             # name -> unit
    "ft_wall_s": "s",
    "lockstep_wall_s": "s",
    "oracle_wall_s": "s",
    "setup_s": "s",
    "vt_makespan": "ticks",
    "vt_overhead_frac": "ratio",
    "peak_rss_mb": "MB",
}

# RankContext ops the runtime calls; a missing one reports 0 calls
OPS = ("charge", "failure_point", "write_local", "read_local", "write_remote",
       "wait", "read_remote", "send", "recv", "recv_any", "purge_incoming",
       "barrier", "reduce_all", "broadcast", "state_vector")
PARALLEL_SPANS = ("centers_compute", "centers_recompute", "merge_incoming",
                  "samples_compute", "samples_partials", "samples_divide",
                  "encode_records", "decode_records")
VT_PHASES = ("compute", "comm", "ckpt_start", "ckpt_commit", "detect", "restore")


def host_fingerprint(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_at_start": list(loadavg)}


# -- the calls and their correctness gate -------------------------------------

class Calls:
    """The three timed calls of one workload, and the gate each must pass."""

    def __init__(self, kmft, wl: Workload, data, seed: int):
        self.kmft = kmft
        self.wl = wl
        self.data = data
        events = tuple(kmft.FailureEvent(k.rank, k.iteration, kmft.FailPhase(k.phase),
                                         k.substep) for k in wl.kills)
        self.ft_cfg = kmft.RunConfig(
            n=wl.n, d=wl.d, k=wl.k, procs=wl.procs, spares=wl.spares,
            method=wl.method, interval=wl.interval, force_iters=wl.iters,
            seed=seed, failures=events, mode=kmft.Mode.DETERMINISTIC)
        self.oracle_cfg = kmft.RunConfig(n=wl.n, d=wl.d, k=wl.k, method="sequential",
                                         max_iters=wl.iters, seed=seed)
        self.kcfg = kmft.KmeansConfig(k=wl.k, max_iters=wl.iters, seed=seed)
        # the reference every result is checked against, computed untimed
        self.ref_centroids, self.ref_table, self.ref_iters = kmft.run_sequential(
            data, self.kcfg)
        self.ref_objective = kmft.objective(data, self.ref_centroids, self.ref_table)
        self.ref_ledger = None

    def oracle_still_moving(self) -> bool:
        """The oracle ran every pass up to the forced count and still moved."""
        return self.ref_iters == self.wl.iters and self.ref_table.changed

    def ft(self):
        return self.kmft.run_experiment(self.data, self.ft_cfg)

    def lockstep(self):
        return self.kmft.run_parallel(self.data, self.kcfg, self.wl.procs,
                                      self.kmft.Method(self.wl.method),
                                      force_iters=self.wl.iters)

    def oracle(self):
        return self.kmft.run_experiment(self.data, self.oracle_cfg)

    def _check_result(self, centers, assign, atol: float, rtol: float) -> list[str]:
        import numpy as np
        if not np.array_equal(assign, self.ref_table.assign):
            return ["assignments differ from the oracle"]
        ref = self.ref_centroids.centers
        if self.wl.method == "centers":
            if not np.array_equal(centers, ref):
                return ["centroids not bitwise equal to the oracle"]
        elif not np.allclose(centers, ref, rtol=rtol, atol=atol):
            worst = float(np.max(np.abs(centers - ref)))
            return [f"centroids off the oracle by {worst:.3g}"]
        return []

    def check_ft(self, report) -> list[str]:
        out = report.outcome
        if out.reason:
            return [f"run ended with reason {out.reason!r}"]
        problems = self._check_result(out.centroids.centers, out.table.assign,
                                      SAMPLES_ATOL, 0.0)
        if out.iterations != self.wl.iters:
            problems.append(f"{out.iterations} iterations, forced {self.wl.iters}")
        if out.recoveries != len(self.wl.kills):
            problems.append(f"{out.recoveries} recoveries for "
                            f"{len(self.wl.kills)} planned kills")
        ledger = {r: dict(v) for r, v in out.ledger.items()}
        if self.ref_ledger is None:
            self.ref_ledger = ledger
        elif ledger != self.ref_ledger:
            problems.append("tick ledger differs from the first repetition")
        return problems

    def check_lockstep(self, res) -> list[str]:
        problems = self._check_result(res.centroids.centers, res.table.assign,
                                      0.0, LOCKSTEP_RTOL)
        if res.iterations != self.wl.iters:
            problems.append(f"{res.iterations} iterations, forced {self.wl.iters}")
        if self.wl.oracle_unconverged and self.wl.method == "centers" \
                and not res.transfers[-1]:
            problems.append("no ownership record moved in the last pass")
        return problems

    def check_oracle(self, report) -> list[str]:
        row = report.row
        problems = []
        if report.objective != self.ref_objective:
            problems.append("objective differs from the reference oracle")
        if row["iterations"] != self.ref_iters:
            problems.append(f"{row['iterations']} iterations, reference {self.ref_iters}")
        if self.wl.oracle_unconverged and not self.oracle_still_moving():
            problems.append(f"oracle converged by pass {self.wl.iters}; "
                            "the workload needs it still moving")
        return problems


class Tally:
    """Attempted and failed calls; a failure is reported on stderr.

    The reference kernel runs between every two calls, so each call's time
    is scaled by the host speed read just before and just after it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kernel_s: float | None = None    # the kernel's last time

    def call(self, label: str, fn, check):
        """Time one call; returns (wall seconds, scaled seconds, value), the
        times None if it raised."""
        self.attempted += 1
        if self.kernel_s is None:
            self.kernel_s = kernel_seconds()
        before = self.kernel_s
        gc.collect()            # start every call from a collected heap
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception:       # a raised call is a failed call, not a crash
            self.failed += 1
            print(f"FAIL {label}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.kernel_s = None
            return None, None, None
        seconds = time.perf_counter() - t0
        self.kernel_s = kernel_seconds()
        problems = check(value)
        if problems:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)
        return seconds, scale(seconds, before, self.kernel_s), value


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timing_line(name: str, per_set: list[list[float]], value: float | None = None) -> str:
    """`value` (by default the mean of the per-dataset medians) with the
    sample count, minimum and maximum over all datasets."""
    pooled = [v for vs in per_set for v in vs]
    if not pooled:
        return f"{name:<22} no successful sample"
    if value is None:
        value = statistics.fmean(_median(vs) for vs in per_set)
    return (f"{name:<22} {value:.6f} s  from {len(pooled)} samples "
            f"(min {min(pooled):.6f}, max {max(pooled):.6f})")


# -- trace 0: end-to-end metrics ------------------------------------------------

def measure_setup(wl: Workload, seed: int, tmp: Path):
    """SETUP_SAMPLES set-ups; the first, in this process, yields the data.

    Returns (wall seconds, scaled seconds, data)."""
    seconds, scaled, data = timed_setup(wl, seed, tmp / "data.kmds")
    walls, samples = [seconds], [scaled]
    for i in range(1, SETUP_SAMPLES):
        path = tmp / f"probe{i}.kmds"
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        wall, scaled = done.stdout.strip().splitlines()[-1].split()
        walls.append(float(wall))
        samples.append(float(scaled))
    return walls, samples, data


def dataset_seeds(seed: int) -> list[int]:
    """The seeds of a run's datasets; the first is the run's own seed."""
    return [seed + DATASET_SEED_STEP * j for j in range(DATASETS)]


def end_to_end(kmft, wl: Workload, datasets: list, seconds: float,
               setup: tuple[list[float], list[float]]) -> tuple[dict, Tally, list[str]]:
    """Rounds over `datasets`, a list of (seed, data), until `seconds` have
    passed; every dataset gets at least one round."""
    tally = Tally()
    triples = []
    for seed, data in datasets:
        calls = Calls(kmft, wl, data, seed)
        triples.append({"ft_wall_s": (calls.ft, calls.check_ft),
                        "lockstep_wall_s": (calls.lockstep, calls.check_lockstep),
                        "oracle_wall_s": (calls.oracle, calls.check_oracle)})
    # per metric, per dataset: the wall and the scaled seconds of every call
    walls = {name: [[] for _ in datasets] for name in triples[0]}
    times = {name: [[] for _ in datasets] for name in triples[0]}
    first_ft = [None] * len(datasets)
    full_round = False
    deadline = time.perf_counter() + seconds
    for j in itertools.cycle(range(len(datasets))):
        for name, (fn, check) in triples[j].items():
            wall, scaled, value = tally.call(name, fn, check)
            if wall is None:
                continue
            walls[name][j].append(wall)
            times[name][j].append(scaled)
            if name == "ft_wall_s" and first_ft[j] is None:
                first_ft[j] = value
        full_round = full_round or j == len(datasets) - 1
        if full_round and time.perf_counter() >= deadline:
            break

    # each dataset's median call, averaged over the datasets
    metrics = {name: statistics.fmean(_median(v) for v in per_set)
               for name, per_set in times.items()}
    metrics["setup_s"] = _median(setup[1])
    makespans = [max(r.outcome.vt_total.values()) if r else 0 for r in first_ft]
    overheads = [r.row["overhead_frac"] if r else 0.0 for r in first_ft]
    metrics["vt_makespan"] = statistics.fmean(makespans)
    metrics["vt_overhead_frac"] = statistics.fmean(overheads)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = [f"{len(datasets)} datasets, seeds {[seed for seed, _ in datasets]}; "
             "a timing is the mean over them of the median call"]
    for name, per_set in times.items():
        lines.append(_timing_line(name, per_set, metrics[name]))
    lines.append(_timing_line("setup_s", [setup[1]], metrics["setup_s"]))
    for name, per_set in walls.items():
        lines.append(_timing_line(f"{name} (raw)", per_set))
    lines.append(_timing_line("setup_s (raw)", [setup[0]]))
    lines += [f"{'vt_makespan':<22} {metrics['vt_makespan']} ticks  "
              f"(per dataset {makespans})",
              f"{'vt_overhead_frac':<22} {metrics['vt_overhead_frac']:.6f} ratio  "
              f"(per dataset {[round(f, 4) for f in overheads]})",
              f"{'peak_rss_mb':<22} {metrics['peak_rss_mb']:.1f} MB"]
    return metrics, tally, lines


# -- trace 1: per-layer metrics -------------------------------------------------

def layer_metrics(tr, report, setup_tr) -> dict[str, float]:
    """Every per-layer metric of one traced fault-tolerant call."""
    s = 1e-9
    calls, self_ns, counts = tr.calls, tr.self_ns, tr.counts
    out = report.outcome
    m: dict[str, float] = {}

    m["kmeans.pairwise_sqdist.calls"] = calls["kmeans.pairwise_sqdist"]
    m["kmeans.pairwise_sqdist.self_s"] = self_ns["kmeans.pairwise_sqdist"] * s
    m["kmeans.pairwise_sqdist.pairs"] = counts["kmeans.pairwise_sqdist.pairs"]
    m["kmeans.init_centroids.self_s"] = self_ns["kmeans.init_centroids"] * s
    m["kmeans.self_s"] = tr.module_self_ns("kmeans") * s

    for fn in PARALLEL_SPANS:
        m[f"parallel.{fn}.self_s"] = self_ns[f"parallel.{fn}"] * s
    m["parallel.encode_records.records"] = counts["parallel.encode_records.records"]
    m["parallel.records_moved"] = counts["parallel.records_moved"]
    m["parallel.self_s"] = tr.module_self_ns("parallel") * s

    m["simcluster.ops"] = tr.ops
    for op in OPS:
        m[f"simcluster.{op}.calls"] = calls[f"simcluster.{op}"]
    m["simcluster.self_s"] = tr.sim_ns * s
    m["simcluster.us_per_op"] = tr.sim_ns / tr.ops / 1e3 if tr.ops else 0.0
    m["simcluster.payload_bytes"] = counts["simcluster.payload_bytes"]
    m["simcluster.spawn_world.self_s"] = self_ns["simcluster.spawn_world"] * s
    for phase in VT_PHASES:
        m[f"simcluster.vt.{phase}"] = sum(
            ledger[kmft_phase] for ledger in out.ledger.values()
            for kmft_phase in ledger if kmft_phase.value == phase)

    for fn in ("start", "commit", "fetch", "adopt"):
        m[f"checkpoint.{fn}.calls"] = calls[f"checkpoint.{fn}"]
    m["checkpoint.start.self_s"] = self_ns["checkpoint.start"] * s
    m["checkpoint.encode_snapshot.self_s"] = self_ns["checkpoint.encode_snapshot"] * s
    m["checkpoint.decode_snapshot.self_s"] = self_ns["checkpoint.decode_snapshot"] * s
    m["checkpoint.snapshot_bytes"] = counts["checkpoint.snapshot_bytes"]
    m["checkpoint.fetch.mirror_reads"] = counts["checkpoint.fetch.mirror_reads"]
    commits = calls["checkpoint.commit"]
    m["checkpoint.commit_ok_frac"] = counts["checkpoint.commit.ok"] / commits if commits else 0.0
    m["checkpoint.self_s"] = tr.module_self_ns("checkpoint") * s

    replayed = sum(ev["completed_iteration"] - ev["resumed_iteration"]
                   for ev in out.recovery_events)
    m["runtime.program_s"] = tr.program_ns * s
    m["runtime.driver_self_s"] = (tr.program_ns - sum(
        tr.module_self_ns(mod) for mod in ("kmeans", "parallel", "checkpoint"))) * s
    m["runtime.detect_failures.calls"] = calls["runtime.detect_failures"]
    m["runtime.detect_failures.positive"] = counts["runtime.detect_failures.positive"]
    m["runtime.recoveries"] = out.recoveries
    m["runtime.replayed_iters"] = replayed
    m["runtime.useful_iter_frac"] = out.iterations / (out.iterations + replayed)
    m["runtime.epochs_committed"] = out.epochs_committed

    for fn in ("make_blobs", "write_dataset", "read_dataset"):
        m[f"datasets.{fn}.self_s"] = setup_tr.self_ns[f"datasets.{fn}"] * s
    m["trace.wall_s"] = tr.wall_ns * s
    return m


def split(m: dict[str, float]) -> dict[str, float]:
    """Self seconds per part of one traced call; the parts add up to its wall.

    The record codec (``parallel.encode_records`` / ``decode_records``) gets
    its own part: centers ranks call it for their messages, the checkpointer
    for snapshots and the runtime for digests.
    """
    codec = m["parallel.encode_records.self_s"] + m["parallel.decode_records.self_s"]
    return {"simcluster": m["simcluster.self_s"],
            "kmeans": m["kmeans.self_s"],
            "parallel kernels": m["parallel.self_s"] - codec,
            "record codec": codec,
            "checkpoint": m["checkpoint.self_s"],
            "runtime driver": m["runtime.driver_self_s"]}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.startswith("simcluster.vt."):
        return "ticks"
    if name.endswith("us_per_op"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _exact(name: str) -> bool:
    """Counts, ticks and ratios of counts, which repeat exactly in det mode."""
    return _unit(name) not in ("s", "us")


def traced(kmft, wl: Workload, data, seed: int, seconds: float,
           tmp: Path) -> tuple[dict, Tally, list[str]]:
    calls = Calls(kmft, wl, data, seed)
    tally = Tally()
    with Tracer() as setup_tr:
        blobs, _ = kmft.make_blobs(wl.n, wl.d, wl.blobs, wl.spread, seed)
        kmft.write_dataset(tmp / "traced.kmds", blobs)
        kmft.read_dataset(tmp / "traced.kmds")

    untraced: list[float] = []
    reps: list[dict] = []
    deadline = time.perf_counter() + seconds
    while (len(reps) < MIN_TRACED or time.perf_counter() < deadline) \
            and tally.failed < MAX_FAILED:
        t, _, _ = tally.call("ft untraced", calls.ft, calls.check_ft)
        if t is not None:
            untraced.append(t)
        tr = Tracer()
        with tr:
            t, _, rep = tally.call("ft traced", calls.ft, calls.check_ft)
        if t is None:
            continue
        reps.append(layer_metrics(tr, rep, setup_tr))
        if wl.oracle_unconverged and not (calls.oracle_still_moving()
                                          and reps[-1]["parallel.records_moved"]):
            tally.failed += 1
            print("FAIL ft traced: the workload needs the oracle and the "
                  "ownership records still moving", file=sys.stderr)
        exact = {k: v for k, v in reps[-1].items() if _exact(k)}
        if exact != {k: v for k, v in reps[0].items() if _exact(k)}:
            tally.failed += 1
            print("FAIL ft traced: per-layer counts differ between repetitions",
                  file=sys.stderr)

    # every figure from one repetition, the one of median traced wall, so
    # the module shares add up to its wall
    metrics = dict(sorted(reps, key=lambda r: r["trace.wall_s"])[(len(reps) - 1) // 2]
                   if reps else {})
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / _median(untraced) - 1.0 if reps and untraced else 0.0)

    lines = [_timing_line("ft untraced", [untraced]),
             _timing_line("ft traced", [[r["trace.wall_s"] for r in reps]])]
    if reps:
        lines.append("split of traced wall: " + ", ".join(
            f"{part} {seconds / metrics['trace.wall_s']:.1%}"
            for part, seconds in split(metrics).items()))
    lines += [f"{k:<40} {v:.6g} {_unit(k)}" for k, v in metrics.items()]
    return metrics, tally, lines


# -- entry points --------------------------------------------------------------

def pin_to_one_cpu() -> int | None:
    """Run this process and the rank threads it starts on one CPU.

    Deterministic mode runs one rank thread at a time, so one CPU is all the
    program can use.  Left to migrate, every baton handoff that crosses to
    another (virtual) CPU waits for the host to run that CPU, and wall time
    measures the host's scheduler instead of kmft.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    loadavg = os.getloadavg()
    cpu = pin_to_one_cpu()
    wl = WORKLOADS[name]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmpdir:
        tmp = Path(tmpdir)
        if trace:
            _, _, data = timed_setup(wl, seed, tmp / "data.kmds")
        else:
            setup_walls, setup_times, data = measure_setup(wl, seed, tmp)
        import kmft
        if trace:
            metrics, tally, lines = traced(kmft, wl, data, seed, seconds, tmp)
        else:
            datasets = [(seed, data)] + [
                (s, kmft.make_blobs(wl.n, wl.d, wl.blobs, wl.spread, s)[0])
                for s in dataset_seeds(seed)[1:]]
            metrics, tally, lines = end_to_end(kmft, wl, datasets, seconds,
                                               (setup_walls, setup_times))

    print(f"host {json.dumps(host_fingerprint(loadavg) | {'pinned_cpu': cpu})}")
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{tally.attempted} calls, {tally.failed} failed")
    for line in lines:
        print(line)
    print(f"{'failed_frac':<22} {tally.failed / max(tally.attempted, 1):.6f} ratio "
          f"({tally.failed} of {tally.attempted} calls)")
    units = END_TO_END if not trace else {k: _unit(k) for k in metrics}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process of its own, then a summary."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
        lines = done.stdout.strip().splitlines()
        if lines:
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload; omit to run all of them")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_sources()
        if args.workload is None:
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
