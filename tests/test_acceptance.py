"""Acceptance gate.

One test per numbered criterion; under `pytest -v` the PASSED/FAILED line
of each test is the per-criterion verdict.  Each test also prints its own
summary line (visible with -s or on failure).

 1. oracle equivalence of both decompositions over 200 random instances
 2. checkpoint-count arithmetic on a forced 550-iteration run
 3. failure transparency across a full (rank x iteration x phase) matrix
 4. mirror-ring policy conformance
 5. detection agreement between survivors and the injected plan
 6. snapshot consistency under kills inside the checkpoint protocol
 7. objective monotonicity and deterministic replay
 8. rollback bounded by the checkpoint interval
 9. virtual-time accounting in every report row
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from kmft.bench import CSV_HEADER, RunConfig, run_experiment
from kmft.checkpoint import CheckpointPolicy, mirror_source, mirror_target
from kmft.datasets import make_blobs
from kmft.errors import Timeout
from kmft.kmeans import (AssignmentTable, CentroidSet, Dataset, KmeansConfig,
                         init_centroids, initial_assignment, lloyd_step,
                         objective, run_sequential)
from kmft.parallel import Method, run_parallel
from kmft.runtime import WorldLayout, detect_failures, run_ft_kmeans
from kmft.simcluster import (FailPhase, FailureEvent, FailurePlan, Group,
                             Health, VtPhase, spawn_world)

VT_COLS = ("vt_compute", "vt_comm", "vt_ckpt_start", "vt_ckpt_commit",
           "vt_detect", "vt_restore")


def _objective_at(data, centers, assign, k):
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    table = AssignmentTable(assign=assign, changed=True, counts=counts)
    return objective(data, CentroidSet(centers), table)


# -- shared workloads ---------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_sweep():
    """200 random instances, both decompositions against the sequential oracle."""
    rng = np.random.default_rng(20260819)
    records = []
    started = time.perf_counter()
    while len(records) < 200:
        n = int(rng.integers(20, 501))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, 17))
        if k > n:
            continue
        procs = int(rng.choice((1, 2, 4, 8)))
        if rng.integers(2):
            blobs = int(rng.integers(1, max(2, min(k, 5) + 1)))
            data, _ = make_blobs(n, d, blobs=blobs,
                                 spread=float(rng.uniform(0.3, 3.0)),
                                 seed=int(rng.integers(2**31)))
        else:
            data = Dataset(rng.uniform(-10.0, 10.0, size=(n, d)))
        cfg = KmeansConfig(k=k, max_iters=60, seed=0)

        seq_c, seq_t, seq_it = run_sequential(data, cfg)
        m1 = run_parallel(data, cfg, procs, Method.CENTERS, record_history=True)
        m2 = run_parallel(data, cfg, procs, Method.SAMPLES, record_history=True)

        # replay the oracle one pass at a time for per-iteration assignments
        cen, tab = init_centroids(data, k), initial_assignment(n, k)
        replay = []
        for _ in range(seq_it):
            cen, tab = lloyd_step(data, cen, tab)
            replay.append(tab.assign.copy())

        def deltas(history):
            vals = [_objective_at(data, h.centers, h.assign, k) for h in history]
            return max((b - a for a, b in zip(vals, vals[1:])), default=0.0)

        records.append({
            "shape": (n, d, k, procs),
            "iters_equal": seq_it == m1.iterations == m2.iterations,
            "m1_bitwise": np.array_equal(m1.centroids.centers, seq_c.centers),
            "m2_assign_ok": (len(m2.history) == seq_it
                             and all(np.array_equal(h.assign, r)
                                     for h, r in zip(m2.history, replay))),
            "m2_close": np.allclose(m2.centroids.centers, seq_c.centers,
                                    rtol=1e-9, atol=1e-15),
            "m1_worst_rise": deltas(m1.history),
            "m2_worst_rise": deltas(m2.history),
        })
    return {"records": records, "elapsed": time.perf_counter() - started}


MATRIX_DATA, _ = make_blobs(n=2000, d=4, blobs=5, spread=3.0, seed=1)
MATRIX_CFG = KmeansConfig(k=8, max_iters=200, seed=1)
MATRIX_POLICY = CheckpointPolicy(interval=5)
MATRIX_LAYOUT = WorldLayout(active=4, spares=1)


def _matrix_run(method, event):
    """The matrix config run with one planned failure.  A pool worker
    imports this module, so it rebuilds the data from the constants above."""
    return run_ft_kmeans(MATRIX_DATA, MATRIX_CFG, method, MATRIX_POLICY,
                         MATRIX_LAYOUT, plan=FailurePlan((event,)))


@pytest.fixture(scope="module")
def matrix_pool():
    """Worker processes for the kill runs, one per CPU this process may use,
    started fresh (never forked from a process that holds threads)."""
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


def _matrix_runs(pool, cases):
    """`_matrix_run` of each (method, event), results in the order given;
    a pool that has not returned them all within criterion 3's bound fails."""
    methods, events = zip(*cases)
    return list(pool.map(_matrix_run, methods, events, chunksize=8, timeout=300.0))


@pytest.fixture(scope="module")
def kill_matrix(matrix_pool):
    """A single failure at every (rank, iteration <= 30, phase), both methods."""
    baselines = {}
    for m in (Method.CENTERS, Method.SAMPLES):
        base = run_ft_kmeans(MATRIX_DATA, MATRIX_CFG, m, MATRIX_POLICY,
                             MATRIX_LAYOUT)
        assert base.converged and base.iterations > 30   # every kill must fire
        baselines[m] = base

    runs = []
    started = time.perf_counter()
    cases = [(m, FailureEvent(rank=rank, iteration=it, phase=phase))
             for m in (Method.CENTERS, Method.SAMPLES)
             for rank in range(MATRIX_LAYOUT.active)
             for it in range(1, 31)
             for phase in FailPhase]
    for (m, ev), out in zip(cases, _matrix_runs(matrix_pool, cases)):
        want = baselines[m].centroids.centers
        got = (out.centroids.centers if out.centroids is not None
               else None)
        runs.append({
            "method": m, "rank": ev.rank, "iteration": ev.iteration,
            "phase": ev.phase, "converged": out.converged,
            "recoveries": out.recoveries, "reason": out.reason,
            "iterations": out.iterations, "events": out.recovery_events,
            "bitwise": (got is not None
                        and got.tobytes() == want.tobytes()),
        })
    return {"baselines": baselines, "runs": runs,
            "elapsed": time.perf_counter() - started}


# -- criteria -----------------------------------------------------------------

def test_criterion_1_oracle_equivalence(oracle_sweep):
    records = oracle_sweep["records"]
    assert len(records) >= 200
    bad = [r["shape"] for r in records if not (r["iters_equal"]
                                               and r["m1_bitwise"]
                                               and r["m2_assign_ok"]
                                               and r["m2_close"])]
    assert not bad, f"oracle mismatch at shapes {bad[:5]}"
    assert oracle_sweep["elapsed"] < 60.0
    print(f"criterion 1 PASS: {len(records)} instances, method 1 bitwise, "
          f"method 2 within 1e-9, {oracle_sweep['elapsed']:.1f}s")


def test_criterion_2_checkpoint_count():
    small, _ = make_blobs(n=120, d=2, blobs=3, spread=0.8, seed=4)
    cfg = KmeansConfig(k=3, max_iters=600, seed=4)
    out = run_ft_kmeans(small, cfg, Method.SAMPLES, CheckpointPolicy(interval=50),
                        WorldLayout(active=2), force_iters=550)
    assert out.iterations == 550
    assert out.epochs_committed == 11
    report = run_experiment(small, RunConfig(
        n=120, d=2, k=3, procs=2, method="samples", interval=50,
        max_iters=600, force_iters=550, seed=4))
    assert report.row["iterations"] == 550
    assert report.row["epochs_committed"] == 11
    print("criterion 2 PASS: 550 forced iterations at interval 50 "
          "commit exactly 11 epochs")


def test_criterion_3_failure_transparency(kill_matrix):
    runs = kill_matrix["runs"]
    assert len(runs) == 2 * 4 * 30 * 3
    broken = [(r["method"].value, r["rank"], r["iteration"], r["phase"].value,
               r["reason"])
              for r in runs
              if not (r["converged"] and r["recoveries"] == 1
                      and r["reason"] == "")]
    assert not broken, f"non-transparent runs: {broken[:5]}"
    m1_bad = [r for r in runs if r["method"] is Method.CENTERS
              and not r["bitwise"]]
    m2_bad = [r for r in runs if r["method"] is Method.SAMPLES
              and not r["bitwise"]]
    assert not m1_bad and not m2_bad
    assert kill_matrix["elapsed"] < 300.0
    print(f"criterion 3 PASS: {len(runs)} single-failure runs all recover "
          f"transparently in {kill_matrix['elapsed']:.0f}s")


def test_criterion_4_ring_policy():
    g = Group((1, 2, 3, 4))
    assert {r: mirror_target(r, g) for r in g.members} == {2: 1, 1: 4,
                                                           4: 3, 3: 2}
    for size in range(2, 33):
        g = Group(tuple(range(size)))
        mapping = {r: mirror_target(r, g) for r in g.members}
        assert all(mapping[r] != r for r in g.members)           # no fixed point
        assert sorted(mapping.values()) == list(g.members)       # bijection
        assert all(mirror_source(mirror_target(r, g), g) == r
                   for r in g.members)
        walk = {r: r for r in g.members}
        for step in range(1, size + 1):
            walk = {r: mapping[walk[r]] for r in g.members}
            if step < size:
                assert any(walk[r] != r for r in g.members)      # single cycle
        assert all(walk[r] == r for r in g.members)              # N-fold identity
    print("criterion 4 PASS: ring map exact on {1,2,3,4}; fixed-point-free "
          "bijection with N-fold identity for N=2..32")


def test_criterion_5_detection_agreement(kill_matrix):
    for r in kill_matrix["runs"]:
        assert len(r["events"]) == 1
        ev = r["events"][0]
        assert tuple(ev["failed"]) == (r["rank"],), r
        if ev["epoch"] is not None:
            # every member of the rebuilt group recorded the same recovery
            assert set(ev["digests"]) == set(range(MATRIX_LAYOUT.active))

    # the state vector itself, probed at every phase
    for phase in FailPhase:
        plan = FailurePlan((FailureEvent(rank=1, iteration=1, phase=phase),))
        world = spawn_world(3, plan=plan)
        group = Group((0, 1, 2))

        def survivor(ctx):
            with pytest.raises(Timeout):
                ctx.barrier(group, "det")
            detected = detect_failures(ctx, group)
            with ctx.phase(VtPhase.DETECT):
                vector = ctx.state_vector()
            return detected, vector

        def victim(ctx):
            ctx.failure_point(1, phase)
            return detect_failures(ctx, group), None

        results = world.run({0: survivor, 1: victim, 2: survivor})
        assert results[1].status == "killed"
        for rank in (0, 2):
            detected, vector = results[rank].value
            assert detected == (1,)
            corrupt = {m for m, h in vector.items() if h is Health.CORRUPT}
            assert corrupt == {1}
    print("criterion 5 PASS: survivors agree with every injected plan and "
          "the state vector marks exactly the dead ranks")


def test_criterion_6_snapshot_consistency(kill_matrix, matrix_pool):
    def capture_at(captures, position, epoch):
        hits = [dig for ep, _, dig in captures[position] if ep == epoch]
        assert len(hits) == 1, (position, epoch)
        return hits[0]

    cases = [(m, FailureEvent(rank=rank, iteration=it,
                              phase=FailPhase.DURING_CHECKPOINT, substep=substep))
             for m in (Method.CENTERS, Method.SAMPLES)
             for rank in range(MATRIX_LAYOUT.active)
             for it in (5, 10, 25, 30)            # checkpoint iterations
             for substep in (0, 1, 2)]            # before / inside / after commit
    checked = 0
    for (m, ev), out in zip(cases, _matrix_runs(matrix_pool, cases)):
        base = kill_matrix["baselines"][m]
        want = base.centroids.centers
        rank, it, substep = ev.rank, ev.iteration, ev.substep
        assert out.converged and out.recoveries == 1
        assert out.centroids.centers.tobytes() == want.tobytes()
        (rec,) = out.recovery_events
        epoch = it // MATRIX_POLICY.interval
        committed = epoch if substep == 2 else epoch - 1
        if committed == 0:
            # nothing committed yet: replay from the seed state
            assert rec["epoch"] is None
            assert rec["resumed_iteration"] == 0
            continue
        assert rec["epoch"] == committed
        assert rec["resumed_iteration"] == committed * 5
        for pos, digest in rec["digests"].items():
            if pos == rank:
                # the spare read the dead rank's mirror: bytes must
                # match what the failure-free twin captured there
                twin = capture_at(base.captures, pos, committed)
                assert digest == twin
            else:
                own = capture_at(out.captures, pos, committed)
                assert digest == own
        checked += 1
    print(f"criterion 6 PASS: {checked} committed-epoch restores byte-identical "
          "to their captures under kills at every checkpoint substep")


def test_criterion_7_monotone_and_deterministic(oracle_sweep):
    worst = max(max(r["m1_worst_rise"], r["m2_worst_rise"])
                for r in oracle_sweep["records"])
    assert worst <= 0.0, f"objective rose by {worst}"

    plan = FailurePlan((FailureEvent(rank=2, iteration=7,
                                     phase=FailPhase.BEFORE_BARRIER),))
    traces = []
    for _ in range(2):
        out = run_ft_kmeans(MATRIX_DATA, MATRIX_CFG, Method.SAMPLES,
                            MATRIX_POLICY, MATRIX_LAYOUT, plan=plan,
                            record_trace=True)
        assert out.converged and out.recoveries == 1
        traces.append(out.trace)
    assert traces[0] == traces[1]

    spec = RunConfig(n=2000, d=4, k=8, procs=4, spares=1, method="centers",
                     interval=5, seed=1,
                     failures=(FailureEvent(rank=0, iteration=9,
                                            phase=FailPhase.DURING_CHECKPOINT),))
    rows = [run_experiment(MATRIX_DATA, spec).row for _ in range(2)]
    diff = {c for c in CSV_HEADER if rows[0][c] != rows[1][c]}
    assert diff <= {"wall_ms"}
    print(f"criterion 7 PASS: objective never rises (worst delta {worst:.1e}); "
          f"reruns give identical traces ({len(traces[0])} events) and rows")


def test_criterion_8_rollback_bound(kill_matrix):
    worst = 0
    for r in kill_matrix["runs"]:
        (ev,) = r["events"]
        redone = ev["completed_iteration"] - ev["resumed_iteration"]
        assert 0 <= redone <= MATRIX_POLICY.interval, r
        worst = max(worst, redone)
    print(f"criterion 8 PASS: recomputed work <= interval "
          f"({worst} <= {MATRIX_POLICY.interval}) across the whole matrix")


def test_criterion_9_accounting(tmp_path):
    data, _ = make_blobs(n=500, d=3, blobs=5, spread=2.5, seed=17)

    def rc(**kw):
        base = dict(n=500, d=3, k=9, seed=17)
        base.update(kw)
        return RunConfig(**base)

    specs = [
        rc(method="sequential"),
        rc(method="centers", procs=2, interval=5),
        rc(method="centers", procs=4, interval=5),
        rc(method="samples", procs=4, interval=5),
        rc(method="samples", procs=4, spares=1, interval=5,
           failures=(FailureEvent(rank=2, iteration=7,
                                  phase=FailPhase.BEFORE_BARRIER),)),
        rc(method="centers", procs=4, spares=0, interval=5,
           failures=(FailureEvent(rank=1, iteration=4,
                                  phase=FailPhase.DURING_COMPUTE),)),
    ]
    overheads = []
    for spec in specs:
        report = run_experiment(data, spec)
        row = report.row
        assert 0.0 <= row["overhead_frac"] <= 1.0
        total = sum(row[c] for c in VT_COLS)
        if report.outcome is not None:
            assert total == sum(report.outcome.vt_total.values())
            protect = (row["vt_ckpt_start"] + row["vt_ckpt_commit"]
                       + row["vt_detect"] + row["vt_restore"])
            assert row["overhead_frac"] == protect / total
        else:
            assert total == 0 and row["overhead_frac"] == 0.0
        overheads.append(row["overhead_frac"])
    print("criterion 9 PASS: ledgers sum to run totals; overhead fractions "
          + ", ".join(f"{o:.3f}" for o in overheads))
