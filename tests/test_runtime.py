"""Fault-tolerant driver: transparency, rollback, detection, spare handling."""

import functools
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmft import kmeans, parallel, runtime, simcluster
from kmft.checkpoint import Checkpointer, CheckpointPolicy, mirror_target
from kmft.errors import ConfigError, InitError, InvariantError, UnrecoverableError
from kmft.datasets import make_blobs
from kmft.kmeans import Dataset, KmeansConfig, objective, run_sequential
from kmft.parallel import Method, run_parallel
from kmft.runtime import KILL_POINTS, WorldLayout, run_ft_kmeans
from kmft.simcluster import (
    FailPhase,
    FailureEvent,
    FailurePlan,
    Group,
    VtPhase,
    spawn_world,
)


def make_data(seed=7, n=160, d=3, lo=-5.0, hi=5.0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(lo, hi, size=(n, d)))


def kill(rank, iteration, phase=FailPhase.BEFORE_BARRIER, substep=0) -> FailurePlan:
    return FailurePlan((FailureEvent(rank, iteration, phase, substep),))


DATA = make_data()
CFG = KmeansConfig(k=6, max_iters=100)
SEQ_C, SEQ_T, SEQ_IT = run_sequential(DATA, CFG)
POLICY = CheckpointPolicy(interval=5)
LAYOUT = WorldLayout(active=4, spares=1)


class TestWorldLayout:
    def test_world_size_and_spare_ids(self):
        lay = WorldLayout(active=4, spares=2)
        assert lay.world_size == 6
        assert lay.spare_ids == (4, 5)

    def test_single_active_rank_rejected(self):
        with pytest.raises(ConfigError):
            WorldLayout(active=1, spares=3)

    def test_negative_spares_rejected(self):
        with pytest.raises(ConfigError):
            WorldLayout(active=4, spares=-1)


class TestFailureFree:
    @pytest.mark.parametrize("procs", [2, 4, 8])   # 8 > k leaves empty center blocks
    def test_centers_matches_sequential_bitwise(self, procs):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY,
                            WorldLayout(active=procs, spares=1))
        assert out.converged and out.recoveries == 0
        assert out.iterations == SEQ_IT
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)
        assert np.array_equal(out.table.assign, SEQ_T.assign)

    def test_samples_matches_sequential(self):
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT)
        assert out.converged and out.recoveries == 0
        assert out.iterations == SEQ_IT
        assert np.array_equal(out.table.assign, SEQ_T.assign)
        np.testing.assert_allclose(out.centroids.centers, SEQ_C.centers,
                                   rtol=0, atol=1e-9)

    def test_initial_centers_are_computed_once_per_run(self, monkeypatch):
        calls = []
        real = runtime.init_centroids
        monkeypatch.setattr(runtime, "init_centroids",
                            lambda *args: calls.append(args) or real(*args))
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY,
                            WorldLayout(active=4, spares=2), plan=kill(1, 3))
        assert out.recoveries == 1 and len(calls) == 1

    def test_k_the_data_cannot_seed_fails_before_any_rank_starts(self, monkeypatch):
        def spawn(*args, **kwargs):
            raise AssertionError("the world was spawned")
        monkeypatch.setattr(runtime, "spawn_world", spawn)
        with pytest.raises(InitError):
            run_ft_kmeans(DATA, KmeansConfig(k=DATA.n + 1), Method.CENTERS,
                          POLICY, LAYOUT)

    def test_matches_plain_parallel_runner_bitwise(self):
        plain = run_parallel(DATA, CFG, 4, Method.CENTERS)
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT)
        assert np.array_equal(out.centroids.centers, plain.centroids.centers)
        assert np.array_equal(out.table.assign, plain.table.assign)

    def test_epoch_count_follows_interval(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT)
        assert out.epochs_committed == (SEQ_IT - 1) // POLICY.interval
        assert out.recovery_events == []

    def test_ledger_sums_to_total_per_rank(self):
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT)
        for rank, phases in out.ledger.items():
            assert sum(phases.values()) == out.vt_total[rank]

    def test_parked_spare_does_no_clustering_work(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY,
                            WorldLayout(active=4, spares=2))
        for spare in (4, 5):
            assert out.ledger[spare][VtPhase.COMPUTE] == 0
            assert out.ledger[spare][VtPhase.CKPT_START] == 0

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("case", ["failure-free", "one-kill", "last-checkpoints"])
    def test_one_barrier_per_rank_and_none_per_checkpoint(self, method, case):
        """Detection costs one end-of-run barrier per rank and nothing per
        iteration; the next pass commits each checkpoint, the replayed
        iteration's capture included, and the end-of-run barrier commits a
        capture at the last iteration."""
        if case == "one-kill":
            out = run_ft_kmeans(PROP_DATA, PROP_CFG, method, CheckpointPolicy(interval=2),
                                LAYOUT, plan=kill(1, 7, FailPhase.DURING_COMPUTE),
                                force_iters=9, record_trace=True)
            assert out.recoveries == 1 and out.epochs_committed == 5
        else:
            force = 12 if case == "failure-free" else 10
            out = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT, force_iters=force,
                                record_trace=True)
            assert out.epochs_committed == 2
        barriers = {}
        for entry in out.trace:
            if entry[0] == "bar":
                _, _, tag = entry[2]        # (generation, "bar", tag)
                barriers[entry[1], tag] = barriers.get((entry[1], tag), 0) + 1
        assert barriers == {(rank, "end"): 1 for rank in out.final_group}

    def test_captures_recorded_per_position(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT)
        epochs = (SEQ_IT - 1) // POLICY.interval
        for pos in range(4):
            log = out.captures[pos]
            assert [e for e, _, _ in log] == list(range(1, epochs + 1))
            assert [it for _, it, _ in log] == [POLICY.interval * (i + 1)
                                                for i in range(epochs)]


class TestForcedIterations:
    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_committed_epochs_exact(self, method):
        """The centers pass's messages and the samples pass's reduce commit
        every epoch but the last; the end-of-run barrier commits that one."""
        out = run_ft_kmeans(DATA, KmeansConfig(k=6, max_iters=100),
                            method, CheckpointPolicy(interval=10),
                            LAYOUT, force_iters=60)
        assert out.iterations == 60
        assert out.epochs_committed == 6

    @pytest.mark.parametrize("iters", [0, -2])
    def test_non_positive_force_iters_rejected(self, iters):
        with pytest.raises(ConfigError, match="force_iters"):
            run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                          force_iters=iters)

    def test_forced_run_reaches_sequential_fixed_point(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            force_iters=SEQ_IT + 10)
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)
        assert out.converged


class TestSingleFailure:
    def test_centers_transparent_bitwise(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 7))
        assert out.converged and out.recoveries == 1
        assert out.iterations == SEQ_IT
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)
        assert np.array_equal(out.table.assign, SEQ_T.assign)

    def test_samples_transparent_within_tolerance(self):
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT,
                            plan=kill(2, 7))
        assert out.converged and out.recoveries == 1
        assert np.array_equal(out.table.assign, SEQ_T.assign)
        np.testing.assert_allclose(out.centroids.centers, SEQ_C.centers,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_a_center_empty_at_the_restored_iteration_keeps_its_row(self, method):
        """Center 0 of this heavy-tailed instance has no members from pass 3
        on.  The replayed pass's means step keeps the row it had before
        that pass, not its initial row, so every kill ends with the
        failure-free centroids and assignments."""
        rng = np.random.default_rng(37)
        n, k, d = (int(rng.integers(lo, hi)) for lo, hi in ((20, 80), (4, 14), (1, 3)))
        data = Dataset(rng.standard_cauchy((n, d)))
        cfg, policy = KmeansConfig(k=k), CheckpointPolicy(interval=1)
        layout = WorldLayout(active=3, spares=1)
        twin = run_ft_kmeans(data, cfg, method, policy, layout, force_iters=12)
        assert twin.table.counts[0] == 0
        for t in range(5, 12):
            out = run_ft_kmeans(data, cfg, method, policy, layout, force_iters=12,
                                plan=kill(1, t, FailPhase.DURING_COMPUTE))
            assert out.recoveries == 1 and out.recovery_events[0]["epoch"] >= 3
            assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
            assert np.array_equal(out.table.assign, twin.table.assign)

    def test_group_rebuilt_with_spare_in_failed_position(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 7))
        assert out.final_group == (0, 1, 4, 3)
        ev = out.recovery_events[0]
        assert ev["failed"] == (2,)
        assert ev["promoted"] == (4,)

    def test_rollback_to_last_committed_epoch(self):
        # die at 12 with interval 5: epoch 2 (iteration 10) is the floor
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(1, 12))
        ev = out.recovery_events[0]
        assert ev["epoch"] == 2
        assert ev["resumed_iteration"] == 10
        assert ev["completed_iteration"] == 12
        assert ev["completed_iteration"] - ev["resumed_iteration"] <= POLICY.interval

    def test_failure_before_first_commit_resets_to_seed_state(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(3, 2, FailPhase.DURING_COMPUTE))
        ev = out.recovery_events[0]
        assert ev["epoch"] is None
        assert ev["resumed_iteration"] == 0
        assert ev["digests"] == {}
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)
        assert out.iterations == SEQ_IT

    @pytest.mark.parametrize("phase", list(FailPhase))
    def test_rollback_never_exceeds_interval(self, phase):
        for it in (4, 5, 9, 11):
            out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                                plan=kill(0, it, phase))
            assert out.recoveries == 1
            ev = out.recovery_events[0]
            span = ev["completed_iteration"] - ev["resumed_iteration"]
            assert 0 <= span <= POLICY.interval

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("phase, substep, last, fires", [
        (FailPhase.BEFORE_BARRIER, 0, 22, True),
        (FailPhase.DURING_CHECKPOINT, 0, 22, True),
        (FailPhase.DURING_CHECKPOINT, 2, 25, False),     # the last iteration checkpoints
    ], ids=["barrier", "ckpt-0", "ckpt-2"])
    def test_kill_after_the_last_pass_recovers(self, method, phase, substep, last, fires):
        """No pass is left to miss the victim: the end-of-run barrier does,
        and the run replays to the same values.  That barrier also commits a
        capture at the last iteration and nothing follows it, so checkpoint
        substep 2 of that iteration is never reached."""
        twin = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT, force_iters=last)
        event = FailureEvent(1, last, phase, substep)
        out = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT, force_iters=last,
                            plan=FailurePlan((event,)))
        assert out.converged and out.recoveries == int(fires) and out.reason == ""
        assert out.iterations == last and out.unfired == (() if fires else (event,))
        assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
        assert np.array_equal(out.table.assign, twin.table.assign)

    def test_detection_names_exactly_the_planned_victim(self):
        for phase in FailPhase:
            out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT,
                                plan=kill(1, 6, phase))
            assert [e["failed"] for e in out.recovery_events] == [(1,)]

    def test_objective_never_increases_across_recovery(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 7))
        # the recovered run lands on the sequential fixed point, whose
        # objective is the floor of the monotone sequential descent
        seq_obj = objective(DATA, SEQ_C, SEQ_T)
        assert objective(DATA, out.centroids, out.table) == seq_obj


class TestCheckpointPhaseKills:
    """Deaths inside the protection step never hurt the committed epoch."""

    def test_kill_before_start_rolls_back_one_interval(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 10, FailPhase.DURING_CHECKPOINT, 0))
        ev = out.recovery_events[0]
        assert ev["epoch"] == 1 and ev["resumed_iteration"] == 5
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)

    def test_kill_between_start_and_commit_keeps_previous_epoch(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 10, FailPhase.DURING_CHECKPOINT, 1))
        ev = out.recovery_events[0]
        assert ev["epoch"] == 1 and ev["resumed_iteration"] == 5
        assert out.converged and out.recoveries == 1
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)

    def test_kill_after_commit_resumes_from_fresh_epoch(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 10, FailPhase.DURING_CHECKPOINT, 2))
        ev = out.recovery_events[0]
        assert ev["epoch"] == 2 and ev["resumed_iteration"] == 10
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("it", [3, 5], ids=["no-checkpoint", "checkpoint"])
    def test_ckpt_substep_0_is_the_barrier_instant(self, method, it):
        """Checkpoint substep 0 follows every pass that does not converge,
        whether or not the iteration checkpoints, with nothing between it
        and the barrier failure point: both kills run identically."""
        ckpt = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                             plan=kill(1, it, FailPhase.DURING_CHECKPOINT, 0))
        barrier = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                                plan=kill(1, it, FailPhase.BEFORE_BARRIER))
        assert ckpt.recoveries == 1 and ckpt.unfired == ()
        assert ckpt.centroids.centers.tobytes() == barrier.centroids.centers.tobytes()
        assert ckpt.ledger == barrier.ledger and ckpt.vt_total == barrier.vt_total
        assert ckpt.recovery_events == barrier.recovery_events

    def test_survivor_restores_exactly_what_it_captured(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 10, FailPhase.DURING_CHECKPOINT, 1))
        ev = out.recovery_events[0]
        for pos in (0, 1, 3):
            captured = {e: dg for e, _, dg in out.captures[pos]}
            assert ev["digests"][pos] in captured.values()
            assert ev["digests"][pos] == captured[ev["epoch"]]

    def test_spare_restore_matches_failure_free_twin_capture(self):
        twin = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT)
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 10, FailPhase.DURING_CHECKPOINT, 1))
        ev = out.recovery_events[0]
        for pos, digest in ev["digests"].items():
            twin_caps = {e: dg for e, _, dg in twin.captures[pos]}
            assert digest == twin_caps[ev["epoch"]]


class TestAborts:
    def test_spare_exhaustion_reports_diagnostic_outcome(self):
        plan = FailurePlan((FailureEvent(0, 3, FailPhase.BEFORE_BARRIER),
                            FailureEvent(1, 8, FailPhase.BEFORE_BARRIER)))
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY,
                            WorldLayout(active=4, spares=1), plan=plan)
        assert not out.converged
        assert out.recoveries == 1
        assert "spares" in out.reason
        assert out.centroids is None and out.table is None

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_losing_every_holder_of_the_epoch_ends_with_a_reason(self, method):
        """Every active rank dies after epoch 1 committed: spares are left,
        but no live rank holds a copy of the epoch."""
        plan = FailurePlan(tuple(FailureEvent(r, 7, FailPhase.BEFORE_BARRIER)
                                 for r in range(4)))
        out = run_ft_kmeans(DATA, CFG, method, POLICY, WorldLayout(active=4, spares=4),
                            plan=plan)
        assert not out.converged and out.centroids is None
        assert out.reason == "every active rank failed"

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("phase", [FailPhase.BEFORE_BARRIER, FailPhase.DURING_COMPUTE])
    @pytest.mark.parametrize("spares", [1, 2, 3])
    def test_losing_every_active_rank_ends_with_a_reason(self, method, phase, spares):
        """Parked spares wait only on each other then: none may block the end."""
        plan = FailurePlan((FailureEvent(0, 3, phase), FailureEvent(1, 3, phase)))
        out = run_ft_kmeans(DATA, CFG, method, POLICY,
                            WorldLayout(active=2, spares=spares), plan=plan,
                            force_iters=8)
        assert not out.converged
        assert out.reason == "every active rank failed"
        assert out.centroids is None and out.table is None
        assert out.recovery_events == [] and out.final_group == ()
        assert sorted(out.ledger) == list(range(2 + spares))
        for rank, total in out.vt_total.items():
            assert sum(out.ledger[rank].values()) == total
        assert out.vt_total[0] > 0 and out.vt_total[1] > 0

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("phase, substep, it", [
        (FailPhase.DURING_COMPUTE, 0, 3),
        (FailPhase.DURING_CHECKPOINT, 1, 4),     # the next pass misses it
        # the next pass commits the epoch, then the means step misses it
        (FailPhase.DURING_CHECKPOINT, 2, 4),
        # the end-of-run barrier, which commits the last iteration's
        # capture, misses it
        (FailPhase.DURING_CHECKPOINT, 1, 6),
        # only the end-of-run barrier can miss a kill after the last pass of
        # a run forced to an iteration that does not checkpoint
        (FailPhase.DURING_CHECKPOINT, 0, 7),
    ])
    def test_a_fault_nobody_detects_ends_unconverged(self, monkeypatch, method,
                                                     phase, substep, it):
        """The one abort path, with one reason wherever the fault is met: a
        reason always means converged=False."""
        monkeypatch.setattr(runtime, "detect_failures", lambda *args: ())
        data, _ = make_blobs(n=120, d=2, blobs=3, spread=0.3, seed=1)
        out = run_ft_kmeans(data, KmeansConfig(k=3, max_iters=50), method,
                            CheckpointPolicy(interval=2),
                            WorldLayout(active=3, spares=1),
                            plan=kill(1, it, phase, substep), force_iters=max(it, 6))
        assert not out.converged
        assert out.reason == "communication fault without a detectable failure"
        assert out.centroids is None and out.table is None

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_spare_whose_restore_fails_ends_with_the_reason(self, monkeypatch, method):
        """A woken spare joins inside `run`, so its restore gives up the one
        way every step does: its driver carries the error as its reason."""
        real_fetch = Checkpointer.fetch

        def fetch(cp):
            if cp.ctx.rank == 4:
                raise UnrecoverableError("no copy for the promoted spare")
            return real_fetch(cp)

        worlds = []

        def spawn(*args, **kwargs):
            worlds.append(spawn_world(*args, **kwargs))
            return worlds[-1]

        monkeypatch.setattr(Checkpointer, "fetch", fetch)
        monkeypatch.setattr(runtime, "spawn_world", spawn)
        # no agreement step tells the survivors: they give up on the finished
        # spare in the replayed pass, find no dead rank and end with their own
        # reason.  ROADMAP item 6 replaces the two reasons with one shared one.
        with pytest.raises(InvariantError, match=r"ranks disagree on it: \['0', '4'\]"):
            run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT, plan=kill(2, 7))
        results = worlds[0]._results
        assert results[4].status == "done"
        assert results[4].value.reason == "no copy for the promoted spare"
        assert not results[4].value.converged
        for survivor in (0, 1, 3):
            assert (results[survivor].value.reason
                    == "communication fault without a detectable failure")

    def test_kill_aimed_at_parked_spare_never_fires(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY,
                            WorldLayout(active=4, spares=1), plan=kill(4, 3))
        assert out.converged and out.recoveries == 0
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)


class TestDoubleFailure:
    def test_two_sequential_failures_with_two_spares(self):
        plan = FailurePlan((FailureEvent(0, 3, FailPhase.BEFORE_BARRIER),
                            FailureEvent(1, 9, FailPhase.DURING_COMPUTE)))
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY,
                            WorldLayout(active=4, spares=2), plan=plan)
        assert out.converged and out.recoveries == 2
        assert out.final_group == (4, 5, 2, 3)
        assert [e["failed"] for e in out.recovery_events] == [(0,), (1,)]
        assert [e["promoted"] for e in out.recovery_events] == [(4,), (5,)]
        assert np.array_equal(out.table.assign, SEQ_T.assign)
        np.testing.assert_allclose(out.centroids.centers, SEQ_C.centers,
                                   rtol=0, atol=1e-12)

    def test_promoted_spare_can_die_too(self):
        # rank 4 takes position 0 at iteration 3, then dies at iteration 9
        plan = FailurePlan((FailureEvent(0, 3, FailPhase.BEFORE_BARRIER),
                            FailureEvent(4, 9, FailPhase.BEFORE_BARRIER)))
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY,
                            WorldLayout(active=4, spares=2), plan=plan)
        assert out.converged and out.recoveries == 2
        assert out.final_group == (5, 1, 2, 3)
        assert np.array_equal(out.centroids.centers, SEQ_C.centers)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_second_kill_in_the_same_checkpoint_iteration_recovers(self, method):
        """Rank 0 dies before the capture at 6, rank 1 after it.  This pair
        once raced the survivors' state-vector reads into a deadlock; every
        schedule now recovers twice with the failure-free values."""
        plan = FailurePlan((FailureEvent(0, 6, FailPhase.DURING_CHECKPOINT, 0),
                            FailureEvent(1, 6, FailPhase.DURING_CHECKPOINT, 2)))
        twin = _failure_free_twin(method, 4, 2)
        for seed in range(8):
            out = run_ft_kmeans(PROP_DATA, PROP_CFG, method, CheckpointPolicy(interval=2),
                                WorldLayout(active=4, spares=2), plan=plan, seed=seed,
                                force_iters=PROP_FORCE)
            assert out.reason == "" and out.recoveries == 2, seed
            assert [(e["failed"], e["epoch"], e["resumed_iteration"])
                    for e in out.recovery_events] == [((0,), 2, 4), ((1,), 4, 6)]
            assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()


    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("rank", range(4))
    def test_losing_a_rank_and_its_mirror_holder_recovers_bitwise(self, method, rank):
        """Every member captures the same bytes for an epoch, so the stand-in
        of a rank whose mirror holder died with it reads another member's
        own copy."""
        g = Group((0, 1, 2, 3))
        pair = (rank, mirror_target(rank, g))
        plan = FailurePlan(tuple(FailureEvent(r, 7, FailPhase.BEFORE_BARRIER) for r in pair))
        twin = run_ft_kmeans(DATA, CFG, method, POLICY, WorldLayout(active=4, spares=2))
        out = run_ft_kmeans(DATA, CFG, method, POLICY, WorldLayout(active=4, spares=2),
                            plan=plan)
        assert out.reason == "" and out.converged and out.recoveries == 2
        assert [e["failed"] for e in out.recovery_events] == [tuple(sorted(pair))]
        assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
        assert np.array_equal(out.table.assign, twin.table.assign)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_losing_three_of_four_recovers_alike_under_every_schedule(self, method):
        """Stand-ins never read each other's own slots, whose adopt may or
        may not have happened yet, so the ticks charged do not depend on
        the schedule seed."""
        plan = FailurePlan(tuple(FailureEvent(r, 7, FailPhase.BEFORE_BARRIER)
                                 for r in (0, 1, 3)))
        twin = run_ft_kmeans(DATA, CFG, method, POLICY, WorldLayout(active=4, spares=3))
        outs = [run_ft_kmeans(DATA, CFG, method, POLICY, WorldLayout(active=4, spares=3),
                              plan=plan, seed=seed) for seed in range(4)]
        for out in outs:
            assert out.reason == "" and out.recoveries == 3
            assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
            assert out.ledger == outs[0].ledger


class TestTimeout:
    def test_every_collective_waits_the_world_timeout(self):
        """A survivor's collective waits exactly the run's timeout for a dead
        peer, and detection waits no second time: one timeout per fault."""
        samples, centers = Method.SAMPLES, Method.CENTERS
        for method, plan, waits_in, force in (
                (samples, kill(1, 3, FailPhase.DURING_COMPUTE), VtPhase.COMM, None),
                (samples, kill(1, 3, FailPhase.BEFORE_BARRIER), VtPhase.COMM, None),
                # pass 6 misses it
                (samples, kill(1, 5, FailPhase.DURING_CHECKPOINT, 1), VtPhase.COMM, None),
                # pass 6 commits epoch 1, then the means step misses it
                (samples, kill(1, 5, FailPhase.DURING_CHECKPOINT, 2), VtPhase.COMM, None),
                (centers, kill(1, 5, FailPhase.DURING_CHECKPOINT, 2), VtPhase.COMM, None),
                # the end-of-run barrier, which commits the last capture,
                # misses it
                (samples, kill(1, 10, FailPhase.DURING_CHECKPOINT, 1),
                 VtPhase.DETECT, 10)):
            waited, total = {}, {}
            for timeout in (50, 5000):
                out = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                                    plan=plan, timeout=timeout, force_iters=force)
                assert out.recoveries == 1 and out.reason == ""
                assert out.converged == (force is None)
                waited[timeout] = out.ledger[0][waits_in]
                total[timeout] = out.vt_total[0]
            assert waited[5000] - waited[50] == 4950, (method, plan.events)
            assert total[5000] - total[50] == 4950, (method, plan.events)


class TestLedgerAcrossRecovery:
    def test_ledger_sums_and_covers_recovery_phases(self):
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            plan=kill(2, 7))
        for rank, phases in out.ledger.items():
            assert sum(phases.values()) == out.vt_total[rank]
        survivors = [0, 1, 3]
        assert all(out.ledger[r][VtPhase.DETECT] > 0 for r in survivors)
        # a survivor restores from its own slot, a local read that costs
        # nothing; the promoted spare reads a copy remotely
        assert all(out.ledger[r][VtPhase.RESTORE] == 0 for r in survivors)
        assert out.ledger[4][VtPhase.RESTORE] > 0


class TestReplayedPass:
    def test_a_centers_recovery_assigns_each_sample_once(self, monkeypatch):
        """On 8+1 ranks, from each rank's recovery plan to the end of its
        first means step after it, the replayed iteration's, each member of
        the new group sends exactly its bootstrap slice of the sample ids
        through the distance kernel: the replayed pass assigns every sample
        once, spread evenly over the positions, the two positions that own
        no center (k=6) included."""
        layout = WorldLayout(active=8, spares=1)
        rows, windows, closed = {}, {}, []     # windows: rank thread -> rank
        kernel = kmeans.pairwise_sqdist
        real_rejoin = runtime._ActiveDriver._rejoin
        pass_fn, real_means = runtime._EXCHANGES[Method.CENTERS]

        def counted(points, centers):
            rank = windows.get(threading.get_ident())
            if rank is not None:
                rows[rank] = rows.get(rank, 0) + len(points)
            return kernel(points, centers)

        def rejoin(driver, plan):
            windows[threading.get_ident()] = driver.ctx.rank
            real_rejoin(driver, plan)

        def means(ctx, group, state, centers, t):
            new = real_means(ctx, group, state, centers, t)
            if windows.pop(threading.get_ident(), None) is not None:
                closed.append(ctx.rank)
            return new

        monkeypatch.setattr(kmeans, "pairwise_sqdist", counted)
        monkeypatch.setattr(runtime._ActiveDriver, "_rejoin", rejoin)
        monkeypatch.setitem(runtime._EXCHANGES, Method.CENTERS, (pass_fn, means))
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, layout,
                            plan=kill(2, 7), force_iters=10)
        assert out.recoveries == 1 and not out.reason
        assert out.recovery_events[0]["resumed_iteration"] == 5
        assert sorted(closed) == sorted(out.final_group) and windows == {}
        slices = parallel.partition(DATA.n, layout.active)
        assert rows == {rank: hi - lo for rank, (lo, hi) in zip(out.final_group, slices)}
        assert set(rows.values()) == {DATA.n // layout.active}

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_a_kill_in_the_replayed_pass_recovers_from_the_same_epoch(self, method):
        """The spare promoted at epoch 1 (iteration 5) runs iteration 5
        again, so a kill planned for it there fires in the replayed pass;
        the next recovery restores epoch 1 again and the run ends with the
        failure-free values."""
        layout = WorldLayout(active=4, spares=2)
        twin = run_ft_kmeans(DATA, CFG, method, POLICY, layout, force_iters=12)
        plan = FailurePlan((FailureEvent(1, 7, FailPhase.DURING_COMPUTE),
                            FailureEvent(4, 5, FailPhase.DURING_COMPUTE)))
        out = run_ft_kmeans(DATA, CFG, method, POLICY, layout, plan=plan, force_iters=12)
        assert out.reason == "" and out.recoveries == 2 and out.unfired == ()
        assert [(ev["epoch"], ev["resumed_iteration"]) for ev in out.recovery_events] \
            == [(1, 5), (1, 5)]
        assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
        assert np.array_equal(out.table.assign, twin.table.assign)


class TestDeterminism:
    def test_same_seed_reruns_identically(self):
        kw = dict(plan=kill(2, 7, FailPhase.DURING_COMPUTE),
                  record_trace=True, seed=11)
        a = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT, **kw)
        b = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT, **kw)
        assert a.trace == b.trace
        assert a.vt_total == b.vt_total
        assert np.array_equal(a.centroids.centers, b.centroids.centers)
        assert a.recovery_events == b.recovery_events

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    @pytest.mark.parametrize("plan", [
        kill(1, 2, FailPhase.DURING_COMPUTE),           # before the first commit
        kill(3, 2, FailPhase.BEFORE_BARRIER),           # before the first commit
        kill(2, 7, FailPhase.BEFORE_BARRIER),
        kill(1, 5, FailPhase.DURING_CHECKPOINT, 0),     # a peer writes to the victim
        kill(2, 10, FailPhase.DURING_CHECKPOINT, 1),    # ... which wrote its own
        kill(0, 10, FailPhase.DURING_CHECKPOINT, 2),    # right after a commit
        kill(0, 2, FailPhase.DURING_COMPUTE),           # the coordinator
    ], ids=["compute-2", "barrier-2", "barrier-7", "ckpt-5-0", "ckpt-10-1", "ckpt-10-2",
            "coordinator-compute-2"])
    def test_ledger_does_not_depend_on_the_schedule_seed(self, method, plan):
        """Survivors recover at different points of the schedule; none may eat
        another's next-generation records or wait on a peer that moved on."""
        runs = [run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT, plan=plan, seed=seed)
                for seed in range(8)]
        assert all(r.converged and r.recoveries == 1 and not r.reason for r in runs)
        assert all(r.vt_total == runs[0].vt_total for r in runs)
        assert all(r.ledger == runs[0].ledger for r in runs)
        assert all(r.recovery_events == runs[0].recovery_events for r in runs)
        for r in runs:
            assert r.centroids.centers.tobytes() == runs[0].centroids.centers.tobytes()
            assert np.array_equal(r.table.assign, SEQ_T.assign)
            if method is Method.CENTERS:
                assert np.array_equal(r.centroids.centers, SEQ_C.centers)


class TestBoundPruning:
    """Skipping rows changes no result and no tick: a run whose blocks are
    over the size rule, with a kill and a restore from a committed epoch,
    equals the same run with every block assigned whole."""

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_a_pruned_run_equals_the_plain_run(self, method, monkeypatch):
        data, _ = make_blobs(6000, 3, 8, 3.0, seed=4)
        kernel = kmeans.pairwise_sqdist

        def run():
            rows = []
            monkeypatch.setattr(kmeans, "pairwise_sqdist",
                                lambda points, centers: rows.append(len(points))
                                or kernel(points, centers))
            out = run_ft_kmeans(data, KmeansConfig(k=8), method, CheckpointPolicy(interval=3),
                                WorldLayout(active=2, spares=1),
                                plan=kill(1, 8, FailPhase.DURING_COMPUTE),
                                force_iters=14, record_trace=True)
            return out, sum(rows)

        pruned, pruned_rows = run()
        monkeypatch.setattr(kmeans, "BOUND_MIN_CELLS", 2**62)
        plain, plain_rows = run()
        assert pruned.recoveries == 1 and pruned.recovery_events[0]["resumed_iteration"] == 6
        assert pruned_rows < plain_rows / 2
        assert pruned.centroids.centers.tobytes() == plain.centroids.centers.tobytes()
        assert np.array_equal(pruned.table.assign, plain.table.assign)
        assert pruned.ledger == plain.ledger and pruned.vt_total == plain.vt_total
        assert pruned.trace == plain.trace
        assert pruned.recovery_events == plain.recovery_events
        assert pruned.captures == plain.captures


class TestCentersExchange:
    @pytest.mark.parametrize("iters", [1, 7])
    def test_one_message_per_ordered_pair_per_pass(self, monkeypatch, iters):
        """Each pass is one exchange per rank, which hands each peer its
        flag and records, and needs no reduce; the only send is the shutdown
        of the parked spare."""
        calls = {"exchange": 0, "send": 0, "reduce_all": 0}

        def counting(name):
            real = getattr(simcluster.RankContext, name)

            def op(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return op

        for name in calls:
            monkeypatch.setattr(simcluster.RankContext, name, counting(name))
        out = run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                            force_iters=iters)
        assert out.iterations == iters and out.recoveries == 0 and not out.reason
        assert calls == {"exchange": 4 * iters, "send": 1, "reduce_all": 0}

    # 1-D centers 0, 10, ..., 50 in blocks (0, 2), (2, 4), (4, 6); sample i < 6
    # sits on center i, sample 6 (value 1) is nearest center 0
    VALUES = np.array([[0.0], [10.0], [20.0], [30.0], [40.0], [50.0], [1.0]])
    CENTERS = VALUES[:6].copy()

    def _pass(self, holder: int, label: int):
        """Run one 3-rank pass with sample 6 held by `holder` as `label`;
        each rank's (returned flag, records it owns afterwards)."""
        owned = {p: [(i, i) for i in range(6) if i // 2 == p] for p in range(3)}
        owned[holder].append((6, label))
        group = Group((0, 1, 2))

        def prog(ctx):
            state = parallel.CentersPosition(self.VALUES, 6, 3, ctx.rank)
            state.ids, state.labels = np.array(owned[ctx.rank], dtype=np.int64).T
            changed = runtime._centers_pass(ctx, group, state, self.CENTERS, 1,
                                            lambda: None)
            return changed, state.entries()

        res = spawn_world(3).run({r: prog for r in range(3)})
        return [res[r].value for r in range(3)]

    @pytest.mark.parametrize("holder", [0, 1, 2])
    def test_one_changed_position_makes_every_rank_report_a_change(self, holder):
        results = self._pass(holder, 2 * holder + 1)
        assert [changed for changed, _ in results] == [True, True, True]
        records = np.concatenate([entries for _, entries in results])
        assert sorted(map(tuple, records.tolist())) == [(i, i) for i in range(6)] + [(6, 0)]
        assert 6 in results[0][1][:, 0]      # handed over to the owner of center 0

    def test_no_changed_position_makes_every_rank_report_none(self):
        results = self._pass(0, 0)
        assert [changed for changed, _ in results] == [False, False, False]


class TestSamplesExchange:
    """A samples pass makes one `("chg", t)` reduce, and a means step one
    reduce of its (k, d+1) partials."""

    @staticmethod
    def _reduce_tags(monkeypatch) -> list:
        tags = []
        real = simcluster.RankContext.reduce_all

        def counting(ctx, group, value, tag):
            tags.append(tag)
            return real(ctx, group, value, tag)

        monkeypatch.setattr(simcluster.RankContext, "reduce_all", counting)
        return tags

    @pytest.mark.parametrize("iters", [1, 7])
    def test_one_reduce_per_pass_and_per_means_step(self, monkeypatch, iters):
        tags = self._reduce_tags(monkeypatch)
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT,
                            force_iters=iters)
        assert out.iterations == iters < SEQ_IT        # every pass changes a label
        assert out.recoveries == 0 and not out.reason
        assert len(tags) == 4 * (iters + iters)
        assert sorted(tags) == sorted(4 * [(kind, t) for t in range(1, iters + 1)
                                           for kind in ("chg", "ms")])

    def test_a_recovery_replays_one_pass_and_one_means_reduce_per_member(
            self, monkeypatch):
        """The restored epoch holds iteration 5: every member of the new
        group runs pass 5 and its means step again, and a recovery makes no
        reduce of its own."""
        tags = self._reduce_tags(monkeypatch)
        out = run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT,
                            plan=kill(2, 7), force_iters=10)
        assert out.recoveries == 1 and not out.reason
        assert out.recovery_events[0]["resumed_iteration"] == 5
        assert tags.count(("chg", 5)) == tags.count(("ms", 5)) == 2 * LAYOUT.active
        assert all(tag[0] in ("chg", "ms") and len(tag) == 2 for tag in tags)


class TestKillPoints:
    @pytest.mark.parametrize("event", [
        FailureEvent(1, 2, FailPhase.DURING_CHECKPOINT, substep=3),
        FailureEvent(1, 2, FailPhase.DURING_COMPUTE, substep=-1),
        FailureEvent(1, 2, FailPhase.BEFORE_BARRIER, substep=1),
    ], ids=["ckpt-3", "compute-minus-1", "barrier-1"])
    def test_a_point_the_program_lacks_is_refused_before_the_world_spawns(
            self, monkeypatch, event):
        def spawn(*args, **kwargs):
            raise AssertionError("the world was spawned")
        monkeypatch.setattr(runtime, "spawn_world", spawn)
        with pytest.raises(ConfigError, match="no failure point"):
            run_ft_kmeans(DATA, CFG, Method.CENTERS, POLICY, LAYOUT,
                          plan=FailurePlan((event,)))


class TestSchedulerSwitches:
    @staticmethod
    def _count_switches(monkeypatch) -> list:
        switches = []
        switch = simcluster._DetScheduler.switch

        def counting(*args, **kwargs):
            switches.append(1)
            return switch(*args, **kwargs)

        monkeypatch.setattr(simcluster._DetScheduler, "switch", counting)
        return switches

    @pytest.mark.parametrize("seed", range(8))
    def test_wide_centers_run_gives_the_baton_up_rarely(self, monkeypatch, seed):
        """A deterministic proxy for thread cost: one center exchange is one
        wait, not one per position, and one exchange per rank carries a
        pass with no reduce (198 switches, as many as with one message per
        peer; 288 with end-of-batch markers and a reduce per pass, 779-949
        with one broadcast per position)."""
        switches = self._count_switches(monkeypatch)
        data, _ = make_blobs(800, 4, 8, 3.0, seed=1)
        out = run_ft_kmeans(data, KmeansConfig(k=16, max_iters=100), Method.CENTERS,
                            CheckpointPolicy(interval=5), WorldLayout(active=16, spares=1),
                            seed=seed, force_iters=5)
        assert out.iterations == 5 and not out.reason
        assert len(switches) <= 220

    @pytest.mark.parametrize("seed", range(8))
    def test_samples_run_gives_the_baton_up_rarely(self, monkeypatch, seed):
        """One reduce of the partials per means step, not one for the sums
        and one for the counts (239 switches; 341 with two)."""
        switches = self._count_switches(monkeypatch)
        data, _ = make_blobs(n=2000, d=4, blobs=5, spread=3.0, seed=1)
        out = run_ft_kmeans(data, KmeansConfig(k=8, max_iters=200, seed=1), Method.SAMPLES,
                            CheckpointPolicy(interval=5), WorldLayout(active=4, spares=1),
                            seed=seed)
        assert out.converged and not out.reason
        assert len(switches) <= 245


class TestLongRun:
    """Simulator state stays bounded as the iteration count grows."""

    @staticmethod
    def _world_after(monkeypatch, iters, plan, method=Method.SAMPLES):
        worlds = []

        def spawn(*args, **kwargs):
            worlds.append(spawn_world(*args, **kwargs))
            return worlds[-1]

        monkeypatch.setattr(runtime, "spawn_world", spawn)
        out = run_ft_kmeans(DATA, CFG, method, CheckpointPolicy(interval=1),
                            LAYOUT, plan=plan, force_iters=iters)
        assert out.iterations == iters and out.epochs_committed >= iters - 2
        return worlds[0]

    @pytest.mark.parametrize("plan", [None, kill(2, 7)], ids=["failure-free", "one-kill"])
    def test_delivered_transfers_and_finished_slots_are_dropped(self, monkeypatch, plan):
        short = self._world_after(monkeypatch, 60, plan)
        long = self._world_after(monkeypatch, 120, plan)
        # every checkpoint transfer was waited on, so none is still held
        assert short._pending == [] and long._pending == []
        # every message was received or dropped with its generation
        assert not any(queue for row in long._channels for queue in row)
        # only slots a dead member never left may stay, however long the run
        assert len(short._collectives) == len(long._collectives)
        assert len(long._collectives) == (0 if plan is None else 1)

    def test_records_of_an_abandoned_pass_are_dropped(self, monkeypatch):
        """Survivors deposit the failing pass's records for the dead peer
        too and leave the exchange when they reach it; only that pass's
        slot, which the dead peer never left, may stay, however long the
        run, and no record may stay queued."""
        plan = kill(1, 7, FailPhase.DURING_COMPUTE)
        short = self._world_after(monkeypatch, 20, plan, Method.CENTERS)
        long = self._world_after(monkeypatch, 40, plan, Method.CENTERS)
        assert len(short._collectives) == len(long._collectives) <= 1
        assert not any(queue for row in long._channels for queue in row)


class TestInvariants:
    def test_broken_count_conservation_is_not_a_config_error(self, monkeypatch):
        real = parallel.samples_partials

        def overcounting(values_block, assign, k):
            partials = real(values_block, assign, k)
            partials[0, -1] += 1      # the count column
            return partials

        monkeypatch.setattr(parallel, "samples_partials", overcounting)
        with pytest.raises(InvariantError, match="count conservation"):
            run_ft_kmeans(DATA, CFG, Method.SAMPLES, POLICY, LAYOUT)
        assert not issubclass(InvariantError, ConfigError)


# -- any single kill ------------------------------------------------------------

PROP_DATA, _ = make_blobs(300, 3, 4, 2.0, seed=5)
PROP_CFG = KmeansConfig(k=5)
PROP_FORCE = 8


@functools.cache
def _failure_free_twin(method, active, spares):
    twin = run_ft_kmeans(PROP_DATA, PROP_CFG, method, CheckpointPolicy(interval=1),
                         WorldLayout(active=active, spares=spares),
                         force_iters=PROP_FORCE)
    plain = run_parallel(PROP_DATA, PROP_CFG, active, method, force_iters=PROP_FORCE)
    assert twin.centroids.centers.tobytes() == plain.centroids.centers.tobytes()
    return twin


@st.composite
def single_kills(draw):
    active, spares = draw(st.sampled_from(((3, 1), (4, 2))))
    return (draw(st.sampled_from(Method)), (active, spares),
            draw(st.integers(1, 3)), draw(st.integers(0, 4)),
            draw(st.integers(0, active - 1)), draw(st.integers(1, PROP_FORCE)),
            draw(st.sampled_from(KILL_POINTS)))


class TestAnySingleKill:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=single_kills())
    @example(case=(Method.SAMPLES, (4, 2), 3, 0, 2, PROP_FORCE,
                   (FailPhase.DURING_CHECKPOINT, 0)))
    # the end-of-run barrier commits the capture at PROP_FORCE: no substep 2
    @example(case=(Method.CENTERS, (3, 1), 2, 0, 1, PROP_FORCE,
                   (FailPhase.DURING_CHECKPOINT, 2)))
    def test_ends_with_the_failure_free_values(self, case):
        """One kill at any failure point, the last iteration included, ends
        with the failure-free values, bitwise for both methods."""
        method, (active, spares), interval, seed, rank, it, (phase, substep) = case
        out = run_ft_kmeans(PROP_DATA, PROP_CFG, method,
                            CheckpointPolicy(interval=interval),
                            WorldLayout(active=active, spares=spares),
                            plan=kill(rank, it, phase, substep), seed=seed,
                            force_iters=PROP_FORCE)
        twin = _failure_free_twin(method, active, spares)
        # checkpoint substeps 1 and 2 exist only in iterations that checkpoint,
        # and substep 2 follows a commit, which the last iteration's capture
        # gets only from the end-of-run barrier, the last step of a run
        reached = (substep == 0 or it % interval == 0) and \
            not (substep == 2 and it == PROP_FORCE)
        assert out.reason == "" and out.iterations == PROP_FORCE
        assert out.converged == twin.converged
        assert out.recoveries == int(reached)
        assert len(out.unfired) == int(not reached)
        assert out.centroids.centers.tobytes() == twin.centroids.centers.tobytes()
        assert np.array_equal(out.table.assign, twin.table.assign)


class TestCommitRule:
    def test_an_exchange_commits_only_landed_epochs(self, monkeypatch):
        """Each member waits for its own mirror transfer before it enters an
        exchange, so whenever an exchange commits an epoch, every member's
        copy of it has landed.  Swept over both methods, intervals 1 and 5,
        every active rank, the iteration of each checkpoint and the next,
        and every failure point; the schedule seed cycles through 0-3.  A
        recovery commits nothing itself: the capture of the replayed
        iteration is committed by the next pass, or the end-of-run barrier,
        of the new generation, the same way."""
        tokens = {}        # (generation, epoch) -> {rank: its transfer token}
        confirms, unlanded = [], []
        restoring, restore_confirms = set(), []
        real_start, real_confirm = Checkpointer.start, Checkpointer.confirm
        real_restore = runtime._ActiveDriver._restore

        def restore(driver):
            restoring.add(driver.ctx.rank)
            try:
                return real_restore(driver)
            finally:
                restoring.discard(driver.ctx.rank)

        def start(cp, iteration, entries):
            epoch = real_start(cp, iteration, entries)
            tokens.setdefault((cp.group.generation, epoch), {})[cp.ctx.rank] = \
                cp._started[1]
            return epoch

        def confirm(cp):
            if cp._started is not None:
                key = (cp.group.generation, cp._started[0])
                confirms.append(key)
                if cp.ctx.rank in restoring:
                    restore_confirms.append(key)
                landed = tokens[key]
                unlanded.extend((key, m) for m in cp.group.members if m not in landed
                                or landed[m].state is not simcluster.TokenState.DELIVERED)
            return real_confirm(cp)

        monkeypatch.setattr(Checkpointer, "start", start)
        monkeypatch.setattr(Checkpointer, "confirm", confirm)
        monkeypatch.setattr(runtime._ActiveDriver, "_restore", restore)
        force, runs = 6, 0
        for method in Method:
            for interval in (1, 5):
                iters = sorted({i for t in range(interval, force + 1, interval)
                                for i in (t, t + 1) if i <= force})
                for rank in range(3):
                    for it in iters:
                        for phase, substep in KILL_POINTS:
                            out = run_ft_kmeans(
                                PROP_DATA, PROP_CFG, method, CheckpointPolicy(interval),
                                WorldLayout(active=3, spares=1), seed=runs % 4,
                                plan=kill(rank, it, phase, substep), force_iters=force)
                            assert out.reason == "" and out.iterations == force
                            runs += 1
        assert runs == 2 * 3 * 5 * (6 + 2)
        assert len(confirms) > runs and unlanded == []
        assert restore_confirms == []
        assert any(gen >= 1 for gen, _ in confirms)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_a_kill_before_the_next_exchange_restores_the_previous_epoch(self, method):
        """The epoch captured at 10 commits when pass 11's exchange completes:
        a kill in pass 11's compute restores epoch 1 (iteration 5), a kill
        after that exchange restores epoch 2 (iteration 10), and both end
        with the same values."""
        before = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                               plan=kill(1, 11, FailPhase.DURING_COMPUTE))
        after = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                              plan=kill(1, 11, FailPhase.BEFORE_BARRIER))
        for out, epoch, resumed in ((before, 1, 5), (after, 2, 10)):
            assert out.converged and out.recoveries == 1
            ev = out.recovery_events[0]
            assert (ev["epoch"], ev["resumed_iteration"]) == (epoch, resumed)
        assert before.centroids.centers.tobytes() == after.centroids.centers.tobytes()
        assert np.array_equal(before.table.assign, after.table.assign)

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_reprotection_reuses_the_number_of_a_superseded_epoch(self, method):
        """Epoch 3, started at 6, never commits: the recovery restores epoch
        2 (iteration 4), and the replayed iteration 4 starts epoch 3 again,
        which pass 5 commits."""
        out = run_ft_kmeans(PROP_DATA, PROP_CFG, method, CheckpointPolicy(interval=2),
                            LAYOUT, plan=kill(1, 6, FailPhase.DURING_CHECKPOINT, 1),
                            force_iters=9)
        assert out.reason == "" and out.recoveries == 1
        assert [(e, it) for e, it, _ in out.captures[0]] == \
            [(1, 2), (2, 4), (3, 6), (3, 4), (4, 6), (5, 8)]
        ev = out.recovery_events[0]
        assert (ev["epoch"], ev["resumed_iteration"]) == (2, 4)
        assert out.epochs_committed == 5

    @pytest.mark.parametrize("method", [Method.CENTERS, Method.SAMPLES])
    def test_rollback_reaches_but_never_exceeds_the_interval(self, method):
        """The longer window costs no bound: over every failure point around
        two checkpoints, a rollback replays at most one interval, and a kill
        in the compute right after a checkpoint replays exactly one."""
        spans = {}
        for it in (4, 5, 6, 9, 10, 11):
            for phase, substep in KILL_POINTS:
                event = FailureEvent(1, it, phase, substep)
                out = run_ft_kmeans(DATA, CFG, method, POLICY, LAYOUT,
                                    plan=FailurePlan((event,)))
                # substeps 1 and 2 exist only at a checkpoint iteration
                if phase is FailPhase.DURING_CHECKPOINT and substep and it % 5:
                    assert out.unfired == (event,) and out.recoveries == 0
                    continue
                assert out.converged and out.recoveries == 1
                ev = out.recovery_events[0]
                spans[it, phase, substep] = (ev["completed_iteration"]
                                             - ev["resumed_iteration"])
        assert 0 <= min(spans.values())
        assert max(spans.values()) == POLICY.interval
        assert spans[11, FailPhase.DURING_COMPUTE, 0] == POLICY.interval
