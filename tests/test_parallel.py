"""Decomposition passes vs the sequential oracle."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmft import kmeans
from kmft.errors import ConfigError
from kmft.kmeans import (
    Dataset,
    KmeansConfig,
    NearestBound,
    assign_labels,
    center_means,
    initial_assignment,
    init_centroids,
    lloyd_step,
    run_sequential,
)
from kmft.parallel import (
    CentersPass,
    CentersPosition,
    Method,
    SamplesPosition,
    centers_compute,
    centers_recompute,
    make_records,
    partition,
    run_parallel,
    samples_compute,
    samples_partials,
)


def random_dataset(seed, n=60, d=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)) * 5.0)


@pytest.fixture
def bounded(monkeypatch):
    """`assign_bounded` with its size rule off, so that these small blocks
    take the bounded path."""
    monkeypatch.setattr(kmeans, "BOUND_MIN_CELLS", 0)


@pytest.fixture
def rows_assigned(monkeypatch):
    """Rows that go through the distance kernel, counted per call."""
    calls = []
    kernel = kmeans.pairwise_sqdist

    def counted(points, centers):
        calls.append(len(points))
        return kernel(points, centers)

    monkeypatch.setattr(kmeans, "pairwise_sqdist", counted)
    return calls


NO_RECORDS = make_records([], [])


def kept_records(out):
    """A pass's kept rows as the (m, 2) records they would travel as."""
    return make_records(out.kept_ids, out.kept_labels)


def sequential_trace(data, cfg):
    """Independent per-iteration record of the plain algorithm."""
    centroids = init_centroids(data, cfg.k)
    table = initial_assignment(data.n, cfg.k)
    steps = []
    for _ in range(cfg.max_iters):
        centroids, table = lloyd_step(data, centroids, table)
        steps.append((centroids.centers.copy(), table.assign.copy()))
        if not table.changed:
            break
    return steps


class TestPartition:
    def test_ten_into_four(self):
        assert partition(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_remainder_goes_to_leading_blocks(self):
        sizes = [hi - lo for lo, hi in partition(11, 3)]
        assert sizes == [4, 4, 3]

    def test_more_parts_than_items(self):
        assert partition(3, 8) == [(0, 1), (1, 2), (2, 3)] + [(3, 3)] * 5

    def test_zero_items(self):
        assert partition(0, 3) == [(0, 0)] * 3

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            partition(5, 0)
        with pytest.raises(ConfigError):
            partition(-1, 2)

    @given(total=st.integers(0, 200), parts=st.integers(1, 40))
    def test_blocks_tile_the_range(self, total, parts):
        blocks = partition(total, parts)
        assert len(blocks) == parts
        assert blocks[0][0] == 0 and blocks[-1][1] == total
        for (a, b), (c, _) in zip(blocks, blocks[1:]):
            assert b == c and b >= a
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes

    def test_records_routed_to_the_block_owner(self):
        """Centers 0..9 over blocks (0,3) (3,6) (6,8) (8,10), with empty
        blocks at positions 1 and 4 that must never receive a record."""
        blocks = [(0, 3), (3, 3), (3, 6), (6, 8), (8, 8), (8, 10)]
        ends = np.array([hi for _, hi in blocks])
        values = np.arange(10, dtype=np.float64)[:, None]
        centers = np.arange(10, dtype=np.float64)[:, None]
        ids = np.arange(10, dtype=np.int64)
        out = centers_compute(values, centers, ids, np.zeros(10, dtype=np.int64), ends, 0)
        assert kept_records(out).tolist() == [[0, 0], [1, 1], [2, 2]]
        assert {dst: recs.tolist() for dst, recs in out.outgoing.items()} == {
            2: [[3, 3], [4, 4], [5, 5]], 3: [[6, 6], [7, 7]], 5: [[8, 8], [9, 9]]}


class TestOwnershipRecords:
    def test_record_is_sixteen_bytes(self):
        assert make_records([7], [3]).nbytes == 16

    def test_little_endian_layout(self):
        buf = make_records([1], [2]).tobytes()
        assert buf == b"\x01" + b"\x00" * 7 + b"\x02" + b"\x00" * 7


class TestCentersPass:
    def test_hand_trace_first_pass(self):
        values = np.array([[0.0], [1.0], [9.0], [10.0]])
        centers = np.array([[0.0], [9.0]])
        ends = np.array([1, 2])
        out = centers_compute(values, centers, np.arange(4), np.zeros(4, dtype=np.int64),
                              ends, 0)
        assert out.changed is True
        assert kept_records(out).tolist() == [[0, 0], [1, 0]]
        assert {dst: recs.tolist() for dst, recs in out.outgoing.items()} == \
            {1: [[2, 1], [3, 1]]}

    def test_no_samples_no_change(self):
        values = np.zeros((2, 1))
        centers = np.zeros((1, 1))
        empty = np.zeros(0, dtype=np.int64)
        out = centers_compute(values, centers, empty, empty, np.array([1, 1]), 1)
        assert out.changed is False and kept_records(out).tolist() == [] and out.outgoing == {}

    def test_move_within_own_block_still_counts_as_change(self):
        values = np.array([[5.0]])
        centers = np.array([[0.0], [5.0]])
        out = centers_compute(values, centers, np.array([0]), np.array([0]),
                              np.array([2]), 0)
        assert out.changed is True
        assert kept_records(out).tolist() == [[0, 1]]
        assert out.outgoing == {}

    @staticmethod
    def _mask_per_destination(values, centers, ids, labels, block_ends, my_pos):
        """The routing as one boolean mask and one record array per
        destination: the reference the one-sort routing must equal."""
        new = assign_labels(values[ids], centers)
        dest = np.searchsorted(block_ends, new, side="right")
        outgoing = {}
        for pos in np.unique(dest):
            if pos != my_pos:
                go = dest == pos
                outgoing[int(pos)] = make_records(ids[go], new[go])
        stay = dest == my_pos
        return SimpleNamespace(changed=not np.array_equal(new, labels), kept_ids=ids[stay],
                               kept_labels=new[stay], outgoing=outgoing)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(k=st.integers(1, 8), procs=st.integers(1, 11), n=st.integers(1, 80),
           pick=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
    @example(k=2, procs=4, n=30, pick=3, seed=1)      # position 3's block is empty
    @example(k=8, procs=11, n=80, pick=9, seed=2)     # procs > k, several empty blocks
    @example(k=1, procs=1, n=1, pick=0, seed=3)
    @example(k=1, procs=3, n=80, pick=0, seed=4)      # no row moves, no label changes
    @example(k=8, procs=1, n=80, pick=0, seed=5)      # no row moves, labels change
    @example(k=4, procs=8, n=80, pick=6, seed=6)      # every row moves, to four positions
    def test_routing_matches_a_mask_per_destination(self, k, procs, n, pick, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(120, 3))
        centers = rng.normal(size=(k, 3))
        ids = np.sort(rng.choice(len(values), size=n, replace=False)).astype(np.int64)
        labels = rng.integers(0, k, size=n).astype(np.int64)
        block_ends = np.array([hi for _, hi in partition(k, procs)], dtype=np.int64)
        my_pos = pick % procs
        args = (values, centers, ids, labels, block_ends, my_pos)
        out = centers_compute(*args)
        ref = self._mask_per_destination(*args)
        assert out.changed == ref.changed
        assert out.kept_ids.dtype == out.kept_labels.dtype == np.int64
        assert kept_records(out).shape == kept_records(ref).shape
        assert kept_records(out).tobytes() == kept_records(ref).tobytes()
        assert len(out.ends) == procs and out.ends[-1] == len(out.records)
        assert list(out.outgoing) == list(ref.outgoing)
        for pos, recs in ref.outgoing.items():
            assert out.outgoing[pos].shape == recs.shape
            assert out.outgoing[pos].tobytes() == recs.tobytes()
            assert np.all(np.diff(recs[:, 0].astype(np.int64)) > 0)
        if partition(k, procs)[my_pos][0] == partition(k, procs)[my_pos][1]:
            assert len(out.kept_ids) == 0      # an empty block keeps nothing

    @pytest.mark.parametrize("with_bound", [True, False])
    def test_absorb_merges_batches_in_id_order(self, with_bound):
        """Arrivals start stale: their gap is 0 beside the kept rows' gaps.
        A pass under the size rule kept no bound, and the position has none."""
        state = CentersPosition(np.zeros((5, 1)), k=2, procs=2, position=1)
        ref = np.array([[0.0], [1.0]])
        kept = CentersPass(changed=False, kept_ids=np.array([1, 2]),
                           kept_labels=np.array([0, 1]), records=NO_RECORDS, ends=[0, 0],
                           bound=NearestBound(np.array([0.5, 0.25]), ref)
                           if with_bound else None)
        state.absorb(kept, [make_records([4], [1]), make_records([0, 3], [1, 0])])
        assert state.ids.tolist() == [0, 1, 2, 3, 4]
        assert state.labels.tolist() == [1, 0, 1, 0, 1]
        assert state.entries().tolist() == [[0, 1], [1, 0], [2, 1], [3, 0], [4, 1]]
        if with_bound:
            assert state.bound.gap.tolist() == [0.0, 0.5, 0.25, 0.0, 0.0]
            assert state.bound.ref is ref
        else:
            assert state.bound is None

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(kept=st.integers(0, 40), sizes=st.lists(st.integers(0, 20), max_size=3),
           with_bound=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_absorb_matches_a_sort_of_the_concatenation(self, kept, sizes, with_bound,
                                                        seed):
        """Kept ids and each batch are disjoint ascending runs; the merge
        must equal one sort of them all, arrivals at gap 0."""
        rng = np.random.default_rng(seed)
        ids = rng.permutation(200)[:kept + sum(sizes)]
        runs = np.split(ids, np.cumsum([kept, *sizes])[:-1])
        runs = [np.sort(run) for run in runs]
        labels = [rng.integers(0, 6, size=len(run)) for run in runs]
        ref = np.ones((6, 2))
        gap = rng.random(kept)
        out = CentersPass(changed=True, kept_ids=runs[0], kept_labels=labels[0],
                          records=NO_RECORDS, ends=[0, 0],
                          bound=NearestBound(gap.copy(), ref) if with_bound else None)
        state = CentersPosition(np.zeros((200, 2)), k=6, procs=2, position=1)
        state.absorb(out, [make_records(run, lab) for run, lab in zip(runs[1:], labels[1:])])

        order = np.argsort(np.concatenate(runs), kind="stable")
        assert state.ids.dtype == state.labels.dtype == np.int64
        assert np.all(np.diff(state.ids) > 0)
        assert np.array_equal(state.ids, np.concatenate(runs)[order])
        assert np.array_equal(state.labels, np.concatenate(labels)[order])
        if with_bound:
            want = np.concatenate([gap, np.zeros(len(ids) - kept)])[order]
            assert np.array_equal(state.bound.gap, want) and state.bound.ref is ref
        else:
            assert state.bound is None
        if not sizes:                   # nothing arrived: the kept rows as they were
            assert np.array_equal(state.ids, runs[0])
            assert np.array_equal(state.labels, labels[0])
            if with_bound:
                assert np.array_equal(state.bound.gap, gap)

    def test_a_pass_on_the_same_centers_computes_only_arrivals(self, bounded,
                                                               rows_assigned):
        data = random_dataset(21, n=90)
        centers = init_centroids(data, 4).centers
        states = [CentersPosition(data.values, k=4, procs=2, position=p) for p in (0, 1)]
        passes = [s.compute(centers) for s in states]
        arrived = []
        for p, state in enumerate(states):
            batches = [passes[1 - p].outgoing[p]] if p in passes[1 - p].outgoing else []
            arrived.append(sum(len(b) for b in batches))
            state.absorb(passes[p], batches)
        # position 0 kept its rows' bounds; every row of position 1 arrived
        assert arrived == [0, states[1].load] and states[0].load > 0
        want = assign_labels(data.values, centers)
        for state, rows in zip(states, arrived):
            rows_assigned.clear()
            out = state.compute(centers.copy())
            assert sum(rows_assigned) == rows
            assert out.changed is False and out.outgoing == {}
            assert np.array_equal(state.labels, want[state.ids])

    def test_recompute_means_and_keep_empty(self):
        values = np.array([[0.0], [1.0], [9.0], [10.0]])
        prev = np.array([[0.0], [9.0], [77.0]])
        rows = centers_recompute(values, np.array([0, 1]), np.array([0, 0]), prev, (0, 3))
        assert np.array_equal(rows, np.array([[0.5], [9.0], [77.0]]))

    def test_recompute_empty_block(self):
        values = np.zeros((1, 2))
        prev = np.ones((3, 2))
        empty = np.zeros(0, dtype=np.int64)
        rows = centers_recompute(values, empty, empty, prev, (2, 2))
        assert rows.shape == (0, 2)

    def test_recompute_matches_sequential_grouping_bitwise(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        prev = rng.normal(size=(4, 3))
        got = centers_recompute(values, np.arange(40), labels, prev, (0, 4))
        for ctr in range(4):
            rows = np.flatnonzero(labels == ctr)
            expect = np.sum(values[rows], axis=0) / rows.size if rows.size else prev[ctr]
            assert np.array_equal(got[ctr], expect)


@pytest.mark.usefixtures("bounded")
class TestSamplesPass:
    def test_compute_hand_trace(self):
        values = np.array([[0.0], [1.0], [9.0], [10.0]])
        centers = np.array([[0.0], [9.0]])
        new, changed, bound = samples_compute(values, centers,
                                              np.zeros(4, dtype=np.int64), None)
        assert np.array_equal(new, [0, 0, 1, 1])
        assert changed is True
        assert np.array_equal(bound.ref, centers)

    def test_compute_empty_block(self):
        new, changed, bound = samples_compute(np.zeros((0, 2)), np.zeros((1, 2)),
                                              np.zeros(0, dtype=np.int64), None)
        assert new.shape == (0,) and changed is False and bound.gap.shape == (0,)

    def _position(self):
        data = random_dataset(21, n=90)
        state = SamplesPosition(data.values, k=4, procs=2, position=1)
        return data, state, init_centroids(data, 4).centers

    def test_a_pass_on_the_same_centers_computes_no_distance(self, rows_assigned):
        _, state, centers = self._position()
        state.compute(centers)
        assert sum(rows_assigned) == state.load == 45
        rows_assigned.clear()
        assert state.compute(centers.copy()) is False
        assert rows_assigned == []
        assert np.array_equal(state.labels, assign_labels(state._block(), centers))

    def test_after_reset_the_next_pass_computes_the_block(self, rows_assigned):
        """A reset drops the bound, so the next pass assigns the whole block."""
        _, state, centers = self._position()
        state.compute(centers)
        moved = centers + 1e-3          # a drift that bounds alone would skip
        state.reset(1)
        rows_assigned.clear()
        state.compute(moved)
        assert sum(rows_assigned) == state.load
        assert np.array_equal(state.labels, assign_labels(state._block(), moved))

    def test_partials(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 10.0]])
        assign = np.array([0, 0, 2], dtype=np.int64)
        partials = samples_partials(values, assign, 3)
        assert partials.shape == (3, 3) and partials.dtype == np.float64
        sums, counts = partials[:, :-1], partials[:, -1]
        assert np.array_equal(sums, [[4.0, 6.0], [0.0, 0.0], [10.0, 10.0]])
        assert np.array_equal(counts, [2, 0, 1])
        assert np.array_equal(counts, np.bincount(assign, minlength=3))

    def test_divide_keeps_empty_centers(self):
        sums = np.array([[4.0], [0.0]])
        counts = np.array([2, 0])
        prev = np.array([[9.0], [5.0]])
        assert np.array_equal(center_means(sums, counts, prev), [[2.0], [5.0]])


class TestRunParallelCenters:
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 8])
    def test_bitwise_match_with_sequential(self, procs):
        data = random_dataset(procs, n=80, d=3)
        cfg = KmeansConfig(k=6, max_iters=100)
        seq_c, seq_t, seq_it = run_sequential(data, cfg)
        res = run_parallel(data, cfg, procs, Method.CENTERS)
        assert res.converged
        assert res.iterations == seq_it
        assert np.array_equal(res.centroids.centers, seq_c.centers)
        assert np.array_equal(res.table.assign, seq_t.assign)
        assert np.array_equal(res.table.counts, seq_t.counts)

    def test_single_center_matches_oracle(self):
        """k=1 converges on the first pass; the mean must still be taken."""
        data = random_dataset(0, n=34, d=2)
        cfg = KmeansConfig(k=1)
        seq_c, seq_t, seq_it = run_sequential(data, cfg)
        for procs in (1, 2, 4):
            res = run_parallel(data, cfg, procs, Method.CENTERS)
            assert res.iterations == seq_it == 1
            assert np.array_equal(res.centroids.centers, seq_c.centers)
        res2 = run_parallel(data, cfg, 3, Method.SAMPLES)
        assert np.allclose(res2.centroids.centers, seq_c.centers, rtol=0.0, atol=1e-9)
        assert np.array_equal(res2.table.assign, seq_t.assign)

    def test_transfers_stop_at_convergence(self):
        data = random_dataset(42, n=100, d=2)
        res = run_parallel(data, KmeansConfig(k=5), 4, Method.CENTERS)
        assert res.transfers[-1] == 0
        assert all(t >= 0 for t in res.transfers)
        assert len(res.transfers) == res.iterations

    def test_counts_sum_to_n(self):
        data = random_dataset(7, n=55, d=2)
        res = run_parallel(data, KmeansConfig(k=4), 3, Method.CENTERS)
        assert int(res.table.counts.sum()) == data.n

    def test_more_procs_than_centers(self):
        data = random_dataset(9, n=30, d=2)
        cfg = KmeansConfig(k=2)
        seq_c, seq_t, _ = run_sequential(data, cfg)
        res = run_parallel(data, cfg, 6, Method.CENTERS)
        assert np.array_equal(res.centroids.centers, seq_c.centers)
        assert np.array_equal(res.table.assign, seq_t.assign)

    def test_history_records_every_iteration(self):
        data = random_dataset(3, n=40, d=2)
        res = run_parallel(data, KmeansConfig(k=3), 2, Method.CENTERS,
                           record_history=True)
        assert [h.iteration for h in res.history] == list(range(1, res.iterations + 1))

    def test_forced_iterations_hold_the_fixed_point(self):
        data = random_dataset(11, n=30, d=2)
        cfg = KmeansConfig(k=3)
        free = run_parallel(data, cfg, 2, Method.CENTERS)
        forced = run_parallel(data, cfg, 2, Method.CENTERS, force_iters=free.iterations + 10)
        assert forced.iterations == free.iterations + 10
        assert forced.converged
        assert np.array_equal(forced.centroids.centers, free.centroids.centers)
        assert np.array_equal(forced.table.assign, free.table.assign)


class TestRunParallelSamples:
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 8])
    def test_assignments_match_sequential_every_iteration(self, procs):
        data = random_dataset(100 + procs, n=80, d=3)
        cfg = KmeansConfig(k=6, max_iters=100)
        steps = sequential_trace(data, cfg)
        res = run_parallel(data, cfg, procs, Method.SAMPLES, record_history=True)
        assert res.iterations == len(steps)
        for rec, (seq_centers, seq_assign) in zip(res.history, steps):
            assert np.array_equal(rec.assign, seq_assign)
            assert np.allclose(rec.centers, seq_centers, rtol=0.0, atol=1e-9)

    def test_final_state_close_to_sequential(self):
        data = random_dataset(55, n=120, d=4)
        cfg = KmeansConfig(k=8, max_iters=100)
        seq_c, seq_t, seq_it = run_sequential(data, cfg)
        res = run_parallel(data, cfg, 4, Method.SAMPLES)
        assert res.converged
        assert res.iterations == seq_it
        assert np.array_equal(res.table.assign, seq_t.assign)
        assert np.allclose(res.centroids.centers, seq_c.centers, rtol=0.0, atol=1e-9)

    def test_single_proc_is_bitwise_sequential(self):
        data = random_dataset(8, n=50, d=2)
        cfg = KmeansConfig(k=4)
        seq_c, seq_t, _ = run_sequential(data, cfg)
        res = run_parallel(data, cfg, 1, Method.SAMPLES)
        assert np.array_equal(res.centroids.centers, seq_c.centers)
        assert np.array_equal(res.table.assign, seq_t.assign)

    def test_more_procs_than_samples(self):
        data = random_dataset(21, n=6, d=2)
        cfg = KmeansConfig(k=3)
        seq_c, seq_t, _ = run_sequential(data, cfg)
        res = run_parallel(data, cfg, 10, Method.SAMPLES)
        assert np.array_equal(res.table.assign, seq_t.assign)
        assert np.allclose(res.centroids.centers, seq_c.centers, rtol=0.0, atol=1e-9)

    def test_force_iters_without_convergence_flag(self):
        data = random_dataset(2, n=40, d=2)
        res = run_parallel(data, KmeansConfig(k=3), 2, Method.SAMPLES, force_iters=2)
        # two passes are rarely enough to converge on this data
        assert res.iterations == 2

    @pytest.mark.parametrize("iters", [0, -2])
    def test_non_positive_force_iters_rejected(self, iters):
        data = random_dataset(2, n=40, d=2)
        with pytest.raises(ConfigError, match="force_iters"):
            run_parallel(data, KmeansConfig(k=3), 2, Method.SAMPLES, force_iters=iters)


class TestRandomizedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), procs=st.integers(1, 6),
           k=st.integers(1, 8))
    def test_centers_always_bitwise(self, seed, procs, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 40))
        grid = rng.integers(-8, 8, size=(n, 2)).astype(np.float64)
        # need k distinct rows for seeding
        if len(np.unique(grid, axis=0)) < k:
            grid = grid + rng.normal(size=grid.shape) * 0.01
        data = Dataset(grid)
        cfg = KmeansConfig(k=k, max_iters=60)
        seq_c, seq_t, seq_it = run_sequential(data, cfg)
        res = run_parallel(data, cfg, procs, Method.CENTERS)
        assert res.iterations == seq_it
        assert np.array_equal(res.centroids.centers, seq_c.centers)
        assert np.array_equal(res.table.assign, seq_t.assign)
