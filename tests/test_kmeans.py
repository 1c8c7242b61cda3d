"""Sequential K-means against brute-force oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmft import kmeans
from kmft.datasets import make_blobs
from kmft.errors import ConfigError, InitError
from kmft.kmeans import (
    AssignmentTable,
    CentroidSet,
    Dataset,
    KmeansConfig,
    assign_labels,
    center_sums,
    init_centroids,
    initial_assignment,
    lloyd_step,
    objective,
    pairwise_sqdist,
    run_sequential,
    squared_distance,
)
from kmft.simcluster import spawn_world


# Brute-force oracles, written independently of the library kernels on
# purpose: plain python loops, left-fold accumulation.

def naive_sqdist(a, b):
    total = 0.0
    for x, y in zip(a, b):
        diff = float(x) - float(y)
        total += diff * diff
    return total


def naive_nearest(x, centers):
    best, best_d = 0, naive_sqdist(x, centers[0])
    for c in range(1, len(centers)):
        d = naive_sqdist(x, centers[c])
        if d < best_d:
            best, best_d = c, d
    return best


def naive_objective(values, centers, assign):
    total = 0.0
    for i in range(len(values)):
        total += naive_sqdist(values[i], centers[assign[i]])
    return total


def naive_center_sums(values, rows, labels, centers):
    """Ascending left fold from 0.0 per center and coordinate."""
    sums = [[0.0] * values.shape[1] for _ in centers]
    counts = [0] * len(centers)
    for r, c in zip(rows.tolist(), labels.tolist()):
        if c in centers:
            i = centers.index(c)
            counts[i] += 1
            for j in range(values.shape[1]):
                sums[i][j] += float(values[r, j])
    return np.array(sums, dtype=np.float64).reshape(len(centers), -1), counts


class TestSquaredDistance:
    def test_zero_vector(self):
        assert squared_distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_small_exact(self):
        assert squared_distance([1.0, 2.0], [4.0, 6.0]) == 25.0

    def test_matches_naive_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert squared_distance(a, b) == naive_sqdist(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            squared_distance([1.0], [1.0, 2.0])


class TestPairwiseKernel:
    def test_entries_match_scalar_distance_bitwise(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 8))
        ctr = rng.normal(size=(5, 8))
        mat = pairwise_sqdist(pts, ctr)
        for i in range(20):
            for c in range(5):
                assert mat[i, c] == squared_distance(pts[i], ctr[c])

    def test_row_slicing_does_not_change_values(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 6))
        ctr = rng.normal(size=(4, 6))
        full = pairwise_sqdist(pts, ctr)
        part = pairwise_sqdist(pts[10:20], ctr)
        assert np.array_equal(full[10:20], part)

    @pytest.mark.parametrize("k,m", [(1, 40), (6, 50), (5, 0),
                                     (16, 2 * (kmeans.ASSIGN_BLOCK_CELLS // 16) + 5)],
                             ids=["k=1", "duplicate centers", "zero rows",
                                  "ragged blocks"])
    def test_edge_shapes_match_scalar_distance_bitwise(self, k, m):
        rng = np.random.default_rng(8)
        pts = np.round(rng.normal(size=(m, 3)), 1)
        ctr = np.round(rng.normal(size=(k, 3)), 1)
        ctr[-1] = ctr[0]                                 # a duplicate when k > 1
        pts[:10] = ctr[0]                                # exact ties at distance 0
        rows = kmeans.ASSIGN_BLOCK_CELLS // k            # the slices assign_labels makes
        for lo in range(0, max(m, 1), rows):
            block = pts[lo:lo + rows]
            want = np.array([[squared_distance(p, c) for c in ctr] for p in block])
            got = pairwise_sqdist(block, ctr)
            assert got.shape == (len(block), k)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        labels = assign_labels(pts, ctr)
        assert np.array_equal(labels, [naive_nearest(p, ctr) for p in pts])

    @pytest.mark.parametrize("cells", [1, 7, 24, 10**6])
    def test_row_blocked_labels_match_one_block(self, monkeypatch, cells):
        rng = np.random.default_rng(6)
        pts = np.round(rng.normal(size=(50, 3)), 1)      # coarse grid: ties occur
        ctr = np.round(rng.normal(size=(6, 3)), 1)
        ctr[5] = ctr[2]                                  # an exact duplicate center
        whole = np.argmin(pairwise_sqdist(pts, ctr), axis=1)
        monkeypatch.setattr(kmeans, "ASSIGN_BLOCK_CELLS", cells)
        labels = assign_labels(pts, ctr)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, whole)
        assert not np.any(labels == 5)


CALLER_BUFSIZE = 4096           # neither numpy's default nor the loop's


@pytest.fixture
def caller_bufsize():
    old = np.setbufsize(CALLER_BUFSIZE)
    yield CALLER_BUFSIZE
    np.setbufsize(old)


class TestUfuncBuffer:
    """`assign_labels` shrinks numpy's ufunc buffer for its loop only."""

    def test_restored_after_return(self, caller_bufsize):
        rng = np.random.default_rng(70)
        assign_labels(rng.normal(size=(300, 3)), rng.normal(size=(4, 3)))
        assert np.getbufsize() == caller_bufsize

    def test_restored_after_a_raise_inside_the_loop(self, caller_bufsize):
        rng = np.random.default_rng(71)
        with pytest.raises(IndexError):      # centers lack the points' last column
            assign_labels(rng.normal(size=(300, 3)), rng.normal(size=(4, 2)))
        assert np.getbufsize() == caller_bufsize

    def test_restored_inside_a_rank_and_in_the_caller(self, caller_bufsize):
        rng = np.random.default_rng(72)
        pts, ctr = rng.normal(size=(300, 3)), rng.normal(size=(4, 3))

        def prog(ctx):
            np.setbufsize(CALLER_BUFSIZE)    # each rank thread has its own
            labels = assign_labels(pts, ctr)
            return np.getbufsize(), labels

        res = spawn_world(1).run({0: prog})
        assert np.getbufsize() == caller_bufsize
        size, labels = res[0].value
        assert size == CALLER_BUFSIZE
        assert np.array_equal(labels, assign_labels(pts, ctr))


class TestNearestCenter:
    """`assign_labels` on a single row is the nearest-center query."""

    def test_exact_match_wins(self):
        c = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert assign_labels(np.array([[5.0, 5.0]]), c)[0] == 1

    def test_tie_breaks_to_lower_index(self):
        c = np.array([[0.0], [2.0]])
        assert assign_labels(np.array([[1.0]]), c)[0] == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(11)
        centers = rng.normal(size=(7, 3))
        for _ in range(50):
            x = rng.normal(size=3)
            assert assign_labels(np.array([x]), centers)[0] == naive_nearest(x, centers)


# Data scales: subnormal squares, plain, near and past float64 overflow of
# the squared distances (1e150 apart squares to 1e300; 1e154 to inf)
BOUND_SCALES = (1e-160, 1.0, 1e150, 1e154)
STEP_KINDS = ("drift", "ulp", "jump", "same", "duplicate")


@st.composite
def center_trajectories(draw):
    """Points on a coarse grid (exact ties), then a run of centers, each
    step a small drift, a one-ulp nudge of one coordinate, an arbitrary
    jump, a repeat or a duplicated center; and before each step after the
    first, the rows that arrive stale."""
    n, d, k = draw(st.integers(0, 24)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    scale = draw(st.sampled_from(BOUND_SCALES))

    def grid(rows):
        cells = draw(st.lists(st.integers(-4, 4), min_size=rows * d, max_size=rows * d))
        return np.array(cells, dtype=np.float64).reshape(rows, d) * scale

    points = grid(n)
    centers = grid(k)
    steps = [centers]
    for kind in draw(st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=6)):
        centers = centers.copy()
        j = draw(st.integers(0, k - 1))
        if kind == "drift":
            size = scale * 2.0 ** -draw(st.integers(2, 50))
            centers += grid(k) * size / scale
        elif kind == "ulp":
            c = draw(st.integers(0, d - 1))
            centers[j, c] = np.nextafter(centers[j, c], draw(st.sampled_from((-np.inf, np.inf))))
        elif kind == "jump":
            centers = grid(k)
        elif kind == "duplicate":
            centers[j] = centers[draw(st.integers(0, k - 1))]
        steps.append(centers)
    arrivals = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
                for _ in steps[1:]]
    return points, steps, arrivals


def bounded_at_every_size():
    """`assign_bounded` with its size rule off, so that blocks far below it
    still take the bounded path."""
    return mock.patch.object(kmeans, "BOUND_MIN_CELLS", 0)


class TestBoundedAssign:
    """`assign_bounded` gives `assign_labels`' labels at every step."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(center_trajectories(), st.booleans())
    def test_every_step_matches_a_full_pass(self, case, scattered):
        """Rows that arrive stale (gap 0, any label) are reassigned; with
        `scattered` the rows sit reversed between far rows of a larger
        table and are passed by id."""
        points, steps, arrivals = case
        n = len(points)
        table, ids = points, None
        if scattered:
            ids = np.arange(2 * n - 1, -1, -2, dtype=np.int64)
            table = np.full((2 * n + 1, points.shape[1]), 1e300)
            table[ids] = points
        labels = np.zeros(n, dtype=np.int64)
        bound = None
        with np.errstate(over="ignore", invalid="ignore"), bounded_at_every_size():
            for step, centers in enumerate(steps):
                if step:
                    stale = arrivals[step - 1]
                    labels = np.where(stale, np.arange(n) % len(centers), labels)
                    bound = kmeans.NearestBound(np.where(stale, 0.0, bound.gap), bound.ref)
                got, changed, bound = kmeans.assign_bounded(table, centers, labels, bound,
                                                            ids)
                want = assign_labels(points, centers)
                assert got.dtype == np.int64
                assert np.array_equal(got, want)
                assert changed == (not np.array_equal(want, labels))
                assert bound.gap.shape == (n,)
                assert np.array_equal(bound.ref, centers)
                labels = got

    @pytest.mark.parametrize("rows,bounded", [(2047, False), (2048, True)])
    def test_a_block_under_the_size_rule_is_assigned_plainly(self, rows, bounded):
        k = 8                               # 2048 x 8 cells is BOUND_MIN_CELLS
        assert kmeans.BOUND_MIN_CELLS == 2048 * k
        rng = np.random.default_rng(3)
        points, centers = rng.normal(size=(rows, 2)), rng.normal(size=(k, 2))
        labels, changed, bound = kmeans.assign_bounded(
            points, centers, np.zeros(rows, dtype=np.int64), None)
        assert np.array_equal(labels, assign_labels(points, centers)) and changed
        assert (bound is not None) == bounded

    # Each case is one point and two steps of centers whose second step
    # the bound must not skip; each needs one term of the bound.  The last
    # two were found by a random search with that term set to zero.
    @pytest.mark.parametrize("point,before,after", [
        ([0.0], [[-1.0], [1.5]], [[-1.3], [1.2]]),
        ([0.0], [[np.inf], [-1.0], [1.5]], [[np.inf], [-1.3], [1.2]]),
        ([-0.5751959525206257, 0.6891171897768885, -0.808324789806057],
         [[0.8216181435011584, 0.33043707618338714, -1.303157231604361],
          [0.9053558666731177, 0.4463745723640113, -0.5369532353602852]],
         [[0.8216181435011584, 0.3304370761833871, -1.303157231604361],
          [0.9053558666731178, 0.4463745723640112, -0.5369532353602853]]),
        ([2.06173378200992e-158, 6.636814527231314e-159],
         [[-8.665944277304319e-160, -1.3236967761633773e-158],
          [-7.015462842657897e-159, -2.9994390583705126e-159]],
         [[-8.652276579463962e-160, -1.3235433206045417e-158],
          [-7.01559626111231e-159, -3.0001126068884517e-159]]),
    ], ids=["both drifts", "a center at infinity", "rounding at a near tie",
            "subnormal squares"])
    def test_a_step_that_moves_the_nearest_center_is_reassigned(self, point, before,
                                                                after):
        points = np.array([point])
        before, after = np.array(before), np.array(after)
        with np.errstate(invalid="ignore"), bounded_at_every_size():
            labels, _, bound = kmeans.assign_bounded(
                points, before, np.zeros(1, dtype=np.int64), None)
            got, changed, _ = kmeans.assign_bounded(points, after, labels, bound)
        assert labels.tolist() == assign_labels(points, before).tolist()
        assert got.tolist() == assign_labels(points, after).tolist() != labels.tolist()
        assert changed

    def test_bound_holds_for_a_copy_of_the_centers(self):
        points = np.array([[0.0], [1.0], [9.0]])
        centers = np.array([[0.0], [9.0]])
        with bounded_at_every_size():
            _, _, bound = kmeans.assign_bounded(points, centers,
                                                np.zeros(3, dtype=np.int64), None)
        centers[0] = 100.0
        assert bound.ref.tolist() == [[0.0], [9.0]]


@st.composite
def labelling_cases(draw):
    """Rows and two sets of centers, all picked from one small pool of grid
    points: rows repeat, centers repeat (exact ties) and grid symmetry adds
    ties between distinct centers.  At scale 1e154 most squared distances
    overflow to inf, and a row can be inf from every center."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    scale = draw(st.sampled_from((1.0, 1e154)))
    size = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(-4, 4), min_size=size * d, max_size=size * d))
    pool = np.array(cells, dtype=np.float64).reshape(size, d) * scale

    def pick(count):
        return pool[draw(st.lists(st.integers(0, size - 1), min_size=count,
                                  max_size=count))]

    return pick(draw(st.integers(1, 40))), pick(k), pick(k)


class TestLabellingRule:
    """Every labelling path gives `np.argmin` of the distances: the lowest
    center index among those at the row's minimum."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(labelling_cases(), st.sampled_from(("C", "F", "ids")))
    def test_labels_are_the_argmin_of_the_distances(self, case, layout):
        """`assign_labels`, and `assign_bounded` plain and bounded, with no
        bound and then with the bound of a previous call, on rows stored
        row-major, column-major, or scattered over a larger table and
        passed by id (gathered by `take_rows` for `assign_labels`)."""
        points, centers, moved = case
        n = len(points)
        ids = None
        if layout == "ids":
            ids = np.arange(2 * n - 1, -1, -2, dtype=np.int64)
            table = np.full((2 * n + 1, points.shape[1]), 1e300)
            table[ids] = points
            rows = kmeans.take_rows(table, ids)
        else:
            table = rows = np.asarray(points, order=layout)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.argmin(pairwise_sqdist(points, centers), axis=1)
            want_moved = np.argmin(pairwise_sqdist(points, moved), axis=1)
            assert np.array_equal(assign_labels(rows, centers), want)
            for cells in (kmeans.BOUND_MIN_CELLS, 0):     # plain, then bounded
                with mock.patch.object(kmeans, "BOUND_MIN_CELLS", cells):
                    got, _, bound = kmeans.assign_bounded(
                        table, centers, np.zeros(n, dtype=np.int64), None, ids)
                    assert np.array_equal(got, want)
                    assert (bound is None) == (cells > 0)
                    got, _, _ = kmeans.assign_bounded(table, moved, got, bound, ids)
                    assert np.array_equal(got, want_moved)

    def test_a_row_at_inf_from_every_center_gets_center_0(self):
        points = np.array([[4e154], [0.0]])
        centers = np.array([[-4e154], [-1e154]])
        with np.errstate(over="ignore"):
            assert np.isinf(pairwise_sqdist(points[:1], centers)).all()
            assert assign_labels(points, centers).tolist() == [0, 1]


class TestDatasetLayout:
    """A `Dataset` holds one column-major, read-only copy of its input,
    and the kernels give the same bytes whatever layout they read."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_values_are_a_column_major_read_only_copy(self, order):
        x = np.asarray(np.random.default_rng(5).normal(size=(50, 3)), order=order)
        data = Dataset(x)
        values = data.values
        assert values.flags.f_contiguous and not values.flags.c_contiguous
        assert not values.flags.writeable
        assert values.shape == x.shape and values.tobytes() == x.tobytes()
        assert not np.shares_memory(values, x)
        before = values.tobytes()
        x[0, 0] += 1.0
        x[-1] = 0.0
        assert values.tobytes() == before

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_kernels_give_identical_bytes_on_c_and_f_copies(self, d):
        rng = np.random.default_rng(70 + d)
        k = 7
        x = rng.normal(scale=3.0, size=(3000, d))
        centers = rng.normal(scale=3.0, size=(k, d))
        labels = rng.integers(0, k, size=3000)
        c, f = np.ascontiguousarray(x), np.asfortranarray(x)
        ids = np.sort(rng.choice(3000, 900, replace=False))
        for a, b, lab in [(c, f, labels), (c[700:2300], f[700:2300], labels[700:2300]),
                          (c.take(ids, axis=0), kmeans.take_rows(f, ids), labels[ids])]:
            assert pairwise_sqdist(a, centers).tobytes() == pairwise_sqdist(b, centers).tobytes()
            for got, want in zip(center_sums(b, lab, range(k)), center_sums(a, lab, range(k))):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_take_rows_gathers_columns(self):
        f = Dataset(np.arange(12.0).reshape(4, 3)).values
        rows = kmeans.take_rows(f, np.array([3, 1]))
        assert rows.flags.f_contiguous and rows.tolist() == [[9.0, 10.0, 11.0], [3.0, 4.0, 5.0]]


class TestInitCentroids:
    def test_skips_duplicates(self):
        data = Dataset(np.array([[1.0], [1.0], [2.0]]))
        c = init_centroids(data, 2)
        assert np.array_equal(c.centers, [[1.0], [2.0]])

    def test_all_distinct_takes_prefix(self):
        data = Dataset(np.arange(12.0).reshape(6, 2))
        c = init_centroids(data, 3)
        assert np.array_equal(c.centers, data.values[:3])

    def test_too_few_distinct_raises(self):
        data = Dataset(np.array([[3.0], [3.0]]))
        with pytest.raises(InitError):
            init_centroids(data, 2)

    def test_exact_and_signed_zero_repeats_are_one_row(self):
        """Rows that repeat exactly or differ only in the sign of a zero
        are equal values: the first of each is chosen, in sample order."""
        data = Dataset(np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [0.0, 1.0],
                                 [2.0, 0.0], [-0.0, -1.0], [0.0, -1.0], [3.0, 3.0]]))
        c = init_centroids(data, 4)
        assert c.centers.tobytes() == data.values[[0, 2, 5, 7]].tobytes()
        with pytest.raises(InitError, match="found only 4"):
            init_centroids(data, 5)


class TestLloydStep:
    def test_hand_traced_1d_split(self):
        data = Dataset(np.array([[0.0], [1.0], [9.0], [10.0]]))
        c0 = CentroidSet(np.array([[0.0], [9.0]]))
        c1, t1 = lloyd_step(data, c0, initial_assignment(4, 2))
        assert np.array_equal(t1.assign, [0, 0, 1, 1])
        assert np.array_equal(c1.centers, [[0.5], [9.5]])
        assert t1.changed

    def test_fixed_point_reports_unchanged(self):
        data = Dataset(np.array([[0.0], [1.0], [9.0], [10.0]]))
        c = CentroidSet(np.array([[0.5], [9.5]]))
        t = AssignmentTable(np.array([0, 0, 1, 1]), True, np.array([2, 2]))
        c2, t2 = lloyd_step(data, c, t)
        assert not t2.changed
        assert np.array_equal(c2.centers, c.centers)

    def test_empty_cluster_keeps_previous_center(self):
        data = Dataset(np.array([[0.0], [1.0]]))
        c = CentroidSet(np.array([[0.0], [50.0]]))
        _, t = lloyd_step(data, c, initial_assignment(2, 2))
        c2, _ = lloyd_step(data, c, initial_assignment(2, 2))
        assert t.counts[1] == 0
        assert c2.centers[1, 0] == 50.0

    def test_objective_never_increases(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            data = Dataset(rng.normal(size=(n, d)))
            try:
                c = init_centroids(data, k)
            except InitError:
                continue
            t = initial_assignment(n, k)
            prev = None
            for _ in range(10):
                c, t = lloyd_step(data, c, t)
                cur = objective(data, c, t)
                if prev is not None:
                    assert cur <= prev + 1e-9 * max(1.0, abs(prev))
                prev = cur
                if not t.changed:
                    break

    def test_assignment_is_argmin_under_rescan(self):
        rng = np.random.default_rng(31)
        data = Dataset(rng.normal(size=(40, 3)))
        c = init_centroids(data, 5)
        t = initial_assignment(40, 5)
        c, t = lloyd_step(data, c, t)
        prev_centers = init_centroids(data, 5).centers
        for i in range(40):
            assert t.assign[i] == naive_nearest(data.values[i], prev_centers)


class TestCenterSums:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("span", ["full", "sub"])
    def test_sums_fold_in_ascending_sample_order_bitwise(self, d, span):
        rng = np.random.default_rng(40 + d)
        k = 7
        values = rng.normal(scale=3.0, size=(3000, d))
        if span == "full":
            rows, centers = np.arange(3000), range(k)
        else:
            rows, centers = np.sort(rng.choice(3000, 2000, replace=False)), range(2, 5)
        labels = rng.integers(0, k, size=len(rows))
        sums, counts = center_sums(values[rows], labels, centers)
        want_sums, want_counts = naive_center_sums(values, rows, labels, centers)
        assert counts.dtype == np.int64 and counts.tolist() == want_counts
        assert sums.shape == (len(centers), d)
        assert sums.tobytes() == want_sums.tobytes()

    def test_center_without_members_sums_to_zero(self):
        values = np.arange(6.0).reshape(3, 2)
        sums, counts = center_sums(values[np.arange(3)], np.array([0, 2, 2]), range(3))
        assert counts.tolist() == [1, 0, 2]
        assert sums.tolist() == [[0.0, 1.0], [0.0, 0.0], [6.0, 8.0]]

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_row_slice_of_a_wider_table_sums_bitwise(self, d):
        # a samples block is a row slice of the whole table: for d > 1 its
        # columns are strided views, read in place
        rng = np.random.default_rng(60 + d)
        k = 5
        table = rng.normal(scale=3.0, size=(4000, d))
        rows = np.arange(700, 3300)
        block = table[700:3300]
        labels = rng.integers(0, k, size=len(rows))
        sums, counts = center_sums(block, labels, range(k))
        want_sums, want_counts = naive_center_sums(table, rows, labels, range(k))
        assert counts.tolist() == want_counts
        assert sums.tobytes() == want_sums.tobytes()


class TestObjective:
    def test_zero_when_centers_on_samples(self):
        data = Dataset(np.array([[1.0], [2.0]]))
        c = CentroidSet(np.array([[1.0], [2.0]]))
        t = AssignmentTable(np.array([0, 1]), False, np.array([1, 1]))
        assert objective(data, c, t) == 0.0

    def test_single_sample_offset(self):
        data = Dataset(np.array([[0.0]]))
        c = CentroidSet(np.array([[1.0]]))
        t = AssignmentTable(np.array([0]), False, np.array([1]))
        assert objective(data, c, t) == 1.0

    def test_matches_naive_double_loop_exactly(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(60, 4)))
        c = CentroidSet(rng.normal(size=(6, 4)))
        labels = assign_labels(data.values, c.centers)
        t = AssignmentTable(labels, True, np.bincount(labels, minlength=6))
        assert objective(data, c, t) == naive_objective(data.values, c.centers, labels)

    @pytest.mark.parametrize("n,d,k", [(4000, 4, 16), (20000, 8, 16), (20000, 4, 8)])
    def test_is_the_left_fold_of_per_sample_distances(self, n, d, k):
        rng = np.random.default_rng(n + d)
        data = Dataset(rng.normal(scale=4.0, size=(n, d)))
        c = CentroidSet(rng.normal(scale=4.0, size=(k, d)))
        labels = assign_labels(data.values, c.centers)
        t = AssignmentTable(labels, True, np.bincount(labels, minlength=k))
        total = 0.0
        for i, row in enumerate(data.values):
            total += squared_distance(row, c.centers[labels[i]])
        assert objective(data, c, t) == total


class TestRunSequential:
    def test_k_equals_n_drives_objective_to_zero(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(8, 2)))
        c, t, iters = run_sequential(data, KmeansConfig(k=8))
        assert iters <= 2
        assert objective(data, c, t) == 0.0

    def test_two_blobs_recover_blob_means(self):
        rng = np.random.default_rng(17)
        a = rng.normal(loc=0.0, scale=0.05, size=(30, 2))
        b = rng.normal(loc=10.0, scale=0.05, size=(30, 2))
        data = Dataset(np.vstack([a, b]))
        c, t, _ = run_sequential(data, KmeansConfig(k=2))
        got = c.centers[np.argsort(c.centers[:, 0])]
        want = np.vstack([a.mean(axis=0), b.mean(axis=0)])
        assert np.allclose(got, want, atol=1e-9)

    def test_max_iters_caps_the_loop(self):
        rng = np.random.default_rng(19)
        data = Dataset(rng.normal(size=(50, 2)))
        _, _, iters = run_sequential(data, KmeansConfig(k=5, max_iters=1))
        assert iters == 1

    def test_deterministic_across_reruns(self):
        rng = np.random.default_rng(29)
        data = Dataset(rng.normal(size=(40, 3)))
        c1, t1, i1 = run_sequential(data, KmeansConfig(k=4))
        c2, t2, i2 = run_sequential(data, KmeansConfig(k=4))
        assert i1 == i2
        assert np.array_equal(c1.centers, c2.centers)
        assert np.array_equal(t1.assign, t2.assign)

    def test_counts_always_match_assignments(self):
        rng = np.random.default_rng(37)
        data = Dataset(rng.normal(size=(35, 2)))
        c, t, _ = run_sequential(data, KmeansConfig(k=6))
        t.validate(6)

    # Above the size rule `run_sequential` skips rows by its bound; each
    # case replays it as plain `lloyd_step` passes and compares bitwise.

    def assert_plain_passes_replay(self, data, cfg):
        """Returns the replay's iterations, last `changed` and per-pass counts."""
        assert data.n * cfg.k >= kmeans.BOUND_MIN_CELLS
        c, t = init_centroids(data, cfg.k), initial_assignment(data.n, cfg.k)
        iters, counts = 0, []
        for _ in range(cfg.max_iters):
            c, t = lloyd_step(data, c, t)
            iters += 1
            counts.append(t.counts)
            if not t.changed:
                break
        got_c, got_t, got_iters = run_sequential(data, cfg)
        assert got_c.centers.tobytes() == c.centers.tobytes()
        assert got_t.assign.dtype == np.int64
        assert np.array_equal(got_t.assign, t.assign)
        assert np.array_equal(got_t.counts, t.counts)
        assert got_t.changed == t.changed
        assert got_iters == iters
        return iters, t.changed, counts

    def test_blobs_that_converge_replay_bitwise(self):
        data, _ = make_blobs(n=6000, d=3, blobs=5, spread=3.0, seed=11)
        iters, changed, _ = self.assert_plain_passes_replay(data, KmeansConfig(k=8))
        assert not changed and iters >= 8

    def test_blobs_capped_by_max_iters_replay_bitwise(self):
        data, _ = make_blobs(n=6000, d=3, blobs=5, spread=3.0, seed=11)
        iters, changed, _ = self.assert_plain_passes_replay(
            data, KmeansConfig(k=8, max_iters=5))
        assert changed and iters == 5

    def test_integer_grid_with_ties_replays_bitwise(self):
        rng = np.random.default_rng(41)
        data = Dataset(rng.integers(-3, 4, size=(6000, 2)).astype(np.float64))
        first = np.sort(pairwise_sqdist(data.values, init_centroids(data, 5).centers), axis=1)
        assert np.any(first[:, 0] == first[:, 1])       # exact distance ties
        assert len(np.unique(data.values, axis=0)) < 100   # duplicate rows
        iters, _, _ = self.assert_plain_passes_replay(data, KmeansConfig(k=5))
        assert iters >= 3

    def test_a_center_that_goes_empty_replays_bitwise(self):
        # with k=3 the center started at -4 loses every member at pass 2
        cycle = [-5.0, -4.0, -5.0, 6.0, 2.0, -6.0, 1.0, 2.0]
        data = Dataset(np.tile(cycle, 700).reshape(-1, 1))
        _, _, counts = self.assert_plain_passes_replay(data, KmeansConfig(k=3))
        assert any(0 in c for c in counts)

    def test_one_center_replays_bitwise(self):
        # every label starts at 0, so the first pass changes none
        data, _ = make_blobs(n=17000, d=2, blobs=3, spread=2.0, seed=5)
        iters, changed, _ = self.assert_plain_passes_replay(data, KmeansConfig(k=1))
        assert not changed and iters == 1


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=4))
    cells = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64), k


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_lloyd_state_stays_well_formed(self, inst):
        values, k = inst
        data = Dataset(values)
        try:
            c = init_centroids(data, k)
        except InitError:
            return
        t = initial_assignment(data.n, k)
        for _ in range(5):
            c, t = lloyd_step(data, c, t)
            t.validate(k)
            assert int(t.counts.sum()) == data.n
            if not t.changed:
                break

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_objective_monotone_under_steps(self, inst):
        values, k = inst
        data = Dataset(values)
        try:
            c = init_centroids(data, k)
        except InitError:
            return
        t = initial_assignment(data.n, k)
        c, t = lloyd_step(data, c, t)
        prev = objective(data, c, t)
        for _ in range(4):
            c, t = lloyd_step(data, c, t)
            cur = objective(data, c, t)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur


class TestConfig:
    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            KmeansConfig(k=0)

    def test_bad_max_iters_rejected(self):
        with pytest.raises(ConfigError):
            KmeansConfig(k=2, max_iters=0)

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            Dataset(np.array([[np.nan]]))

    def test_dataset_values_are_read_only(self):
        data = Dataset(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 3.0
