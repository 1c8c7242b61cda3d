"""Core K-means types and the sequential Lloyd loop.

The sequential loop is the reference every distributed runner is checked
against, so floating-point accumulation order is pinned everywhere: distances
accumulate coordinate by coordinate, per-cluster sums fold their samples in
ascending index order from 0.0 (whatever the dimension d), and nearest-center
ties resolve to the lowest center index.  Any assignment path that must agree
bitwise with this module has to go through the same kernels
(`pairwise_sqdist`, `assign_labels`, and `center_sums` with
`center_means`).  `lloyd_step` chains them into one plain pass, the
reference a Lloyd loop is replayed against; `run_sequential` and both
decompositions assign through `assign_bounded` instead.

The kernels read coordinates, not rows: a distance table is filled one
coordinate at a time, and a center's sums are one `bincount` per
coordinate.  So a `Dataset` stores its samples column-major, each
coordinate one contiguous run; a block of rows is a row slice of that, with
the same contiguous columns, and rows picked by id are gathered as columns
(`take_rows`).  Labels come from the row minimum of the (k, rows) distance
table, as the first center that reaches it: argmin's lowest-index rule.

`assign_bounded` is `assign_labels` for a caller that assigns the same
points pass after pass: it keeps, per row, a lower bound on how much nearer
the nearest center is than the second nearest, lowers it by how far the
centers moved, and sends only the rows whose bound is no longer positive
through the same kernels.  The rows it skips keep labels those kernels
would give them again, so its labels are bitwise `assign_labels`'.  A
caller whose rows are scattered over a larger table passes the table and
their row ids, and only the rows that need distances are gathered.  A
block of fewer than BOUND_MIN_CELLS distances is assigned plainly, with no
bound: there the bookkeeping costs more than the distances it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InitError


def _as_matrix(values: object) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"expected a 2-d array of samples, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ConfigError(f"need at least one row and one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("samples must be finite")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table of n d-dimensional float64 samples.

    `values` has shape (n, d) and is a read-only copy of the input, stored
    column-major: the transpose of a contiguous (d, n) array, so each
    coordinate, in the whole table and in any row slice of it, is one
    contiguous run for the kernels to read.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.values).copy(order="F")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CentroidSet:
    """k centers of dimension d."""

    centers: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.centers).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "centers", arr)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass
class AssignmentTable:
    """Sample-to-center map plus the bookkeeping of the last update pass."""

    assign: np.ndarray                 # (n,) int64, entries in [0, k)
    changed: bool
    counts: np.ndarray                 # (k,) int64, counts[c] == |assign == c|

    def validate(self, k: int) -> None:
        if self.assign.ndim != 1 or self.counts.shape != (k,):
            raise ConfigError("malformed assignment table")
        if self.assign.size and (self.assign.min() < 0 or self.assign.max() >= k):
            raise ConfigError("assignment out of range")
        if not np.array_equal(np.bincount(self.assign, minlength=k), self.counts):
            raise ConfigError("counts do not match assignments")


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


def squared_distance(a: object, b: object) -> float:
    """Squared Euclidean distance, accumulated coordinate by coordinate."""
    ax = np.asarray(a, dtype=np.float64)
    bx = np.asarray(b, dtype=np.float64)
    if ax.shape != bx.shape or ax.ndim != 1:
        raise ConfigError(f"shape mismatch: {ax.shape} vs {bx.shape}")
    total = 0.0
    for j in range(ax.shape[0]):
        diff = float(ax[j]) - float(bx[j])
        total += diff * diff
    return total


def pairwise_sqdist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances between every point and every center, (n, k).

    Accumulates over coordinates in ascending order so each entry is bitwise
    identical to `squared_distance` on the same pair, no matter how the caller
    sliced its rows out of a larger table.  The work is center-major: each
    coordinate, a row of `points.T`, fills a (k, n) table whose rows run
    along the points.  Column-major points (a `Dataset`'s values, a row
    slice of them, rows from `take_rows`) make each of those reads
    contiguous; points in any other layout give the same bits, read with a
    stride.  The first coordinate's square starts each sum, since
    0.0 + x == x for every square x.  The result is the transposed (n, k)
    view of that table.
    """
    cols = np.asarray(points, dtype=np.float64).T
    ctr = np.asarray(centers, dtype=np.float64)
    out = np.empty((ctr.shape[0], cols.shape[1]), dtype=np.float64)
    np.subtract(cols[0], ctr[:, 0, np.newaxis], out=out)
    np.multiply(out, out, out=out)
    diff = np.empty_like(out)
    for j in range(1, cols.shape[0]):
        np.subtract(cols[j], ctr[:, j, np.newaxis], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out.T


def take_rows(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows `ids` of `values`, gathered as columns: a column-major
    (len(ids), d) array, the layout `pairwise_sqdist` and `center_sums`
    read contiguously."""
    return values.T.take(ids, axis=1).T


def _nearest(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of a (k, rows) distance table, its minimum and the first
    center that reaches it: argmin's lowest-index tie rule, exactly, since
    no distance is NaN (points and centers are finite, so each distance is
    a sum of squares, inf at worst).  A column that is all inf gets center
    0, as argmin gives it."""
    first = table.min(axis=0)
    return first, (table == first).argmax(axis=0)


# Distances per `assign_labels` block: 16,384 float64 are 128 KiB, glibc's
# initial mmap threshold.  `pairwise_sqdist` holds two arrays per block, the
# distances and one scratch (k x rows each), and rows picked by id add their
# gathered coordinates (d x rows).  Rank threads each have a malloc arena, and once glibc raises its mmap
# threshold an arena keeps the freed temporaries; bounded blocks keep that to
# a few 128 KiB chunks rather than n x k tables, which held peak RSS up.
# Once the subtracts run unbuffered (below), 65,536-cell blocks were about as
# fast, but they raised the benchmark's `wide-centers` peak RSS from 59 to
# 69 MB.
ASSIGN_BLOCK_CELLS = 16384

# numpy's ufunc buffer, in elements, while `assign_labels` runs.  numpy
# buffers a broadcast ufunc whose inner dimension is at most a quarter of the
# buffer, and the buffered (k x rows) subtracts of `pairwise_sqdist` cost
# three to four times the unbuffered ones.  At the default 8,192 that is
# every block of 2,048 rows or fewer: every block this loop makes once k >= 8.
# At 256 only blocks of 64 rows or fewer are buffered.  Nothing in the loop
# casts, so no op needs the buffer for anything else.
ASSIGN_UFUNC_BUFSIZE = 256


def assign_labels(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center label per row; ties go to the lowest center index.

    Rows go through `pairwise_sqdist` in blocks of at most ASSIGN_BLOCK_CELLS
    distances, so no n x k temporary is ever held; each distance does not
    depend on the row slicing, so neither do the labels.  The loop runs under
    ASSIGN_UFUNC_BUFSIZE, which changes no result; the caller's buffer size
    (numpy keeps one per thread) is restored on every exit.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    rows = max(1, ASSIGN_BLOCK_CELLS // len(centers))
    labels = np.empty(n, dtype=np.int64)
    old = np.setbufsize(ASSIGN_UFUNC_BUFSIZE)
    try:
        for lo in range(0, n, rows):
            block = pairwise_sqdist(points[lo:lo + rows], centers)
            labels[lo:lo + rows] = _nearest(block.T)[1]
    finally:
        np.setbufsize(old)
    return labels


# `assign_bounded` loosens every bound it computes by this relative slack
# and by an absolute floor, so that a row it skips is one whose label
# `assign_labels` would leave as it is.  A computed squared distance over d
# coordinates is within d + 2 units of rounding (2**-53 each) of the true
# one, its square root within d/2 + 2, and the three operations that make a
# gap add three more.  A strict order of the true distances then carries
# over to the computed squares once it leads by 2 (d + 2) units: about
# 3 d + 11 units in all, which 2**-20 covers for every d below 2**31 (one
# such row alone is 16 GiB).  A positive gap so loosened implies that the
# nearest center's computed squared distance is strictly below every other
# center's, so the labelling, which breaks ties to the lowest index, gives the
# label the row has.  Each pass also inflates the drifts, which are
# computed distances too, and shrinks the gaps by the slack before lowering
# them, which covers the rounding of that subtraction however many passes a
# row is skipped for.
BOUND_SLACK = 2.0 ** -20
# Squares of coordinate differences below about 1e-154 round to subnormals
# or to 0, where rounding is absolute, not relative: at most 2**-1074 per
# term, d terms per distance, or sqrt(d) * 2**-537 on a distance.  The
# floor, 2**-500, covers that for every d below 2**70, on gaps and on
# drifts alike; rows whose distances are this small always reassign.
BOUND_FLOOR = 2.0 ** -500
# `assign_bounded` assigns a block of fewer distances (rows x k) than this
# with plain `assign_labels` and keeps no bound for it.  A bounded pass makes
# about a dozen more numpy calls than a plain one (the drifts, the gap
# update, the stale selection, a gather and a scatter), a fixed cost that
# on a small block is more than the distances it can save.  Over a lockstep
# centers trajectory (`tools/opcost.py`, k=16) a bounded pass cost 1.5-1.6x a
# plain one at about 250 rows (4,500 distances), 0.8x at about 1,100
# (17,600) and 0.3x at about 6,000 (97,000); the rule is one kernel block.
BOUND_MIN_CELLS = ASSIGN_BLOCK_CELLS
_SQ_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class NearestBound:
    """A lower bound per row on (distance to the second-nearest center) -
    (distance to the nearest), valid for the centers `ref`.  A row whose
    bound is positive has a nearest center no other center ties."""

    gap: np.ndarray                    # (n,) float64
    ref: np.ndarray                    # (k, d) the centers the bound holds for


def _nearest_two(points: np.ndarray, centers: np.ndarray,
                 ids: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """`assign_labels` of the rows (with `ids`, the rows `ids` of `points`),
    with each row's gap bound; the same blocks under the same buffer size.
    Rows picked by id are gathered one block at a time, so no copy of them
    all is ever held."""
    n = len(points) if ids is None else len(ids)
    rows = max(1, ASSIGN_BLOCK_CELLS // len(centers))
    labels = np.empty(n, dtype=np.int64)
    gap = np.empty(n, dtype=np.float64)
    old = np.setbufsize(ASSIGN_UFUNC_BUFSIZE)
    try:
        for lo in range(0, n, rows):
            block = pairwise_sqdist(points[lo:lo + rows] if ids is None
                                    else take_rows(points, ids[lo:lo + rows]), centers)
            table = block.T                       # (k, rows), contiguous
            first, near = _nearest(table)
            labels[lo:lo + rows] = near
            table[near, np.arange(len(near))] = np.inf
            # the second square is inf when k = 1 or when it overflowed; a
            # true square that overflowed is about _SQ_MAX or more, and
            # with k = 1 any bound holds
            second = np.minimum(table.min(axis=0), _SQ_MAX)
            np.sqrt(second, out=second)
            second *= 1.0 - BOUND_SLACK
            second -= np.sqrt(first)
            second -= BOUND_FLOOR
            gap[lo:lo + rows] = second
    finally:
        np.setbufsize(old)
    return labels, gap


def assign_bounded(points: np.ndarray, centers: np.ndarray, labels: np.ndarray,
                   bound: NearestBound | None, ids: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, bool, NearestBound | None]:
    """`assign_labels` of the rows, reassigning only those whose nearest
    center can have changed; also whether any label changed.

    The rows are `points`, or with `ids` the rows `ids` of `points`; only
    the rows reassigned are gathered.  `labels` and `bound` come from the
    previous call on the same rows (Elkan, ICML 2003; Hamerly, SDM 2010).
    Each center's drift since `bound.ref` lowers every row's gap by the
    drift of its own center plus the largest drift: no center came nearer,
    and its own went no further, than that.  Only rows whose gap is then not
    positive (0, as a caller sets for a row new to it, NaN and -inf
    included) are reassigned, through `pairwise_sqdist` and the labelling of
    `assign_labels`, and get a fresh gap; the others keep their labels,
    which are still nearest.  With no bound every row is reassigned.  A
    block of fewer than BOUND_MIN_CELLS distances is `assign_labels`' whole
    and keeps no bound.  Returns the labels, whether any differs from
    `labels`, and the bound for `centers`, None for a plain block.
    """
    if len(labels) * len(centers) < BOUND_MIN_CELLS:
        new = assign_labels(points if ids is None else take_rows(points, ids), centers)
        return new, not np.array_equal(new, labels), None
    if bound is None:                   # every row is stale: nothing to select
        new, gap = _nearest_two(points, centers, ids)
        return new, not np.array_equal(new, labels), NearestBound(gap, centers.copy())
    diff = centers - bound.ref
    drift = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    drift *= 1.0 + BOUND_SLACK
    drift += BOUND_FLOOR
    lower = drift.take(labels)
    lower += drift.max()
    gap = bound.gap * (1.0 - BOUND_SLACK)
    gap -= lower
    stale = np.flatnonzero(~(gap > 0))
    new = labels.copy()
    changed = False
    if len(stale):
        fresh, gap[stale] = _nearest_two(points, centers,
                                         stale if ids is None else ids.take(stale))
        changed = not np.array_equal(fresh, labels[stale])
        new[stale] = fresh
    return new, changed, NearestBound(gap, centers.copy())


def init_centroids(data: Dataset, k: int) -> CentroidSet:
    """First k pairwise-distinct samples, in ascending sample order.

    Rows are compared by their bytes after adding 0.0, which folds -0.0
    into 0.0; samples are finite, so equal bytes mean equal values.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    chosen: list[int] = []
    seen: set[bytes] = set()
    for i in range(data.n):
        key = (data.values[i] + 0.0).tobytes()
        if key in seen:
            continue
        seen.add(key)
        chosen.append(i)
        if len(chosen) == k:
            break
    if len(chosen) < k:
        raise InitError(f"need {k} distinct samples, found only {len(chosen)}")
    return CentroidSet(data.values[chosen])


def initial_assignment(n: int, k: int) -> AssignmentTable:
    """Starting table before the first pass: everything on center 0."""
    counts = np.zeros(k, dtype=np.int64)
    counts[0] = n
    return AssignmentTable(np.zeros(n, dtype=np.int64), True, counts)


def center_sums(values: np.ndarray, labels: np.ndarray,
                centers: range) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate sums and member counts of each center in `centers`.

    Row i of `values` is labelled `labels[i]`, and the rows must be in
    ascending sample order: `np.bincount` adds into a zeroed accumulator in
    index order, so every sum folds its members in that order.  Each
    coordinate is read as a column view of `values`: one contiguous run of
    weights when `values` is column-major (a `Dataset`'s values, a row slice
    of them, rows from `take_rows`), a strided one otherwise, with the same
    sums.  Labels outside `centers` are counted past its ends and dropped.
    """
    span = slice(centers.start, centers.stop)
    counts = np.bincount(labels, minlength=centers.stop)[span].astype(np.int64)
    sums = np.empty((len(centers), values.shape[1]), dtype=np.float64)
    for j in range(values.shape[1]):
        sums[:, j] = np.bincount(labels, weights=values[:, j],
                                 minlength=centers.stop)[span]
    return sums, counts


def center_means(sums: np.ndarray, counts: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Sums over counts; a center with no members keeps its previous row."""
    out = prev.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, np.newaxis]
    return out


def lloyd_step(data: Dataset, centroids: CentroidSet,
               table: AssignmentTable) -> tuple[CentroidSet, AssignmentTable]:
    """One plain pass: reassign every sample through `assign_labels`, then
    recompute every center."""
    if centroids.d != data.d:
        raise ConfigError(f"dimension mismatch: data d={data.d}, centers d={centroids.d}")
    labels = assign_labels(data.values, centroids.centers)
    changed = not np.array_equal(labels, table.assign)
    sums, counts = center_sums(data.values, labels, range(centroids.k))
    centers = center_means(sums, counts, centroids.centers)
    return CentroidSet(centers), AssignmentTable(labels, changed, counts)


def run_sequential(data: Dataset, cfg: KmeansConfig) -> tuple[CentroidSet, AssignmentTable, int]:
    """Lloyd iterations until no assignment changes or max_iters is hit.

    Each pass is `lloyd_step`'s, bit for bit, but assigns through
    `assign_bounded`, keeping the labels and bound of the previous pass, so
    above BOUND_MIN_CELLS only the rows whose nearest center can have
    changed get distances.  Returns (centroids, assignments, iterations
    completed).
    """
    values = data.values
    centers = init_centroids(data, cfg.k).centers
    labels, bound = initial_assignment(data.n, cfg.k).assign, None
    iters = 0
    for _ in range(cfg.max_iters):
        labels, changed, bound = assign_bounded(values, centers, labels, bound)
        sums, counts = center_sums(values, labels, range(cfg.k))
        centers = center_means(sums, counts, centers)
        iters += 1
        if not changed:
            break
    return CentroidSet(centers), AssignmentTable(labels, changed, counts), iters


def objective(data: Dataset, centroids: CentroidSet, table: AssignmentTable) -> float:
    """Sum of squared distances to assigned centers, ascending sample order."""
    mu = centroids.centers.take(table.assign, axis=0)
    d2 = np.zeros(data.n, dtype=np.float64)
    for j in range(data.d):
        diff = data.values[:, j] - mu[:, j]
        d2 += diff * diff
    # a sequential left fold: cumsum adds in index order, and starting from
    # d2[0] equals starting from 0.0 since every term is >= +0
    return float(np.cumsum(d2)[-1])
