"""Two parallel decompositions of the clustering pass.

CENTERS splits the center list: each position owns a contiguous block of
centers and, dynamically, the samples currently assigned to those centers.
A sample whose nearest center moved to another block is handed over with a
16-byte ownership record.  A pass's bookkeeping costs in proportion to the
records that move, not to the rows a position owns: a k-entry table gives
each center's owner, the rows that stay keep their ascending order, only the
rows that leave are sorted by destination, and a position that receives
records merges those ascending runs into its own with one stable argsort.
Center recomputation is local to the owner, so with the shared distance
kernel and ascending-index extraction the result is bitwise identical to the
sequential pass.

SAMPLES splits the dataset into fixed contiguous blocks: each position
assigns its block against the full replicated center list, then one
float64 (k, d+1) array per position, each center's sums with its member
count (exact below 2^53) last, is added across positions in ascending
order and every position performs the same division.  Since a block never
changes, a position keeps a per-row bound between passes (`assign_bounded`)
and reassigns only the rows whose nearest center can have changed; the
labels are still exactly the full pass's.  Assignments match the sequential
pass exactly; centroids agree to rounding because the summation tree
differs.

Both splits reassign through the same `assign_bounded`.  A CENTERS position
keeps the bound of the rows it kept; a row that arrives by record carries
no bound, so it gets a gap of 0 and its next pass reassigns it.  Records
and ticks are those of a full pass.  Blocks under the kernel's size
rule (`kmeans.BOUND_MIN_CELLS`) are assigned whole and keep no bound.

Each decomposition is one per-position state class (`CentersPosition`,
`SamplesPosition`) that holds what a position owns in numpy arrays and does
all of its math, with no notion of a cluster.  `run_parallel` steps every
position in one loop (no simulated cluster, no failure handling); the
fault-tolerant runtime gives each rank one position and only adds the
collectives between the same calls.  Ownership records are `(m, 2)`
little-endian u64 arrays of (sample id, center) pairs, and they travel as
such: a pass's `records`, grouped by destination with `ends`, go to the
runtime's one all-to-all exchange as they are, never encoded to bytes.
`entries` gives a position's labels in that form.  `reset` puts a position
back in the bootstrap state, every sample on center 0 (in the center split,
each position owning the contiguous slice of sample ids that is its block
in the sample split); the runtime restores a position that way and runs
the pass again from the centers that pass read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantError
from .kmeans import (
    AssignmentTable,
    CentroidSet,
    Dataset,
    KmeansConfig,
    NearestBound,
    assign_bounded,
    center_means,
    center_sums,
    init_centroids,
    take_rows,
)


class Method(enum.Enum):
    CENTERS = "centers"
    SAMPLES = "samples"


def partition(total: int, parts: int) -> list[tuple[int, int]]:
    """Split `total` items into `parts` contiguous blocks, larger blocks first.

    Sizes differ by at most one; the first `total % parts` blocks get the
    extra item.  Blocks may be empty when parts > total.
    """
    if parts < 1:
        raise ConfigError(f"parts must be >= 1, got {parts}")
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    base, rem = divmod(total, parts)
    blocks = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


# 16-byte ownership record: sample id, new center id, both little-endian u64
_U8 = np.dtype("<u8")


def make_records(ids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(m, 2) records pairing each sample id with its center."""
    out = np.empty((len(ids), 2), dtype=_U8)
    out[:, 0] = ids
    out[:, 1] = labels
    return out


_NO_RECORDS = make_records([], [])
_NO_RECORDS.flags.writeable = False


def gather_labels(fragments: list[np.ndarray], n: int) -> np.ndarray:
    """The full label array from every position's records."""
    owned = np.concatenate(fragments)
    assign = np.full(n, -1, dtype=np.int64)
    assign[owned[:, 0]] = owned[:, 1]
    if np.any(assign < 0):
        missing = int(np.flatnonzero(assign < 0)[0])
        raise InvariantError(f"sample {missing} lost its owner")
    return assign


def final_result(fragments: list[np.ndarray], n: int, k: int, centers: np.ndarray,
                 converged: bool) -> tuple[CentroidSet, AssignmentTable]:
    """A finished run's centroids and validated assignment table, from its
    final centers and every position's records."""
    assign = gather_labels(fragments, n)
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    table = AssignmentTable(assign=assign, changed=not converged, counts=counts)
    table.validate(k)
    return CentroidSet(centers), table


def needs_recompute(changed: bool, t: int) -> bool:
    """Whether pass `t` recomputes the centers.

    The declared all-zeros bootstrap assignment was never derived from
    distances, so a pass-1 convergence (k=1) still establishes the means;
    from pass 2 on a settled pass is a fixed point and its recompute is
    skipped.
    """
    return changed or t == 1


# -- splitting the centers ---------------------------------------------------

@dataclass
class CentersPass:
    """Result of one assignment pass over the samples a position owns."""

    changed: bool
    kept_ids: np.ndarray                    # (m,) int64 ids that stay here, ascending
    kept_labels: np.ndarray                 # (m,) int64 their centers
    records: np.ndarray                     # (m, 2) records that leave, by destination
    ends: list[int]                         # position p's are records[ends[p-1]:ends[p]]
    bound: NearestBound | None = None       # gaps of the kept rows, id order

    @property
    def outgoing(self) -> dict[int, np.ndarray]:
        """dst position -> its (m, 2) records, for each position that gets any."""
        if not len(self.records):
            return {}
        ends = self.ends
        return {pos: self.records[lo:hi] for pos, (lo, hi) in enumerate(zip([0, *ends], ends))
                if hi > lo}


def centers_compute(values: np.ndarray, centers: np.ndarray, ids: np.ndarray,
                    labels: np.ndarray, block_ends: np.ndarray, my_pos: int,
                    bound: NearestBound | None = None) -> CentersPass:
    """Reassign this position's samples against the full center list.

    `ids` ascend, `labels` are their current centers and `bound` their
    bound from the last pass (see `assign_bounded`).  A new center is owned
    by the first block that ends after it, which skips empty blocks; one
    k-entry table gives each center's owner, and each row reads its
    destination there.  The rows that stay are taken by a mask, so they
    keep their ascending order, and stay int64 ids and labels; only the
    rows that leave become records, grouped by a stable sort on
    destination, so each destination's records are one slice of a single
    array, ids still ascending.
    """
    ends = [0] * len(block_ends)
    if len(ids) == 0:
        return CentersPass(changed=False, kept_ids=ids, kept_labels=labels,
                           records=_NO_RECORDS, ends=ends)
    new, changed, fresh = assign_bounded(values, centers, labels, bound, ids)
    owner = np.searchsorted(block_ends, np.arange(len(centers)), side="right")
    dest = owner.take(new)
    stay = dest == my_pos
    if fresh is not None:
        fresh = NearestBound(fresh.gap[stay], fresh.ref)
    leave = np.flatnonzero(~stay)
    records = _NO_RECORDS
    if len(leave):
        leave = leave.take(np.argsort(dest.take(leave), kind="stable"))
        records = make_records(ids.take(leave), new.take(leave))
        ends = np.cumsum(np.bincount(dest.take(leave), minlength=len(block_ends))).tolist()
    return CentersPass(changed=changed, kept_ids=ids[stay], kept_labels=new[stay],
                       records=records, ends=ends, bound=fresh)


def centers_recompute(values: np.ndarray, ids: np.ndarray, labels: np.ndarray,
                      centers_prev: np.ndarray, block: tuple[int, int]) -> np.ndarray:
    """New rows for the owned center block; empty centers keep their row."""
    lo, hi = block
    sums, counts = center_sums(take_rows(values, ids), labels, range(lo, hi))
    return center_means(sums, counts, centers_prev[lo:hi])


class CentersPosition:
    """One position of the center split: its center block and the samples
    currently assigned to it, as ascending ids with aligned labels and, for
    a block over the size rule, their bound (see `SamplesPosition`)."""

    def __init__(self, values: np.ndarray, k: int, procs: int, position: int):
        self.values = values
        self.blocks = partition(k, procs)
        self.block_ends = np.array([hi for _, hi in self.blocks], dtype=np.int64)
        self.slices = partition(len(values), procs)
        self.reset(position)

    def reset(self, position: int) -> None:
        """The bootstrap state: the position owns the ascending ids of its
        slice of the samples, each labelled center 0 as a placeholder, so
        pass 1 assigns every row once, spread evenly over the positions.

        Where a row starts moves no value: its label depends only on its
        row and the centers, and a center's recompute adds its members in
        ascending id order whichever position assigned them.
        """
        self.position = position
        lo, hi = self.slices[position]
        self.ids = np.arange(lo, hi, dtype=np.int64)
        self.labels = np.zeros(hi - lo, dtype=np.int64)
        self.bound: NearestBound | None = None

    @property
    def load(self) -> int:
        return len(self.ids)

    def compute(self, centers: np.ndarray) -> CentersPass:
        return centers_compute(self.values, centers, self.ids, self.labels,
                               self.block_ends, self.position, self.bound)

    def absorb(self, out: CentersPass, batches: list[np.ndarray]) -> None:
        """Keep what stayed and take over the records handed to this
        position.  An arrival's gap is 0, so the next pass reassigns it.

        The kept ids and each batch are ascending runs of ids, so with no
        arrival the kept rows are already in order, and otherwise one
        stable argsort of the concatenation merges the runs.
        """
        ids, labels = out.kept_ids, out.kept_labels
        gap = None if out.bound is None else out.bound.gap
        if batches:
            arrived = np.concatenate(batches).astype(np.int64)
            ids = np.concatenate([ids, arrived[:, 0]])
            order = np.argsort(ids, kind="stable")
            ids = ids.take(order)
            labels = np.concatenate([labels, arrived[:, 1]]).take(order)
            if gap is not None:
                gap = np.concatenate([gap, np.zeros(len(arrived))]).take(order)
        self.ids, self.labels = ids, labels
        self.bound = None if gap is None else NearestBound(gap, out.bound.ref)

    def recompute(self, centers: np.ndarray) -> np.ndarray:
        return centers_recompute(self.values, self.ids, self.labels, centers,
                                 self.blocks[self.position])

    def entries(self) -> np.ndarray:
        return make_records(self.ids, self.labels)


# -- splitting the samples ---------------------------------------------------

def samples_compute(values_block: np.ndarray, centers: np.ndarray, prev_assign: np.ndarray,
                    bound: NearestBound | None,
                    ) -> tuple[np.ndarray, bool, NearestBound | None]:
    """Reassign one block, only the rows whose nearest center can have
    changed since `bound` (see `assign_bounded`); returns the labels,
    whether any changed, and the bound for `centers`."""
    return assign_bounded(values_block, centers, prev_assign, bound)


def samples_partials(values_block: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """One block's (k, d+1) float64 partials: row j holds center j's
    coordinate sums, then its member count, so one reduce adds both."""
    return np.column_stack(center_sums(values_block, assign, range(k)))


class SamplesPosition:
    """One position of the sample split: a fixed block of samples, their
    labels, and the bound that lets a pass skip the rows whose label cannot
    change.  The bound is a cache that no checkpoint holds: `reset` drops
    it, so the next pass reassigns the whole block."""

    def __init__(self, values: np.ndarray, k: int, procs: int, position: int):
        self.values = values
        self.k = k
        self.blocks = partition(len(values), procs)
        self.reset(position)

    def reset(self, position: int) -> None:
        """The bootstrap state: every sample starts on center 0."""
        self.position = position
        lo, hi = self.blocks[position]
        self.labels = np.zeros(hi - lo, dtype=np.int64)
        self.bound: NearestBound | None = None

    @property
    def load(self) -> int:
        return len(self.labels)

    def _block(self) -> np.ndarray:
        lo, hi = self.blocks[self.position]
        return self.values[lo:hi]

    def compute(self, centers: np.ndarray) -> bool:
        """Reassign the block; True when a label changed."""
        self.labels, changed, self.bound = samples_compute(
            self._block(), centers, self.labels, self.bound)
        return changed

    def partials(self) -> np.ndarray:
        return samples_partials(self._block(), self.labels, self.k)

    def means(self, total: np.ndarray, centers_prev: np.ndarray) -> np.ndarray:
        """Centers from the `samples_partials` arrays added over every
        position: sums in the first d columns, then counts, which float64
        holds exactly below 2^53."""
        sums, counts = total[:, :-1], total[:, -1]
        if int(counts.sum()) != len(self.values):
            raise InvariantError(
                f"count conservation violated: {int(counts.sum())} != {len(self.values)}")
        return center_means(sums, counts, centers_prev)

    def entries(self) -> np.ndarray:
        lo, hi = self.blocks[self.position]
        return make_records(np.arange(lo, hi), self.labels)


POSITIONS = {Method.CENTERS: CentersPosition, Method.SAMPLES: SamplesPosition}


# -- single-process driver ---------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    centers: np.ndarray
    assign: np.ndarray


@dataclass
class ParallelResult:
    centroids: CentroidSet
    table: AssignmentTable
    iterations: int
    converged: bool
    history: list[IterationRecord] = field(default_factory=list)
    transfers: list[int] = field(default_factory=list)   # CENTERS only


def _centers_step(states: list[CentersPosition], centers: np.ndarray,
                  t: int, transfers: list[int]) -> tuple[np.ndarray, bool]:
    passes = [s.compute(centers) for s in states]
    changed = any(out.changed for out in passes)
    sent = [out.outgoing for out in passes]
    moved = 0
    for p, state in enumerate(states):
        batches = [out[p] for src, out in enumerate(sent) if src != p and p in out]
        moved += sum(len(b) for b in batches)
        state.absorb(passes[p], batches)
    transfers.append(moved)
    if not needs_recompute(changed, t):
        return centers, changed
    new_centers = centers.copy()
    for state in states:
        lo, hi = state.blocks[state.position]
        new_centers[lo:hi] = state.recompute(centers)
    return new_centers, changed


def _samples_step(states: list[SamplesPosition], centers: np.ndarray,
                  t: int, transfers: list[int]) -> tuple[np.ndarray, bool]:
    changed = False
    for state in states:
        changed = state.compute(centers) or changed
    if not needs_recompute(changed, t):
        return centers, changed
    total = sum(s.partials() for s in states)     # ascending fold, same as the reduction
    return states[0].means(total, centers), changed


def run_parallel(data: Dataset, cfg: KmeansConfig, procs: int, method: Method,
                 record_history: bool = False,
                 force_iters: int | None = None) -> ParallelResult:
    """Failure-free lockstep execution of either decomposition.

    With `force_iters` the convergence exit is ignored and exactly that many
    passes run (centers stop moving once assignments settle, so extra passes
    are fixed points).
    """
    if procs < 1:
        raise ConfigError(f"procs must be >= 1, got {procs}")
    if force_iters is not None and force_iters < 1:
        raise ConfigError(f"force_iters must be >= 1, got {force_iters}")
    states = [POSITIONS[method](data.values, cfg.k, procs, p) for p in range(procs)]
    step = _centers_step if method is Method.CENTERS else _samples_step
    centers = init_centroids(data, cfg.k).centers.copy()

    limit = force_iters if force_iters is not None else cfg.max_iters
    history: list[IterationRecord] = []
    transfers: list[int] = []
    iterations = 0
    converged = False
    for t in range(1, limit + 1):
        centers, changed = step(states, centers, t, transfers)
        iterations = t
        if not changed:
            converged = True
        if record_history:
            assign = gather_labels([s.entries() for s in states], data.n)
            history.append(IterationRecord(t, centers.copy(), assign))
        if converged and force_iters is None:
            break

    centroids, table = final_result([s.entries() for s in states], data.n, cfg.k,
                                    centers, converged)
    return ParallelResult(
        centroids=centroids,
        table=table,
        iterations=iterations,
        converged=converged,
        history=history,
        transfers=transfers,
    )
