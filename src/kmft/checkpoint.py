"""In-memory mirrored checkpoints: ring placement, two-phase commit, restore.

Each rank keeps its own snapshot in a local segment and pushes a copy into a
mirror region on its left ring neighbor with a one-sided write.  A snapshot
becomes a recovery point in two phases: `start` captures the state and
launches the transfer; `land` waits on the transfer token, and `confirm`
commits once a group exchange that every member entered after its `land`
completes, proving every rank's copy is delivered somewhere else.  In the
runtime that exchange is the next pass, or the end-of-run barrier after a
capture at the last iteration.  The checkpointer itself runs no
collective.

The checkpointer numbers its epochs: `start` opens the one after the last
commit and returns its number, `confirm` settles it, and `fetch`/`adopt` act
on the last committed epoch.  A started epoch that never commits is dropped
with its checkpointer, and the next start reuses its number and slot.

Snapshot regions are double-buffered by epoch parity.  A crash while epoch e
is in flight can therefore never touch the bytes of epoch e-1, which stays
the valid recovery point.

A snapshot is algorithm-based: it holds the k x d centers that the pass of
its iteration read, not the labels that pass derived from them.  Labels are
a pure function of those centers, so on restore the runtime runs that pass
again from them, and the capture that replayed iteration makes protects the
restored state anew.  Every slot has the same size whatever the number of
samples.

Payload layout (little-endian): epoch u64, iteration u64, then the k x d
centers as row-major float64 values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    PolicyError,
    SequenceError,
    Timeout,
    UnrecoverableError,
)
from .simcluster import Group, RankContext, Token, VtPhase

SEG_LOCAL = 0    # my own snapshots, double-buffered
SEG_MIRROR = 1   # snapshots I hold for my right neighbor

HEADER = struct.Struct("<QQ")
_F8 = np.dtype("<f8")


@dataclass(frozen=True)
class CheckpointPolicy:
    interval: int

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError(f"checkpoint interval must be >= 1, got {self.interval}")


def mirror_target(rank: int, group: Group) -> int:
    """The rank that stores `rank`'s snapshot copy: its left ring neighbor."""
    if group.size < 2:
        raise PolicyError("ring mirroring needs at least two members")
    pos = group.position(rank)
    return group.members[(pos - 1) % group.size]


def mirror_source(rank: int, group: Group) -> int:
    """The rank whose snapshot copy `rank` stores (inverse of mirror_target)."""
    if group.size < 2:
        raise PolicyError("ring mirroring needs at least two members")
    pos = group.position(rank)
    return group.members[(pos + 1) % group.size]


def slot_size(k: int, d: int) -> int:
    """Bytes of one slot: the header and k x d float64 centers."""
    if k < 0 or d < 0:
        raise ConfigError(f"center shape must be non-negative, got ({k}, {d})")
    return HEADER.size + k * d * _F8.itemsize


def segment_spec(k: int, d: int) -> dict[int, int]:
    """Segment sizes to preallocate at spawn for k x d centers."""
    size = 2 * slot_size(k, d)
    return {SEG_LOCAL: size, SEG_MIRROR: size}


def slot_offset(epoch: int, k: int, d: int) -> int:
    return slot_size(k, d) * (epoch % 2)


def encode_snapshot(epoch: int, iteration: int, centers: np.ndarray) -> bytes:
    if epoch < 1:
        raise ConfigError(f"epoch must be >= 1, got {epoch}")
    return HEADER.pack(epoch, iteration) + np.asarray(centers, dtype=_F8).tobytes()


def decode_snapshot(buf: bytes, k: int, d: int) -> tuple[int, int, np.ndarray]:
    """(epoch, iteration, read-only k x d centers) from a slot's bytes."""
    need = slot_size(k, d)
    if len(buf) < need:
        raise ConfigError(f"snapshot of {k}x{d} centers needs {need} bytes, "
                          f"buffer has {len(buf)}")
    epoch, iteration = HEADER.unpack_from(buf, 0)
    centers = np.frombuffer(buf, dtype=_F8, count=k * d, offset=HEADER.size)
    return epoch, iteration, centers.reshape(k, d)


class Checkpointer:
    """Per-rank checkpoint driver bound to one group incarnation.

    Rebuilt after every recovery (the ring follows the group); the driver
    carries `last_committed` across incarnations.  `fresh` names the members
    promoted in the recovery that built it, whose own slots hold nothing yet.
    """

    def __init__(self, ctx: RankContext, group: Group, k: int, d: int,
                 last_committed: int | None = None, fresh: tuple[int, ...] = ()):
        group.position(ctx.rank)
        self.ctx = ctx
        self.group = group
        self.shape = (k, d)
        self.target = mirror_target(ctx.rank, group)
        self.last_committed = last_committed
        self.fresh = fresh
        self._started: tuple[int, Token] | None = None

    @property
    def slot_bytes(self) -> int:
        return slot_size(*self.shape)

    def start(self, iteration: int, centers: np.ndarray) -> int:
        """Capture the centers iteration's pass read as the next epoch; launch
        its mirror transfer."""
        if self._started is not None:
            raise SequenceError(
                f"epoch {self._started[0]} is still started; confirm it first")
        if np.shape(centers) != self.shape:
            raise ConfigError(
                f"centers of shape {np.shape(centers)} do not fit the "
                f"{self.shape} slot")
        epoch = (self.last_committed or 0) + 1
        payload = encode_snapshot(epoch, iteration, centers)
        off = slot_offset(epoch, *self.shape)
        with self.ctx.phase(VtPhase.CKPT_START):
            self.ctx.charge(self.ctx.costs.payload_ticks(len(payload)))  # local copy
            self.ctx.write_local(SEG_LOCAL, off, payload)
            token = self.ctx.write_remote(self.target, SEG_MIRROR, off, payload)
        self._started = (epoch, token)
        return epoch

    def land(self) -> None:
        """Wait for the started epoch's transfer, if any.  A FAILED token (its
        holder died) is left for the group exchange that follows to detect."""
        if self._started is not None:
            with self.ctx.phase(VtPhase.CKPT_COMMIT):
                self.ctx.wait(self._started[1])

    def confirm(self) -> bool:
        """Commit the started epoch, if any (True then), once a group exchange
        that every member entered after its `land` has completed."""
        if self._started is None:
            return False
        self.last_committed = self._started[0]
        self._started = None
        return True

    def fetch(self) -> tuple[int, np.ndarray]:
        """Recover (iteration, centers) for the last committed epoch.

        Reads the local slot first; a survivor always satisfies that.  A
        replacement rank holds nothing locally and falls back to the copy its
        ring target stores, which the left neighbor kept on behalf of the
        failed predecessor at the same position.  Every member captures the
        same bytes for an epoch, so when that holder is dead or stale any
        other member's own slot serves: they are tried in ring order from
        the right neighbor, skipping stale epochs and dead holders, each of
        which costs the world's timeout (its read raises Timeout).  Fresh
        members are not tried: whether one has adopted yet depends on the
        schedule, and so would the reads charged.
        """
        epoch = self.last_committed
        if epoch is None:
            raise SequenceError("no epoch is committed yet")
        off = slot_offset(epoch, *self.shape)
        buf = self.ctx.read_local(SEG_LOCAL, off, self.slot_bytes)
        got = self._try_decode(buf, epoch)
        if got is not None:
            return got
        members = self.group.members
        pos = self.group.position(self.ctx.rank)
        copies = [(self.target, SEG_MIRROR),
                  *((peer, SEG_LOCAL) for peer in members[pos + 1:] + members[:pos]
                    if peer not in self.fresh)]
        for holder, seg in copies:
            try:
                buf = self.ctx.read_remote(holder, seg, off, self.slot_bytes)
            except Timeout:
                continue
            got = self._try_decode(buf, epoch)
            if got is not None:
                return got
        raise UnrecoverableError(
            f"epoch {epoch}: no live member of {members} holds a valid copy")

    def adopt(self, iteration: int, centers: np.ndarray) -> None:
        """Write a fetched payload into the local slot (heals a replacement)."""
        epoch = self.last_committed
        payload = encode_snapshot(epoch, iteration, centers)
        self.ctx.write_local(SEG_LOCAL, slot_offset(epoch, *self.shape), payload)

    def _try_decode(self, buf: bytes, epoch: int) -> tuple[int, np.ndarray] | None:
        try:
            got_epoch, iteration, centers = decode_snapshot(buf, *self.shape)
        except ConfigError:
            return None
        if got_epoch != epoch:
            return None
        return iteration, centers
