"""Simulated multi-rank cluster: segments, messages, collectives, failures.

Rank programs are plain blocking Python callables.  Each rank runs in its own
thread, and a baton scheduler lets exactly one rank thread run at a time.  The
scheduler keeps one table, the ranks waiting for the baton with the condition
each waits on, and gives the baton up one way, a switch into that table.  A
rank keeps the baton until it must wait: an operation that only touches the
caller's own state or queues work for others (charge, a failure point that
does not fire, local and remote writes, send) never switches, and a receive
or collective switches only when it cannot complete yet.  Operations that
observe other ranks without waiting (state vector, segment reads, token
waits, a failure point that fires) switch with no condition first, so a rank
polling them cannot starve the rest.  The baton goes to the first waiting
rank, in a seeded round-robin order, whose condition holds; conditions are
re-checked at every handoff.  Two runs with the same seed replay the
identical event order, and results do not depend on the seed.

Each rank is one RankContext.  It holds the rank's own state (its clock,
per-phase ledger, entered generation and the set of corrupt peers reported
to it), and every operation is the RankContext method of that name.  The
ClusterHandle holds only what ranks share: channels (one FIFO per ordered
pair of ranks, built at spawn), segments, pending transfers, collective
slots, the death record, the results and the scheduler.  State is touched
only by the rank holding the baton, so the scheduler's own lock and one
baton lock per rank are the only synchronization.  A deadlock is found
structurally: when no rank can run, the run raises SimDeadlock.  A livelock,
a run that never ends, raises it once the WALL_GUARD of host seconds has
passed.  After either, the released ranks only unwind, and a rank that never
waits meets the poison at its next operation.

Time is virtual: every rank owns an integer tick clock, operations charge
costs from the one CostModel, `COSTS`, and synchronizing operations pull a
rank's clock up to the completion instant.  Every tick charged is also
attributed to the rank's current accounting phase, so per-phase ledgers
always sum to the rank's total virtual time.

Failure model is crash-stop.  A FailurePlan names (rank, iteration, phase)
instants; when the rank's program reaches that point its context is killed,
its state flips to CORRUPT forever, and it never communicates again.  A
failure is reported only where it is decided in virtual time, never by where
the victim's thread happened to run.  As in ULFM, a send raises PeerDead
only to a rank the sender already knows is corrupt (from a state vector or
a read that reported it); otherwise the message to a corrupt rank is lost.
A token wait always completes at the transfer's ready time and reports
FAILED when the destination's clock at its kill was below that time.

Messages only wake and stop parked ranks: a message arrives msg_latency
after its send, and `recv_any` takes the oldest message of the lowest
source that has one queued, syncs to its arrival and charges recv.  It
raises Timeout once every other rank is corrupt, finished or itself
waiting in `recv_any`, since a rank waiting there cannot send.

Barrier, reduce, broadcast and exchange share one rendezvous, and a caller
waits in it at most once: each member deposits into a slot keyed by
generation, kind and tag, and a deposit made before its owner died still
counts.  A rank enters a generation by joining one of its slots.  Each
deposit is copied once, and a slot's outcome is settled once, not once per
caller: a broadcast freezes its payload copies and hands every caller the
same read-only ones, and a reduce hands each caller its own copy of the one
sum.  In a broadcast only the roots deposit; one call broadcasts from each
root in turn and costs exactly what one single-root broadcast per root,
made in that order, costs.

The rendezvous is the one give-up rule, and the world's `timeout` its one
patience, as every blocking GASPI procedure takes a timeout: once a member
that owes a deposit is dead, has finished or has entered a later
generation (in a broadcast, only the first root without a deposit
counts), every caller's clock moves to the instant it began waiting (its
arrival, or in a broadcast the end of the turn before that root's, if
later) plus the timeout and it gets Timeout; nobody is left blocked.

An exchange is an all-to-all: each member charges one send per peer, then
deposits its changed flag and one record array grouped by destination
position, and gets back the OR of every flag and the slices addressed to
it, read-only views of one frozen copy per sender.  It costs exactly what
one `send` to each peer, then one receive from each, in position order,
cost: per peer q in position order the caller syncs to q's entry clock +
send x (1 + the caller's index among q's peers) + msg_latency and charges
recv.  Once every member has deposited, the first caller to leave settles
every member's clock and records at once.

One-sided writes land with all-or-nothing visibility: the payload becomes
visible at the destination when the writer waits on the completion token, or
lazily once the destination's own clock passes the transfer's ready time.
A reader never observes a torn payload.
"""

from __future__ import annotations

import enum
import functools
import random
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    PeerDead,
    SegmentError,
    SimDeadlock,
    Timeout,
)


class Health(enum.Enum):
    HEALTHY = "healthy"
    CORRUPT = "corrupt"


class Mode(enum.Enum):
    """The one scheduling mode; kept because RunConfig still names it."""

    DETERMINISTIC = "det"


class FailPhase(enum.Enum):
    BEFORE_BARRIER = "barrier"
    DURING_COMPUTE = "compute"
    DURING_CHECKPOINT = "ckpt"


class VtPhase(enum.Enum):
    COMPUTE = "compute"
    COMM = "comm"
    CKPT_START = "ckpt_start"
    CKPT_COMMIT = "ckpt_commit"
    DETECT = "detect"
    RESTORE = "restore"


_PHASES = tuple(VtPhase)     # a ledger's list holds one count per phase, in this order


class TokenState(enum.Enum):
    PENDING = "pending"
    DELIVERED = "delivered"
    FAILED = "failed"


@dataclass(frozen=True)
class FailureEvent:
    """Kill `rank` when its program reaches (iteration, phase, substep)."""

    rank: int
    iteration: int
    phase: FailPhase
    substep: int = 0


class FailurePlan:
    """A set of planned kills, at most one per rank."""

    def __init__(self, events: list[FailureEvent] | tuple[FailureEvent, ...] = ()):
        self.events = tuple(events)
        seen: set[int] = set()
        for ev in self.events:
            if ev.iteration < 1:
                raise ConfigError(f"kill iteration must be >= 1, got {ev.iteration}")
            if ev.rank in seen:
                raise ConfigError(f"more than one kill for rank {ev.rank}")
            seen.add(ev.rank)

    def validate(self, world_size: int) -> None:
        for ev in self.events:
            if not 0 <= ev.rank < world_size:
                raise ConfigError(f"kill targets rank {ev.rank}, world has {world_size}")

    def match(self, rank: int, iteration: int, phase: FailPhase, substep: int) -> bool:
        for ev in self.events:
            if (ev.rank, ev.iteration, ev.phase, ev.substep) == (rank, iteration, phase, substep):
                return True
        return False


@dataclass(frozen=True)
class Group:
    """An ordered set of ranks plus a generation counter.

    Positions are the stable identity across recoveries: a replacement rank
    takes over the failed rank's position, and the generation increments.
    """

    members: tuple[int, ...]
    generation: int = 0

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ConfigError("group must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ConfigError(f"duplicate members in group {self.members}")

    @property
    def size(self) -> int:
        return len(self.members)

    def position(self, rank: int) -> int:
        try:
            return self.members.index(rank)
        except ValueError:
            raise ConfigError(f"rank {rank} is not in group {self.members}") from None


@dataclass(frozen=True)
class CostModel:
    """Integer tick costs for simulated operations."""

    compute_per_sample: int = 1
    send: int = 2
    recv: int = 2
    msg_latency: int = 10
    barrier: int = 20
    collective_base: int = 20
    rdma_base: int = 10
    bytes_per_tick: int = 64      # payload ticks = nbytes // bytes_per_tick
    state_query: int = 1

    def payload_ticks(self, nbytes: int) -> int:
        return nbytes // self.bytes_per_tick

    def transfer_ticks(self, nbytes: int) -> int:
        return self.rdma_base + self.payload_ticks(nbytes)


COSTS = CostModel()          # the one cost table every rank charges from
DEFAULT_TIMEOUT = 1000
WALL_GUARD = 300.0        # host seconds before a run that never ends is poisoned


class _Killed(Exception):
    """Internal control-flow signal: this rank was killed by the plan."""


@dataclass(eq=False)          # identity equality: `_pending.remove` needs it
class Token:
    """One one-sided write; the writer waits on it for completion."""

    seq: int
    src: int
    dst: int
    seg: int
    offset: int
    payload: bytes
    ready_at: int
    state: TokenState = TokenState.PENDING


@dataclass
class _Collective:
    members: tuple[int, ...]
    roots: tuple[int, ...] | None = None     # a broadcast's roots, in turn order
    deposits: dict[int, int] = field(default_factory=dict)   # rank -> arrival vt
    values: dict[int, object] = field(default_factory=dict)   # private copies
    result: object = None    # a reduce's sum, broadcast turn ends or exchange outcome
    payloads: list = field(default_factory=list)   # a broadcast's, in turn order
    combined: bool = False
    returned: int = 0        # members that have left the operation
    error: str = ""          # why the slot failed: every caller raises it

    def turn_ends(self) -> list[int]:
        """Each root's completion instant, up to the first without a deposit.

        Root i broadcasts once it has arrived and root i-1's turn has ended,
        so its turn ends at max(arrival, previous end) + collective_base +
        payload_ticks.  Computed once, with the payloads of the same roots:
        the prefix is fixed by the time any caller asks, since every root in
        it has deposited and the root after it, if any, is dead.
        """
        if not self.combined:
            ends: list[int] = []
            for root in self.roots:
                if root not in self.deposits:
                    break
                value = self.values[root]
                start = max(self.deposits[root], ends[-1]) if ends else self.deposits[root]
                ends.append(start + COSTS.collective_base
                            + COSTS.payload_ticks(_payload_nbytes(value)))
                self.payloads.append(_freeze(value))
            self.result = ends
            self.combined = True
        return self.result

    def settle(self) -> list[tuple[bool, int, list]]:
        """A complete exchange's outcome for every member, by position,
        computed once: the OR of every flag, the member's clock once its
        receives are done (`_finish_offsets`), and the non-empty record
        slices addressed to it, in position order.
        """
        if not self.combined:
            members = self.members
            entry = np.array([self.deposits[m] for m in members], dtype=np.int64)
            clocks = (entry + _finish_offsets(len(members))).max(axis=1).tolist()
            inboxes = [[] for _ in members]
            for q, m in enumerate(members):
                _, records, ends = self.values[m]
                if len(records):
                    lo = 0
                    for p, hi in enumerate(ends):
                        if hi > lo and p != q:
                            inboxes[p].append(records[lo:hi])
                        lo = hi
            flag = any(changed for changed, _, _ in self.values.values())
            self.result = [(flag, clock, inbox) for clock, inbox in zip(clocks, inboxes)]
            self.combined = True
        return self.result


@functools.cache
def _finish_offsets(size: int) -> np.ndarray:
    """offsets[p, q] + q's deposit clock: a bound on when member p's receives
    in a complete exchange of `size` members end; the largest over q is
    that instant.

    A member deposits once its P - 1 sends are charged, one per peer in
    position order, and member p starts its receives then.  It receives
    each peer's records, in position order, once they arrive; its k-th
    peer q's arrive at q's deposit - send x (P - 2 - p's index among q's
    peers) + msg_latency.  Each receive charges recv, so p ends at the
    largest of its deposit + (P - 1) recv (the diagonal) and every arrival
    + (P - 1 - k) recv.
    """
    peers = size - 1
    p = np.arange(size)[:, None]
    q = p.T
    offsets = (COSTS.send * (1 + p - (q < p) - peers) + COSTS.msg_latency
               + COSTS.recv * (peers - (q - (q > p))))
    np.fill_diagonal(offsets, COSTS.recv * peers)
    offsets.flags.writeable = False
    return offsets


def _always() -> bool:
    return True


class _DetScheduler:
    """Baton passing over one table of waiting ranks, in seeded rotation.

    `_waiting` maps each rank that waits for the baton to the condition it
    waits on; the holder and finished ranks are not in it.  Each rank owns
    one baton lock, held while the rank waits: a grant releases it and
    `pause` acquires it again.  `switch` is the one way to give the baton
    up, and `_release` the one way a run ends early.
    """

    def __init__(self, order: list[int]):
        self._order = list(order)
        self._lock = threading.Lock()
        self._batons = {r: threading.Lock() for r in order}
        for baton in self._batons.values():
            baton.acquire()
        self._waiting = dict.fromkeys(order, _always)
        self._ptr = 0
        self._poison: BaseException | None = None
        self._done = threading.Event()

    def _handoff(self) -> None:
        n = len(self._order)
        for i in range(n):
            idx = (self._ptr + i) % n
            rank = self._order[idx]
            until = self._waiting.get(rank)
            if until is not None and until():
                self._ptr = (idx + 1) % n
                del self._waiting[rank]
                self._batons[rank].release()
                return
        if self._waiting:
            blocked = sorted(self._waiting)
            self._release(SimDeadlock(f"no runnable rank; blocked: {blocked}"))
        self._done.set()

    def _release(self, poison: BaseException) -> None:
        """End the run: every rank wakes and unwinds on `poison`.

        Every baton still held is released, so a waiting rank, one not yet
        started and the holder's next pause all return at once.  A baton
        granted but not yet taken back is already free.  The table empties,
        so a rank that finishes while the others unwind neither polls their
        conditions nor replaces the poison.
        """
        self._waiting.clear()
        self._poison = poison
        for baton in self._batons.values():
            if baton.locked():
                baton.release()

    def check(self) -> None:
        """Raise the poison once the run is over, so released ranks unwind."""
        if self._poison is not None:
            raise self._poison

    def pause(self, rank: int) -> None:
        """Wait until granted the baton."""
        self._batons[rank].acquire()
        if self._poison is not None:
            raise self._poison

    def pass_baton(self) -> None:
        """Hand the baton on: the first turn, and the turn after a rank ends."""
        with self._lock:
            self._handoff()

    def switch(self, rank: int, until=_always) -> None:
        """Give the baton up; get it back once `until()` holds."""
        with self._lock:
            self.check()      # after a release the table takes no one back
            self._waiting[rank] = until
            self._handoff()
        self.pause(rank)

    def join(self, wall_timeout: float) -> None:
        if not self._done.wait(wall_timeout):
            with self._lock:
                self._release(SimDeadlock("wall-clock guard expired"))
        self.check()


@dataclass
class RankResult:
    status: str                 # "done" | "killed" | "error"
    value: object = None
    error: BaseException | None = None


class RankContext:
    """One rank: its clock, ledger, generation and known-dead set, and every
    operation its program makes on the cluster."""

    def __init__(self, world: "ClusterHandle", rank: int):
        self._world = world
        self.rank = rank
        self._sched = world._sched
        self._phase = 0                       # index into _PHASES: COMPUTE
        self._vt = 0
        self._ledger = [0] * len(_PHASES)
        self._generation = 0                  # entered so far
        self._known_dead: set[int] = set()    # corrupt ranks reported to this one
        self._inbox = world._channels[rank]   # one FIFO per source rank

    @property
    def costs(self) -> CostModel:
        return COSTS

    @property
    def vt(self) -> int:
        """This rank's current virtual clock, in ticks."""
        return self._vt

    def phase(self, p: VtPhase) -> "_PhaseScope":
        """Charge the ticks of a `with` block to `p`, then restore the outer
        phase, also when the block raises."""
        return _PhaseScope(self, _PHASES.index(p))

    # -- clock and generation ----------------------------------------------
    #
    # Operations charge through these helpers, never through another public
    # operation, so a tracer that wraps the public ones counts only the
    # program's own calls.

    def _charge(self, ticks: int) -> None:
        poison = self._sched._poison    # also stops send and write_remote after a poison
        if poison is not None:
            raise poison
        if ticks < 0:
            raise ConfigError("cannot charge negative ticks")
        self._vt += ticks
        self._ledger[self._phase] += ticks

    def _sync_to(self, instant: int) -> None:
        if instant > self._vt:
            self._charge(instant - self._vt)

    # -- local work ------------------------------------------------------

    def charge(self, ticks: int) -> None:
        """Account `ticks` of local work to the current phase."""
        self._charge(ticks)

    def failure_point(self, iteration: int, phase: FailPhase, substep: int = 0) -> None:
        poison = self._sched._poison
        if poison is not None:
            raise poison
        w = self._world
        rank = self.rank
        if not w.plan.match(rank, iteration, phase, substep):
            return
        w._sched.switch(rank)
        w._death_vt[rank] = self._vt
        # nothing addressed to a dead rank is ever read again
        for queue in self._inbox:
            queue.clear()
        w._pending = [xf for xf in w._pending if xf.dst != rank]
        if w.record_trace:
            w._trace_event("kill", rank, iteration, phase.value, substep, self._vt)
        raise _Killed()

    # -- segments --------------------------------------------------------

    def write_local(self, seg: int, offset: int, payload: bytes) -> None:
        w = self._world
        w._sched.check()
        w._check_bounds(self.rank, seg, offset, len(payload))
        w._settle_segment(self.rank, seg)
        buf = w._segment(self.rank, seg)
        buf[offset:offset + len(payload)] = payload

    def read_local(self, seg: int, offset: int, size: int) -> bytes:
        w = self._world
        w._sched.switch(self.rank)
        w._check_bounds(self.rank, seg, offset, size)
        w._settle_segment(self.rank, seg)
        buf = w._segment(self.rank, seg)
        return bytes(buf[offset:offset + size])

    def write_remote(self, dst: int, seg: int, offset: int, payload: bytes) -> Token:
        w = self._world
        w._check_rank(dst)
        w._check_bounds(dst, seg, offset, len(payload))
        self._charge(COSTS.rdma_base)
        w._xfer_seq += 1
        xf = Token(w._xfer_seq, self.rank, dst, seg, offset, bytes(payload),
                   ready_at=self._vt + COSTS.transfer_ticks(len(payload)))
        w._pending.append(xf)
        if w.record_trace:
            w._trace_event("rdma", self.rank, dst, seg, offset, len(payload))
        return xf

    def wait(self, token: Token) -> TokenState:
        w = self._world
        w._sched.switch(self.rank)
        if token.state is not TokenState.PENDING:
            return token.state
        # the outcome is known at the ready time, whichever it is
        self._sync_to(token.ready_at)
        died = w._death_vt.get(token.dst)
        if died is not None and died < token.ready_at:
            token.state = TokenState.FAILED
            if w.record_trace:
                w._trace_event("token", self.rank, "failed", token.dst)
            return token.state
        # earlier writes to the same region land first, preserving order
        for other in [other for other in w._pending
                      if (other.dst, other.seg) == (token.dst, token.seg)
                      and other.seq <= token.seq]:
            w._deliver(other)
        token.state = TokenState.DELIVERED
        if w.record_trace:
            w._trace_event("token", self.rank, "delivered", token.dst)
        return token.state

    def read_remote(self, owner: int, seg: int, offset: int, size: int) -> bytes:
        w = self._world
        w._check_rank(owner)
        w._sched.switch(self.rank)
        if not w._alive(owner):
            self._known_dead.add(owner)
            raise PeerDead(f"rank {owner} is corrupt; its segments are unreadable")
        w._check_bounds(owner, seg, offset, size)
        w._settle_segment(owner, seg)
        self._charge(COSTS.transfer_ticks(size))
        buf = w._segment(owner, seg)
        if w.record_trace:
            w._trace_event("read", self.rank, owner, seg, offset, size)
        return bytes(buf[offset:offset + size])

    # -- messages --------------------------------------------------------

    def send(self, dst: int, payload: object) -> None:
        w = self._world
        if not 0 <= dst < w.world_size:
            raise ConfigError(f"no such rank {dst}")
        self._charge(COSTS.send)
        if dst in self._known_dead:
            raise PeerDead(f"send to corrupt rank {dst}")
        if w.record_trace:
            w._trace_event("send", self.rank, dst)
        if dst in w._death_vt:
            return
        w._channels[dst][self.rank].append((_share(payload), self._vt + COSTS.msg_latency))

    def recv_any(self) -> tuple[int, object]:
        """The source and payload of the oldest message from the lowest
        source that has one queued (module docstring)."""
        w = self._world
        rank = self.rank
        inbox = self._inbox

        def ready() -> bool:
            if any(inbox):
                return True
            return all(not w._alive(s) or s in w._results or s in w._in_recv_any
                       for s in range(w.world_size) if s != rank)

        if not ready():
            w._in_recv_any.add(rank)
            w._sched.switch(rank, ready)
            w._in_recv_any.discard(rank)
        for src, queue in enumerate(inbox):
            if queue:
                payload, arrival = queue.popleft()
                self._sync_to(arrival)
                self._charge(COSTS.recv)
                if w.record_trace:
                    w._trace_event("recv", rank, src)
                return src, payload
        raise Timeout("every peer is corrupt, finished or waiting in recv_any")

    # -- collectives -----------------------------------------------------

    def _slot(self, group: Group, key: tuple,
              roots: tuple[int, ...] | None = None) -> _Collective:
        """Open or join the slot `key` and enter the group's generation.

        The caller that opens the slot checks the roots; a later caller
        passes only if its roots and members match.  A caller that fails
        either check fails the slot, so every caller waiting in it, or
        joining it later, raises the same ConfigError, and none waits for a
        deposit that will never come.
        """
        w = self._world
        coll = w._collectives.get(key)
        if coll is None:
            coll = w._collectives[key] = _Collective(group.members, roots)
            if roots is not None:
                try:
                    _check_roots(group, roots)
                except ConfigError as exc:
                    coll.error = str(exc)
        elif coll.members != group.members or coll.roots != roots:
            coll.error = coll.error or f"collective tag {key} reused with different shape"
        if coll.error:
            raise ConfigError(coll.error)
        if group.generation > self._generation:
            self._generation = group.generation
            w._newest_generation = max(w._newest_generation, group.generation)
        return coll

    def _leave(self, key: tuple, coll: _Collective) -> None:
        coll.returned += 1
        if coll.returned == len(coll.members):
            del self._world._collectives[key]     # every member has left the slot

    def _rendezvous(self, group: Group, key: tuple, value: object,
                    roots: tuple[int, ...] | None = None) -> _Collective:
        """Deposit `value` and wait once for the slot; the one give-up of
        every group operation (module docstring).

        Every member deposits, or in a broadcast only `roots`.  A caller
        waits until all have, or until one that owes a deposit is gone
        (`ClusterHandle._owed_gone`); its timeout runs from its arrival, or
        in a broadcast from the end of the turn before the missing root's,
        if later.  A caller whose shape differs from the slot's fails it
        (`_slot`).
        """
        w = self._world
        rank = self.rank
        arrived = self._vt
        group.position(rank)  # membership check
        needed = group.members if roots is None else roots
        coll = self._slot(group, key, roots)
        if rank in needed:
            coll.deposits[rank] = arrived
            coll.values[rank] = _share(value)
        if w.record_trace:
            w._trace_event(key[1], rank, key)

        gen = key[0]

        def ready() -> bool:
            # polled at every handoff: the common case costs one comparison,
            # and while no rank has died, finished or moved on, no call
            if len(coll.deposits) == len(needed) or coll.error:
                return True
            return bool(w._death_vt or w._results or w._newest_generation > gen) \
                and w._owed_gone(coll, gen)

        if not ready():
            w._sched.switch(rank, ready)
        if coll.error:
            raise ConfigError(coll.error)
        self._leave(key, coll)
        if len(coll.deposits) < len(needed):
            since = arrived
            if roots is not None and coll.turn_ends():
                # the missing root's turn would start once the turn before it ends
                since = max(arrived, coll.turn_ends()[-1])
            self._sync_to(since + w.timeout)
            raise Timeout(f"{key[1]} {key[-1]}: a member died, finished or moved "
                          "on before its deposit")
        return coll

    def barrier(self, group: Group, tag: object) -> None:
        key = (group.generation, "bar", tag)
        coll = self._rendezvous(group, key, None)
        self._sync_to(max(coll.deposits.values()) + COSTS.barrier)
        if self._world.record_trace:
            self._world._trace_event("bar-ok", self.rank, key)

    def reduce_all(self, group: Group, value: object, tag: object) -> object:
        """The sum of every member's `value`, added in group position order.

        The values must agree in type, and arrays also in shape and dtype;
        otherwise every member raises ConfigError.
        """
        key = (group.generation, "red", tag)
        coll = self._rendezvous(group, key, value)
        if not coll.combined:
            parts = [coll.values[m] for m in coll.members]
            coll.result = _sum(parts) if _alike(parts) else _MISMATCH
            coll.combined = True
        if coll.result is _MISMATCH:
            raise ConfigError(f"reduce {tag!r}: members passed values that differ "
                              "in type, shape or dtype")
        self._sync_to(max(coll.deposits.values()) + COSTS.collective_base)
        return _share(coll.result)

    def broadcast(self, group: Group, roots: tuple[int, ...], payload: object,
                  tag: object) -> list:
        """Each of `roots` broadcasts its `payload` in turn; every caller gets
        the roots' payloads in that order.

        `roots` are distinct members of `group`; the payload of a caller that
        is not a root is ignored.  The call costs exactly what one broadcast
        per root, made in order, costs.  With e_i root i's arrival clock,
        its turn starts at D_0 = e_0 and D_i = max(e_i, C_{i-1}) and ends at
        C_i = D_i + collective_base + payload_ticks(nbytes_i); every caller
        syncs to the last C_i.  When root i is gone before its deposit,
        every caller syncs to max(its arrival, C_{i-1}) + timeout and raises
        Timeout.  A deposit made before its root died still counts.

        Each root's payload is copied once, when it deposits, and frozen
        when the slot settles: every caller gets the same read-only copies.
        """
        key = (group.generation, "bcast", tag)
        coll = self._rendezvous(group, key, payload, roots)
        self._sync_to(coll.turn_ends()[-1])
        return list(coll.payloads)

    def exchange(self, group: Group, changed: bool, records: np.ndarray,
                 ends: list[int], tag: object) -> tuple[bool, list[np.ndarray]]:
        """An all-to-all: each member hands every other one its rows of
        `records` and its `changed` flag.  Returns the OR of every member's
        flag and the non-empty record slices addressed to the caller, in
        position order, as read-only views of one frozen copy per sender.

        `records` rows are grouped by destination position: position p gets
        records[ends[p - 1]:ends[p]] (from row 0 for p = 0).  The call costs
        exactly what one `send` to each peer, then one receive from each, in
        position order, cost (module docstring); it gives up as every group
        operation does.  An `ends` that does not give one end per member
        fails the slot for every caller.
        """
        me = group.position(self.rank)
        key = (group.generation, "xchg", tag)
        if len(ends) != group.size:
            coll = self._slot(group, key)
            coll.error = f"exchange {tag!r}: {len(ends)} ends for {group.size} members"
            raise ConfigError(coll.error)
        self._charge(COSTS.send * (group.size - 1))
        coll = self._rendezvous(group, key, (changed, _freeze(_share(records)), tuple(ends)))
        flag, clock, inbox = coll.settle()[me]
        self._sync_to(clock)
        return flag, inbox

    def state_vector(self) -> dict[int, Health]:
        w = self._world
        w._sched.switch(self.rank)
        self._charge(COSTS.state_query)
        if w.record_trace:
            w._trace_event("sv", self.rank)
        self._known_dead.update(w._death_vt)
        return w.state_vector()


class _PhaseScope:
    """`RankContext.phase`'s `with` block: sets the phase on entry and puts
    the outer one back on exit."""

    __slots__ = ("_ctx", "_phase", "_outer")

    def __init__(self, ctx: RankContext, phase: int):
        self._ctx = ctx
        self._phase = phase

    def __enter__(self) -> None:
        ctx = self._ctx
        self._outer = ctx._phase
        ctx._phase = self._phase

    def __exit__(self, *exc: object) -> None:
        self._ctx._phase = self._outer


def _share(value: object) -> object:
    """Copy mutable payloads handed across ranks; leave immutables alone."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, bytearray):
        return bytes(value)
    return value


def _freeze(value: object) -> object:
    """Make a broadcast deposit's own array copy read-only, so callers can
    share it."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _check_roots(group: Group, roots: tuple[int, ...]) -> None:
    """A broadcast's roots are distinct members of `group`, at least one."""
    if not roots:
        raise ConfigError("broadcast needs at least one root")
    if len(set(roots)) != len(roots):
        raise ConfigError(f"duplicate broadcast roots {roots}")
    for root in roots:
        group.position(root)


class ClusterHandle:
    """A spawned world of ranks plus the transport state they share."""

    def __init__(self, world_size: int, plan: FailurePlan | None = None,
                 seed: int = 0, timeout: int = DEFAULT_TIMEOUT,
                 record_trace: bool = False,
                 segments: dict[int, int] | None = None):
        if world_size < 1:
            raise ConfigError(f"world_size must be >= 1, got {world_size}")
        if timeout < 1:
            raise ConfigError(f"timeout must be >= 1 tick, got {timeout}")
        if plan is None:
            plan = FailurePlan()
        plan.validate(world_size)
        self.world_size = world_size
        self.plan = plan
        self.timeout = timeout       # ticks a collective waits for a dead member
        self.record_trace = record_trace
        self.trace: list[tuple] = []

        # _channels[dst][src]: FIFO of (payload, arrival vt)
        self._channels: list[list[deque[tuple[object, int]]]] = [
            [deque() for _ in range(world_size)] for _ in range(world_size)]
        self._death_vt: dict[int, int] = {}      # the one death record: clock at the kill
        self._segments: dict[tuple[int, int], bytearray] = {}
        self._pending: list[Token] = []
        self._collectives: dict[tuple, _Collective] = {}
        self._in_recv_any: set[int] = set()
        self._newest_generation = 0      # the highest any rank has entered
        self._xfer_seq = 0
        self._results: dict[int, RankResult] = {}

        order = list(range(world_size))
        random.Random(seed).shuffle(order)
        self.schedule_order = order
        self._sched = _DetScheduler(order)
        self._ctxs = {r: RankContext(self, r) for r in range(world_size)}

        for seg, size in (segments or {}).items():
            for r in range(world_size):
                self._segments[(r, seg)] = bytearray(size)

    # -- running programs --------------------------------------------------

    def run(self, programs: dict[int, object]) -> dict[int, RankResult]:
        """Execute one program per rank; returns a result for every rank."""
        if sorted(programs) != list(range(self.world_size)):
            raise ConfigError("need exactly one program per rank")
        threads = []
        for rank in range(self.world_size):
            t = threading.Thread(target=self._thread_body, args=(rank, programs[rank]),
                                 name=f"rank-{rank}", daemon=True)
            threads.append(t)
            t.start()
        self._sched.pass_baton()
        self._sched.join(WALL_GUARD)
        for t in threads:
            t.join()      # every rank has finished; the thread is exiting
        for rank in range(self.world_size):
            res = self._results.get(rank)
            if res is not None and res.status == "error":
                raise res.error
        return dict(self._results)

    def _thread_body(self, rank: int, fn) -> None:
        try:
            self._sched.pause(rank)      # the first turn
            value = fn(self._ctxs[rank])
            self._results[rank] = RankResult("done", value=value)
        except _Killed:
            self._results[rank] = RankResult("killed")
        except BaseException as exc:  # noqa: BLE001 - reported via RankResult
            self._results[rank] = RankResult("error", error=exc)
        finally:
            self._sched.pass_baton()     # a rank has finished once it has a result

    # -- inspection (tests, reporting) --------------------------------------

    def state_vector(self) -> dict[int, Health]:
        return {r: Health.CORRUPT if r in self._death_vt else Health.HEALTHY
                for r in range(self.world_size)}

    def vt(self, rank: int) -> int:
        return self._ctxs[rank]._vt

    def ledger(self, rank: int) -> dict[VtPhase, int]:
        return dict(zip(_PHASES, self._ctxs[rank]._ledger))

    def segment_bytes(self, rank: int, seg: int) -> bytes:
        self._settle_segment(rank, seg)
        return bytes(self._segment(rank, seg))

    # -- shared transport state (touched by the ranks' operations) ------------

    def _trace_event(self, *entry: object) -> None:
        """Record one event; every caller tests `record_trace` first, so a
        run without a trace never builds an entry."""
        self.trace.append(entry)

    def _segment(self, rank: int, seg: int) -> bytearray:
        try:
            return self._segments[(rank, seg)]
        except KeyError:
            raise SegmentError(f"rank {rank} has no segment {seg}") from None

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ConfigError(f"no such rank {rank}")

    def _check_bounds(self, rank: int, seg: int, offset: int, length: int) -> None:
        buf = self._segment(rank, seg)
        if offset < 0 or length < 0 or offset + length > len(buf):
            raise SegmentError(
                f"access [{offset}, {offset + length}) outside segment {seg} "
                f"of rank {rank} (size {len(buf)})")

    def _settle_segment(self, owner: int, seg: int) -> None:
        """Apply pending transfers whose ready time the owner's clock passed."""
        if not self._alive(owner):
            return
        now = self._ctxs[owner]._vt
        for xf in [xf for xf in self._pending
                   if xf.dst == owner and xf.seg == seg and xf.ready_at <= now]:
            self._deliver(xf)

    def _deliver(self, xf: Token) -> None:
        """Land a pending transfer; the cluster keeps no reference to it after this."""
        buf = self._segment(xf.dst, xf.seg)
        buf[xf.offset:xf.offset + len(xf.payload)] = xf.payload
        self._pending.remove(xf)
        if self.record_trace:
            self._trace_event("deliver", xf.src, xf.dst, xf.seg, xf.offset, len(xf.payload))

    def _alive(self, rank: int) -> bool:
        return rank not in self._death_vt

    def _owed_gone(self, coll: _Collective, generation: int) -> bool:
        """True once a member that owes `coll`, a slot of `generation`, a
        deposit is dead, has finished or has entered a later generation.
        In a broadcast only the first root without a deposit counts.
        """
        dead, finished, ctxs = self._death_vt, self._results, self._ctxs
        if coll.roots is None:
            owing = [m for m in coll.members if m not in coll.deposits]
        else:
            owing = [next(r for r in coll.roots if r not in coll.deposits)]
        return any(m in dead or m in finished or ctxs[m]._generation > generation
                   for m in owing)


def _payload_nbytes(value: object) -> int:
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, np.ndarray):
        return value.nbytes
    return 8


_MISMATCH = object()     # a reduce slot whose members passed unlike values


def _alike(values: list[object]) -> bool:
    """True when every value has the first's type, and shape and dtype for
    arrays."""
    first = values[0]
    for v in values[1:]:
        if type(v) is not type(first):
            return False
        if isinstance(v, np.ndarray) and (v.shape, v.dtype) != (first.shape, first.dtype):
            return False
    return True


def _sum(values: list[object]) -> object:
    acc = values[0]      # a deposit's own copy, never handed out as is
    for v in values[1:]:
        acc = acc + v
    return acc


def spawn_world(world_size: int, plan: FailurePlan | None = None,
                seed: int = 0, timeout: int = DEFAULT_TIMEOUT,
                record_trace: bool = False,
                segments: dict[int, int] | None = None) -> ClusterHandle:
    """Create a world of `world_size` ranks, all HEALTHY, clocks at zero."""
    return ClusterHandle(world_size, plan=plan, seed=seed, timeout=timeout,
                         record_trace=record_trace, segments=segments)
