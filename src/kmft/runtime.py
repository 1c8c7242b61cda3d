"""Fault-tolerant clustering driver over the simulated cluster.

Every rank runs the same program.  Compute positions iterate the chosen
decomposition; ranks beyond the active set park as spares and wait for a
wake or a shutdown.  A failure is detected where the algorithm already
communicates: the operation that misses a dead member (the centers pass's
exchange, the samples pass's reduce, the means step's broadcast or reduce,
or the one barrier each group generation runs when the loop ends) has
already given up on it after the world's timeout, so the survivor only
reads the state vector, which names the corrupt ranks.
Every survivor then derives the identical recovery plan, a `_Recovery`, with
no further coordination; the coordinator sends it to the promoted spares as
their wake, and all apply it alike: promote spares into the failed positions
(ascending) under a fresh group generation, fetch the last committed
snapshot (survivors from their local slot, replacements from the failed
rank's mirror holder or, when it died too, from any member's own slot) and
roll back to the start of the pass that snapshot's iteration ran.  A
recovery runs no exchange and no barrier of its own.

A snapshot of iteration t holds c_{t-1}, the centers pass t read, and not
the labels it derived: labels_t = assign(values, c_{t-1}) whatever rows are
assigned.  A restore resets its position to the bootstrap state (every
sample on center 0, in the center split all owned by position 0) and sets
the iteration to t - 1 and the centers to c_{t-1}, so the loop's own
iteration t replays the pass: it assigns every sample once, its means step
rebuilds c_t with c_{t-1} as the previous centers, which a center with no
members keeps, as the pass did, and its capture protects the state again,
which pass t + 1 commits.  The replayed pass starts from placeholder
labels, so its changed flag says nothing: it always recomputes and never
counts as converged.  That is what the lost pass did, since a free run
captures only after a pass that changed; in a forced run a settled pass
skipped its recompute, and recomputing from unchanged labels gives back
the centers it read.

A centers pass is one `exchange`: each rank deposits its changed flag and
the records its pass built, grouped by destination position, and gets
back the OR of every flag and the records handed to it, so the flags
settle convergence without a reduce.  No failure point lies inside a
pass, so every survivor that completes the exchange holds every flag and
takes the same branch.

The next pass commits a checkpoint: each rank waits for its own mirror
transfer between the pass's compute and its exchange, so the transfer
overlaps the compute, and a completed exchange proves every copy landed (a
kill before it restores the epoch before).  A capture at the last
iteration, which no pass follows, lands before the end-of-run barrier,
and that barrier commits it.

Each rank holds one `parallel` position state, the same one the lockstep
driver steps; this module adds only the messages and collectives between
its calls, the checkpoints and the recovery.  The finished driver is the
rank's result: the outcome is assembled from the drivers' attributes once
they agree, and a spare that was never woken returns None.

One join (position, checkpointer and rollback; after a recovery also the
recovery event) serves the fresh start, survivors and woken spares, and
one detect-and-recover step serves every group operation that gave up,
in an iteration or in the end-of-run barrier.

A run is given up one way: a step that cannot continue raises
UnrecoverableError, and `_ActiveDriver.run` alone catches it, ending the run
unconverged with the error as its `reason`; a woken spare joins inside it.

A failure before the first commit rolls back to the seed state instead of a
snapshot, which the run configuration alone rebuilds; pass 1 then runs as
it always does.

Rendezvous discipline: collective tags carry the iteration or epoch they
belong to (a generation runs its end-of-run barrier at most once, so that
tag needs neither), and the group generation separates the tag spaces of
different incarnations, so a rank can never meet a stale slot after
recovery rewinds the iteration counter.  A pass's exchange is a slot of
the same kind: a survivor that recovers late never meets the records a
faster survivor already deposited under the new generation, and a rank
still waiting in the old generation gives up on a peer that moved on.
Messages carry only the coordinator's wake to a promoted spare and the
shutdown of the spares left parked, so a parked spare takes whatever
arrives first.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .checkpoint import (
    Checkpointer,
    CheckpointPolicy,
    segment_spec,
)
from .errors import ConfigError, InvariantError, PeerDead, Timeout, UnrecoverableError
from .kmeans import (
    AssignmentTable,
    CentroidSet,
    Dataset,
    KmeansConfig,
    init_centroids,
)
from .parallel import (
    POSITIONS,
    CentersPosition,
    Method,
    SamplesPosition,
    final_result,
    needs_recompute,
)
from .simcluster import (
    DEFAULT_TIMEOUT,
    ClusterHandle,
    FailPhase,
    FailureEvent,
    FailurePlan,
    Group,
    Health,
    RankContext,
    VtPhase,
    spawn_world,
)


# every failure point of the rank program, as (phase, substep)
KILL_POINTS = ((FailPhase.DURING_COMPUTE, 0), (FailPhase.BEFORE_BARRIER, 0),
               *((FailPhase.DURING_CHECKPOINT, s) for s in range(3)))


@dataclass(frozen=True)
class WorldLayout:
    """Compute positions plus an ordered pool of initially idle spares."""

    active: int
    spares: int = 0

    def __post_init__(self) -> None:
        if self.active < 2:
            raise ConfigError(f"need at least 2 active ranks, got {self.active}")
        if self.spares < 0:
            raise ConfigError(f"spares must be >= 0, got {self.spares}")

    @property
    def world_size(self) -> int:
        return self.active + self.spares

    @property
    def spare_ids(self) -> tuple[int, ...]:
        return tuple(range(self.active, self.active + self.spares))


@dataclass
class RecoveryEvent:
    """One rank's view of one recovery (the digest is its own restore)."""

    completed_iteration: int
    failed: tuple[int, ...]
    promoted: tuple[int, ...]
    epoch: int | None
    resumed_iteration: int
    position: int
    restored_digest: str | None


@dataclass(frozen=True)
class _Recovery:
    """One recovery, as every survivor derives it; also a promoted spare's wake."""

    group: Group
    last_committed: int | None
    recoveries: int
    converged: bool
    events: tuple[RecoveryEvent, ...]    # the recoveries before this one
    completed: int
    failed: tuple[int, ...]
    promoted: tuple[int, ...]


@dataclass
class RunOutcome:
    centroids: CentroidSet | None
    table: AssignmentTable | None
    iterations: int
    converged: bool
    recoveries: int
    epochs_committed: int
    reason: str
    ledger: dict[int, dict[VtPhase, int]]
    vt_total: dict[int, int]
    recovery_events: list[dict]
    captures: dict[int, list[tuple[int, int, str]]]   # position -> (epoch, it, digest)
    final_group: tuple[int, ...]
    wall_ms: float
    trace: list | None = None
    unfired: tuple[FailureEvent, ...] = ()    # planned kills whose rank never died


def detect_failures(ctx: RankContext, group: Group) -> tuple[int, ...]:
    """The corrupt members of `group`, in group order.

    Called after a collective has timed out on a missing member; that
    collective already waited the world's timeout, so this only reads the
    state vector and never waits again.
    """
    with ctx.phase(VtPhase.DETECT):
        sv = ctx.state_vector()
    return tuple(m for m in group.members if sv[m] is Health.CORRUPT)


def _digest(centers: np.ndarray, epoch: int, iteration: int) -> str:
    h = hashlib.sha256()
    h.update(epoch.to_bytes(8, "little"))
    h.update(iteration.to_bytes(8, "little"))
    h.update(centers.tobytes())
    return h.hexdigest()


# -- per-method communication around the parallel.py position state ---------
#
# A pass runs `land` between its compute and its exchange and returns whether
# any rank's labels changed; a means function returns the new centers.


def _centers_pass(ctx: RankContext, group: Group, state: CentersPosition,
                  centers: np.ndarray, t: int, land: Callable[[], None]) -> bool:
    """One exchange of (changed, records) among the positions; True when any
    rank's labels changed.  A dead or departed peer fails it."""
    with ctx.phase(VtPhase.COMPUTE):
        ctx.charge(ctx.costs.compute_per_sample * state.load)
        out = state.compute(centers)
    land()
    with ctx.phase(VtPhase.COMM):
        changed, batches = ctx.exchange(group, out.changed, out.records, out.ends,
                                        ("cx", t))
        state.absorb(out, batches)
    return changed


def _centers_means(ctx: RankContext, group: Group, state: CentersPosition,
                   centers: np.ndarray, t: int) -> np.ndarray:
    with ctx.phase(VtPhase.COMPUTE):
        mine = state.recompute(centers)
        ctx.charge(ctx.costs.compute_per_sample * state.load)
    # `partition` puts empty blocks last, so the first min(k, size) positions
    # own every center, in order, and their blocks stack into the new centers
    roots = group.members[:min(len(centers), group.size)]
    with ctx.phase(VtPhase.COMM):
        blocks = ctx.broadcast(group, roots, mine, ("cb", t))
    return np.concatenate(blocks)


def _samples_pass(ctx: RankContext, group: Group, state: SamplesPosition,
                  centers: np.ndarray, t: int, land: Callable[[], None]) -> bool:
    with ctx.phase(VtPhase.COMPUTE):
        ctx.charge(ctx.costs.compute_per_sample * state.load)
        changed = state.compute(centers)
    land()
    with ctx.phase(VtPhase.COMM):
        return ctx.reduce_all(group, int(changed), ("chg", t)) > 0


def _samples_means(ctx: RankContext, group: Group, state: SamplesPosition,
                   centers: np.ndarray, t: int) -> np.ndarray:
    with ctx.phase(VtPhase.COMPUTE):
        partials = state.partials()
        ctx.charge(ctx.costs.compute_per_sample * state.load)
    with ctx.phase(VtPhase.COMM):
        total = ctx.reduce_all(group, partials, ("ms", t))
    return state.means(total, centers)


_EXCHANGES = {Method.CENTERS: (_centers_pass, _centers_means),
              Method.SAMPLES: (_samples_pass, _samples_means)}


class _ActiveDriver:
    """The per-rank control loop shared by originals and woken spares."""

    def __init__(self, ctx: RankContext, data: Dataset, cfg: KmeansConfig,
                 method: Method, policy: CheckpointPolicy, layout: WorldLayout,
                 force_iters: int | None, init_centers: np.ndarray):
        self.ctx = ctx
        self.data = data
        self.cfg = cfg
        self.policy = policy
        self.layout = layout
        self.force_iters = force_iters
        # the last iteration; a free run lowers it to the one that converged
        self.cap = force_iters if force_iters is not None else cfg.max_iters

        self.group = Group(tuple(range(layout.active)))
        self.position = 0
        self.state = POSITIONS[method](data.values, cfg.k, layout.active, 0)
        self._pass, self._means = _EXCHANGES[method]
        self.init_centers = init_centers      # read-only, shared by every rank
        self.centers = init_centers.copy()
        self.it = 0
        # the centers pass `it` read; no means step writes into its input,
        # so holding the reference keeps them
        self.read = init_centers
        # the iteration of the restored snapshot, 0 for the seed state
        self.restored = 0
        self.recoveries = 0      # also the spares consumed: one per failed rank
        self.events: list[RecoveryEvent] = []
        self.captures: list[tuple[int, int, str]] = []
        self.cp: Checkpointer | None = None      # built once membership is known
        self.converged = False
        self.reason = ""

    # -- joining a position ----------------------------------------------

    def _join(self, group: Group, last_committed: int | None,
              fresh: tuple[int, ...] = ()) -> str | None:
        """Take this rank's position in `group` and roll back to the last
        commit; `fresh` are the members just promoted."""
        self.group = group
        self.position = group.position(self.ctx.rank)
        self.cp = Checkpointer(self.ctx, group, self.cfg.k, self.data.d,
                               last_committed=last_committed, fresh=fresh)
        return self._restore()

    def _rejoin(self, plan: _Recovery) -> None:
        """Apply a recovery plan, shared by survivors and promoted spares."""
        self.recoveries = plan.recoveries
        self.converged = plan.converged
        self.events = list(plan.events)
        digest = self._join(plan.group, plan.last_committed, plan.promoted)
        self.events.append(RecoveryEvent(
            completed_iteration=plan.completed,
            failed=plan.failed,
            promoted=plan.promoted,
            epoch=plan.last_committed,
            resumed_iteration=self.restored,
            position=self.position,
            restored_digest=digest,
        ))

    # -- main loop -----------------------------------------------------

    def run(self, wake: _Recovery | None = None) -> "_ActiveDriver":
        """Join (fresh, or as the spare `wake` promotes) and iterate to the end."""
        try:
            if wake is None:
                self._join(self.group, last_committed=None)
            else:
                self._rejoin(wake)
            while True:
                try:
                    if self.it >= self.cap:
                        self._end()
                        break
                    self._iterate(self.it + 1)
                except (Timeout, PeerDead):
                    self._recover_after_fault()
        except UnrecoverableError as exc:
            self.reason = str(exc)
            self.converged = False
        self._shutdown_parked()
        return self

    def _iterate(self, t: int) -> None:
        """Iteration `t`: its pass, which commits a pending capture, its means
        step, and the capture when `t` checkpoints."""
        self.ctx.failure_point(t, FailPhase.DURING_COMPUTE)
        read = self.centers
        # a replayed pass starts from the bootstrap labels, not from those
        # of pass t - 1, so it always recomputes and never converges
        changed = self._pass(self.ctx, self.group, self.state, read, t,
                             self.cp.land) or t == self.restored
        if self.cp.confirm():
            self.ctx.failure_point(self.it, FailPhase.DURING_CHECKPOINT, 2)
        if needs_recompute(changed, t):
            self.centers = self._means(self.ctx, self.group, self.state, read, t)
        self.it, self.read = t, read
        if not changed:
            self.converged = True
            if self.force_iters is None:
                self.cap = t
                return
        self.ctx.failure_point(t, FailPhase.BEFORE_BARRIER)
        self.ctx.failure_point(t, FailPhase.DURING_CHECKPOINT, 0)
        if t % self.policy.interval == 0:
            self._capture(t)
            self.ctx.failure_point(t, FailPhase.DURING_CHECKPOINT, 1)

    def _end(self) -> None:
        """The group's one end-of-run barrier, which also commits a capture at
        the last iteration: no failure point follows it."""
        self.cp.land()
        with self.ctx.phase(VtPhase.DETECT):
            self.ctx.barrier(self.group, "end")
        self.cp.confirm()

    # -- checkpointing ---------------------------------------------------

    def _capture(self, iteration: int) -> None:
        epoch = self.cp.start(iteration, self.read)
        self.captures.append((epoch, iteration, _digest(self.read, epoch, iteration)))

    # -- failure handling ------------------------------------------------

    def _recover_after_fault(self) -> None:
        """A collective timed out or met a dead peer: recover from the dead,
        or give up when the state vector names none."""
        failed = detect_failures(self.ctx, self.group)
        if not failed:
            raise UnrecoverableError("communication fault without a detectable failure")
        self._recover(failed)

    def _recover(self, failed: tuple[int, ...]) -> None:
        failed = tuple(sorted(failed))
        pool = self.layout.spare_ids[self.recoveries:]
        if len(pool) < len(failed):
            raise UnrecoverableError(
                f"need {len(failed)} spares for {failed} but only {len(pool)} left")
        last = self.cp.last_committed
        promoted = tuple(pool[:len(failed)])
        members = list(self.group.members)
        for dead, spare in zip(failed, promoted):
            members[self.group.position(dead)] = spare
        plan = _Recovery(
            group=Group(tuple(members), self.group.generation + 1),
            last_committed=last, recoveries=self.recoveries + len(failed),
            converged=self.converged, events=tuple(self.events),
            completed=self.it, failed=failed, promoted=promoted)

        survivors = [m for m in self.group.members if m not in failed]
        if self.ctx.rank == min(survivors, key=self.group.position):
            for spare in promoted:
                self.ctx.send(spare, plan)
        self._rejoin(plan)

    def _restore(self) -> str | None:
        """Roll back to the start of the last committed epoch's pass, which
        the loop then runs again; the seed state when nothing is committed."""
        epoch = self.cp.last_committed
        self.state.reset(self.position)
        if epoch is None:
            self.restored, self.it, self.centers = 0, 0, self.init_centers.copy()
            return None
        with self.ctx.phase(VtPhase.RESTORE):
            iteration, read = self.cp.fetch()
            self.cp.adopt(iteration, read)
        self.restored, self.it, self.centers = iteration, iteration - 1, read
        return _digest(read, epoch, iteration)

    # -- termination -------------------------------------------------------

    def _shutdown_parked(self) -> None:
        sv = self.ctx.state_vector()
        alive = [m for m in self.group.members if sv[m] is Health.HEALTHY]
        if not alive or self.ctx.rank != min(alive, key=self.group.position):
            return
        for spare in self.layout.spare_ids[self.recoveries:]:
            self.ctx.send(spare, None)    # shut down


def _spare_program(ctx: RankContext, driver: _ActiveDriver) -> _ActiveDriver | None:
    """The woken spare's finished driver; None for a spare never woken."""
    try:
        with ctx.phase(VtPhase.COMM):     # parked time is waiting, not work
            _, wake = ctx.recv_any()
    except Timeout:
        return None     # every active rank is gone without a shutdown
    return None if wake is None else driver.run(wake)


def run_ft_kmeans(data: Dataset, cfg: KmeansConfig, method: Method,
                  policy: CheckpointPolicy, layout: WorldLayout,
                  plan: FailurePlan | None = None, seed: int = 0,
                  timeout: int = DEFAULT_TIMEOUT,
                  force_iters: int | None = None,
                  record_trace: bool = False) -> RunOutcome:
    """Run the chosen decomposition under failures with checkpoint/restart."""
    if force_iters is not None and force_iters < 1:
        raise ConfigError(f"force_iters must be >= 1, got {force_iters}")
    for ev in plan.events if plan is not None else ():
        if (ev.phase, ev.substep) not in KILL_POINTS:
            raise ConfigError(f"the rank program has no failure point "
                              f"{ev.phase.value}:{ev.substep}")
    started = time.perf_counter()
    # once per run, before any rank starts: a k the data cannot seed is an
    # InitError here, not in every rank thread
    init_centers = init_centroids(data, cfg.k).centers
    world = spawn_world(layout.world_size, plan=plan, seed=seed, timeout=timeout,
                        record_trace=record_trace,
                        segments=segment_spec(cfg.k, data.d))

    def program(ctx: RankContext):
        driver = _ActiveDriver(ctx, data, cfg, method, policy, layout,
                               force_iters, init_centers)
        if ctx.rank < layout.active:
            return driver.run()
        return _spare_program(ctx, driver)

    results = world.run({r: program for r in range(layout.world_size)})
    outcome = _assemble(world, results, data, cfg, started)
    if record_trace:
        outcome.trace = list(world.trace)
    sv = world.state_vector()
    outcome.unfired = tuple(ev for ev in (plan.events if plan else ())
                            if sv[ev.rank] is not Health.CORRUPT)
    return outcome


def _assemble(world: ClusterHandle, results: dict, data: Dataset,
              cfg: KmeansConfig, started: float) -> RunOutcome:
    ledger = {r: world.ledger(r) for r in range(world.world_size)}
    vt_total = {r: world.vt(r) for r in range(world.world_size)}
    finals: list[_ActiveDriver] = [res.value for res in results.values()
                                   if res.status == "done" and res.value is not None]
    if not finals:
        return RunOutcome(
            centroids=None, table=None, iterations=0, converged=False,
            recoveries=0, epochs_committed=0, reason="every active rank failed",
            ledger=ledger, vt_total=vt_total, recovery_events=[], captures={},
            final_group=(), wall_ms=(time.perf_counter() - started) * 1000.0)
    ref = min(finals, key=lambda d: d.position)
    for attr in ("group", "it", "converged", "recoveries", "reason",
                 "cp.last_committed"):
        vals = {repr(attrgetter(attr)(d)) for d in finals}
        if len(vals) != 1:
            raise InvariantError(f"ranks disagree on {attr}: {sorted(vals)}")

    centroids = None
    table = None
    if not ref.reason:
        centroids, table = final_result([d.state.entries() for d in finals], data.n,
                                        cfg.k, ref.centers, ref.converged)

    merged_events = []
    for i, base in enumerate(ref.events):
        digests: dict[int, str] = {}
        for d in finals:
            if i < len(d.events):
                ev = d.events[i]
                if ev.restored_digest is not None:
                    digests[ev.position] = ev.restored_digest
        merged_events.append({
            "completed_iteration": base.completed_iteration,
            "failed": base.failed,
            "promoted": base.promoted,
            "epoch": base.epoch,
            "resumed_iteration": base.resumed_iteration,
            "digests": digests,
        })

    return RunOutcome(
        centroids=centroids,
        table=table,
        iterations=ref.it,
        converged=ref.converged,
        recoveries=ref.recoveries,
        epochs_committed=ref.cp.last_committed or 0,
        reason=ref.reason,
        ledger=ledger,
        vt_total=vt_total,
        recovery_events=merged_events,
        captures={d.position: d.captures for d in finals},
        final_group=ref.group.members,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
