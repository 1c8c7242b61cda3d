"""Simulated cluster: scheduling, transport, collectives, failure injection."""

import random
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmft import simcluster
from kmft.errors import ConfigError, PeerDead, SegmentError, SimDeadlock, Timeout
from kmft.simcluster import (
    CostModel,
    FailPhase,
    FailureEvent,
    FailurePlan,
    Group,
    Health,
    TokenState,
    VtPhase,
    spawn_world,
)


def full_group(world_size):
    return Group(members=tuple(range(world_size)))


def make_pairs(pairs):
    """(m, 2) little-endian u64 records."""
    return np.array(pairs, dtype="<u8").reshape(-1, 2)


class TestSpawn:
    def test_world_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            spawn_world(0)

    @pytest.mark.parametrize("timeout", [0, -5])
    def test_timeout_below_one_tick_rejected(self, timeout):
        with pytest.raises(ConfigError, match="timeout"):
            spawn_world(2, timeout=timeout)

    @pytest.mark.parametrize("op", [
        lambda ctx: ctx.send(5, "x"),
        lambda ctx: ctx.write_remote(5, 0, 0, b"x"),
        lambda ctx: ctx.read_remote(5, 0, 0, 1),
    ], ids=["send", "write_remote", "read_remote"])
    def test_operation_naming_a_rank_outside_the_world_rejected(self, op):
        w = spawn_world(2, segments={0: 16})
        with pytest.raises(ConfigError, match="no such rank 5"):
            w.run({0: op, 1: lambda ctx: None})
        assert not any(queue for row in w._channels for queue in row)

    def test_initial_state(self):
        w = spawn_world(4)
        assert w.state_vector() == {r: Health.HEALTHY for r in range(4)}
        assert all(w.vt(r) == 0 for r in range(4))

    def test_singleton_world_allowed(self):
        w = spawn_world(1)
        res = w.run({0: lambda ctx: "ok"})
        assert res[0].value == "ok"

    def test_schedule_order_is_seed_derived(self):
        w = spawn_world(8, seed=17)
        expect = list(range(8))
        random.Random(17).shuffle(expect)
        assert w.schedule_order == expect

    def test_plan_rejects_out_of_range_rank(self):
        plan = FailurePlan([FailureEvent(9, 1, FailPhase.DURING_COMPUTE)])
        with pytest.raises(ConfigError):
            spawn_world(4, plan=plan)

    def test_plan_rejects_double_kill(self):
        with pytest.raises(ConfigError):
            FailurePlan([
                FailureEvent(1, 1, FailPhase.DURING_COMPUTE),
                FailureEvent(1, 2, FailPhase.BEFORE_BARRIER),
            ])

    def test_plan_rejects_iteration_zero(self):
        with pytest.raises(ConfigError):
            FailurePlan([FailureEvent(0, 0, FailPhase.DURING_COMPUTE)])


class TestGroup:
    def test_position(self):
        g = Group(members=(3, 1, 4))
        assert g.position(3) == 0
        assert g.position(4) == 2

    def test_position_of_outsider(self):
        g = Group(members=(0, 1))
        with pytest.raises(ConfigError):
            g.position(7)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ConfigError):
            Group(members=(0, 1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Group(members=())


class TestCostModel:
    def test_payload_ticks_floor(self):
        c = CostModel(bytes_per_tick=64)
        assert c.payload_ticks(0) == 0
        assert c.payload_ticks(63) == 0
        assert c.payload_ticks(64) == 1
        assert c.payload_ticks(6400) == 100

    def test_transfer_adds_base(self):
        c = CostModel(rdma_base=10, bytes_per_tick=64)
        assert c.transfer_ticks(128) == 12


class TestChargeAndLedger:
    def test_charge_accumulates(self):
        w = spawn_world(2)

        def prog(ctx):
            ctx.charge(7)
            ctx.charge(5)
            return None

        w.run({0: prog, 1: prog})
        assert w.vt(0) == 12 and w.vt(1) == 12

    def test_ledger_sums_to_vt(self):
        """Every charged tick lands in exactly one phase bucket."""
        w = spawn_world(1)

        def prog(ctx):
            ctx.charge(3)
            with ctx.phase(VtPhase.DETECT):
                ctx.charge(11)
                with ctx.phase(VtPhase.RESTORE):
                    ctx.charge(2)
            with ctx.phase(VtPhase.CKPT_START):
                ctx.charge(5)
            return None

        w.run({0: prog})
        led = w.ledger(0)
        assert led[VtPhase.COMPUTE] == 3
        assert led[VtPhase.DETECT] == 11
        assert led[VtPhase.RESTORE] == 2
        assert led[VtPhase.CKPT_START] == 5
        assert sum(led.values()) == w.vt(0)

    def test_phase_scope_restores_the_outer_phase_when_its_body_raises(self):
        w = spawn_world(1)

        def prog(ctx):
            with ctx.phase(VtPhase.DETECT):
                with pytest.raises(ValueError):
                    with ctx.phase(VtPhase.COMM):
                        ctx.charge(3)
                        raise ValueError("body fails")
                ctx.charge(5)
            ctx.charge(7)

        w.run({0: prog})
        led = w.ledger(0)
        assert (led[VtPhase.COMM], led[VtPhase.DETECT], led[VtPhase.COMPUTE]) == (3, 5, 7)

    def test_nested_scopes_charge_the_innermost_phase(self):
        w = spawn_world(1)

        def prog(ctx):
            with ctx.phase(VtPhase.RESTORE):
                with ctx.phase(VtPhase.CKPT_START):
                    with ctx.phase(VtPhase.COMM):
                        ctx.charge(4)
                        ctx.send(0, b"x")       # an operation's own charges too
                        ctx.recv_any()

        w.run({0: prog})
        led = w.ledger(0)
        assert led[VtPhase.COMM] == w.vt(0) > 4
        assert all(n == 0 for p, n in led.items() if p is not VtPhase.COMM)

    def test_ledger_has_every_phase_and_sums_to_vt(self):
        w, _ = TestDeterminism._busy_world(seed=2)
        for r in range(4):
            led = w.ledger(r)
            assert list(led) == list(VtPhase)
            assert sum(led.values()) == w.vt(r) > 0


class TestOperationContract:
    """A tracer counts each public RankContext callable as one operation."""

    OPS = {"charge", "failure_point", "write_local", "read_local", "write_remote",
           "wait", "read_remote", "send", "recv_any", "barrier",
           "reduce_all", "broadcast", "exchange", "state_vector"}

    def test_public_callables_are_the_operations_and_phase(self):
        public = {name for name, value in vars(simcluster.RankContext).items()
                  if not name.startswith("_") and callable(value)}
        assert public == self.OPS | {"phase"}

    def test_operations_charge_without_calling_charge(self, monkeypatch):
        counted = []
        charge = simcluster.RankContext.charge

        def counting_charge(ctx, ticks):
            counted.append(ticks)
            charge(ctx, ticks)

        monkeypatch.setattr(simcluster.RankContext, "charge", counting_charge)
        w = spawn_world(2, segments={0: 16})
        group = full_group(2)

        def prog(ctx):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                ctx.charge(4)
            ctx.send(peer, b"x")
            ctx.recv_any()
            ctx.wait(ctx.write_remote(peer, 0, 0, b"abcd"))
            ctx.barrier(group, "b")
            ctx.read_remote(peer, 0, 0, 4)
            ctx.reduce_all(group, 1, "r")
            ctx.broadcast(group, (0,), b"y" if ctx.rank == 0 else None, "c")[0]
            ctx.exchange(group, True, make_pairs([(ctx.rank, peer)]), [1 - ctx.rank, 1], "x")
            ctx.state_vector()

        w.run({0: prog, 1: prog})
        assert counted == [4]
        assert w.vt(0) > 4      # the other operations did charge


class TestMessages:
    def test_fifo_between_pair(self):
        w = spawn_world(2)

        def sender(ctx):
            for i in range(5):
                ctx.send(1, ("msg", i))

        def receiver(ctx):
            return [ctx.recv_any() for _ in range(5)]

        res = w.run({0: sender, 1: receiver})
        assert res[1].value == [(0, ("msg", i)) for i in range(5)]

    def test_recv_any_charges_and_syncs_latency(self):
        w = spawn_world(2)

        def sender(ctx):
            ctx.send(1, "x")

        def receiver(ctx):
            ctx.recv_any()
            return ctx.vt

        res = w.run({0: sender, 1: receiver})
        # sender vt 2 after send, arrival 2+10, +2 recv cost
        assert res[1].value == 14

    def test_send_to_corrupt_peer_raises(self):
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(2, plan=plan)

        def sender(ctx):
            while ctx.state_vector()[1] is Health.HEALTHY:
                ctx.charge(1)
            try:
                ctx.send(1, "x")
            except PeerDead:
                return "peerdead"
            return "sent"

        def victim(ctx):
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        res = w.run({0: sender, 1: victim})
        assert res[0].value == "peerdead"
        assert res[1].status == "killed"

    def test_recv_any_drains_predeath_messages_then_times_out(self):
        """Messages sent before a crash stay deliverable; after that, Timeout."""
        plan = FailurePlan([FailureEvent(0, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(2, plan=plan)

        def victim(ctx):
            ctx.send(1, "last words")
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        def survivor(ctx):
            first = ctx.recv_any()
            try:
                ctx.recv_any()
            except Timeout:
                return (first, "timeout")
            return (first, "unexpected")

        res = w.run({0: victim, 1: survivor})
        assert res[1].value == ((0, "last words"), "timeout")

    def test_recv_any_from_finished_peer_raises_timeout(self):
        w = spawn_world(2)

        def quiet(ctx):
            return None

        def waiter(ctx):
            try:
                ctx.recv_any()
            except Timeout:
                return "timeout"
            return "unexpected"

        res = w.run({0: quiet, 1: waiter})
        assert res[1].value == "timeout"

    def test_recv_any_picks_lowest_source_first(self):
        w = spawn_world(3)
        g = full_group(3)

        def sender(tag):
            def prog(ctx):
                ctx.send(0, tag)
                ctx.barrier(g, "sync")
            return prog

        def collector(ctx):
            ctx.barrier(g, "sync")  # both messages queued now
            a = ctx.recv_any()
            b = ctx.recv_any()
            return [a, b]

        res = w.run({0: collector, 1: sender("one"), 2: sender("two")})
        assert res[0].value == [(1, "one"), (2, "two")]

    def test_ranks_all_waiting_in_recv_any_time_out(self):
        """A rank waiting in recv_any cannot send, so nobody may wait for it."""
        w = spawn_world(3)

        def parked(ctx):
            try:
                ctx.recv_any()
            except Timeout:
                return "timeout"
            return "unexpected"

        res = w.run({0: parked, 1: parked, 2: lambda ctx: None})
        assert res[0].value == "timeout"
        assert res[1].value == "timeout"

    def test_send_to_unreported_corrupt_peer_is_lost(self):
        """Only a death the sender has seen raises at the send."""
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(3, plan=plan)
        pair = Group((0, 1))

        def sender(ctx):
            ctx.send(1, "never read")
            ctx.barrier(pair, "queued")
            ctx.recv_any()              # rank 1 is dead by now, but unseen
            ctx.send(1, "lost")
            ctx.state_vector()
            try:
                ctx.send(1, "refused")
            except PeerDead:
                return "peerdead"
            return "sent"

        def victim(ctx):
            ctx.barrier(pair, "queued")
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        def witness(ctx):
            while ctx.state_vector()[1] is Health.HEALTHY:
                ctx.charge(1)
            ctx.send(0, "go")

        res = w.run({0: sender, 1: victim, 2: witness})
        assert res[0].value == "peerdead"
        assert not w._channels[1][0]    # nothing kept for the dead rank

    def test_payloads_are_isolated_copies(self):
        w = spawn_world(2)
        shared = np.zeros(4)

        def sender(ctx):
            ctx.send(1, shared)
            shared[:] = 9.0  # mutation after send must not leak

        def receiver(ctx):
            return ctx.recv_any()[1]

        res = w.run({0: sender, 1: receiver})
        assert np.array_equal(res[1].value, np.zeros(4))


class TestOneSidedWrites:
    SEG = {0: 1 << 17}

    def test_wait_forces_visibility(self):
        w = spawn_world(2, segments=self.SEG)

        def writer(ctx):
            tok = ctx.write_remote(1, 0, 0, b"hello")
            state = ctx.wait(tok)
            ctx.send(1, "go")
            return state

        def reader(ctx):
            ctx.recv_any()
            return ctx.read_local(0, 0, 5)

        res = w.run({0: writer, 1: reader})
        assert res[0].value is TokenState.DELIVERED
        assert res[1].value == b"hello"

    def test_unwaited_write_is_invisible_until_ready_time(self):
        """No wait, destination clock behind ready time: old bytes; after
        advancing past it: new bytes."""
        w = spawn_world(2, segments=self.SEG)
        payload = bytes(64 * 1024)  # ready_at far beyond early message traffic

        def writer(ctx):
            ctx.write_remote(1, 0, 0, b"\xab" * len(payload))
            ctx.send(1, "written")
            ctx.recv_any()  # hold the token un-waited until reader checked

        def reader(ctx):
            ctx.recv_any()
            early = ctx.read_local(0, 0, 4)
            ctx.send(0, "checked")
            ctx.charge(5000)
            late = ctx.read_local(0, 0, 4)
            return early, late

        res = w.run({0: writer, 1: reader})
        early, late = res[1].value
        assert early == b"\x00\x00\x00\x00"
        assert late == b"\xab\xab\xab\xab"

    def test_no_torn_reads(self):
        """Interleaved reads see all-old or all-new, never a mixture."""
        w = spawn_world(2, segments=self.SEG)
        n = 4096

        def writer(ctx):
            ctx.write_remote(1, 0, 0, b"\xab" * n)
            ctx.recv_any()

        def reader(ctx):
            views = []
            for _ in range(40):
                ctx.charge(50)
                views.append(ctx.read_local(0, 0, n))
            ctx.send(0, "done")
            return views

        res = w.run({0: writer, 1: reader})
        for view in res[1].value:
            assert view == bytes(n) or view == b"\xab" * n

    def test_write_ordering_preserved_on_wait(self):
        w = spawn_world(2, segments=self.SEG)

        def writer(ctx):
            ctx.write_remote(1, 0, 0, b"first")
            tok = ctx.write_remote(1, 0, 0, b"secnd")
            ctx.wait(tok)  # waiting on the later write lands the earlier one too
            ctx.send(1, "go")

        def reader(ctx):
            ctx.recv_any()
            return ctx.read_local(0, 0, 5)

        res = w.run({0: writer, 1: reader})
        assert res[1].value == b"secnd"

    def test_wait_syncs_writer_clock_to_ready_time(self):
        w = spawn_world(2, segments=self.SEG)

        def writer(ctx):
            tok = ctx.write_remote(1, 0, 0, bytes(640))
            ctx.wait(tok)
            return ctx.vt

        def idle(ctx):
            return None

        res = w.run({0: writer, 1: idle})
        # issue charges 10, ready at 10 + (10 + 640//64) = 30
        assert res[0].value == 30

    def test_write_to_corrupt_destination_fails_token(self):
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(2, plan=plan, segments=self.SEG)

        def writer(ctx):
            tok = ctx.write_remote(1, 0, 0, b"doomed")
            while ctx.state_vector()[1] is Health.HEALTHY:
                ctx.charge(1)
            return ctx.wait(tok)

        def victim(ctx):
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        res = w.run({0: writer, 1: victim})
        assert res[0].value is TokenState.FAILED

    @pytest.mark.parametrize("lived, state", [(0, TokenState.FAILED),
                                              (50, TokenState.DELIVERED)])
    def test_token_outcome_follows_the_death_time(self, lived, state):
        """A transfer lands iff its destination was alive at the ready time;
        the writer learns which at that time, in both cases."""
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(2, plan=plan, segments=self.SEG)

        def writer(ctx):
            tok = ctx.write_remote(1, 0, 0, b"payload")   # ready at 10 + 10
            while ctx.state_vector()[1] is Health.HEALTHY:
                pass
            return ctx.wait(tok), ctx.vt

        def victim(ctx):
            ctx.charge(lived)
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        res = w.run({0: writer, 1: victim})
        assert res[0].value == (state, 20)

    def test_read_remote_from_corrupt_owner_raises(self):
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(2, plan=plan, segments=self.SEG)

        def reader(ctx):
            while ctx.state_vector()[1] is Health.HEALTHY:
                ctx.charge(1)
            try:
                ctx.read_remote(1, 0, 0, 8)
            except PeerDead:
                return "peerdead"
            return "read"

        def victim(ctx):
            ctx.write_local(0, 0, b"treasure")
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        res = w.run({0: reader, 1: victim})
        assert res[0].value == "peerdead"

    def test_read_remote_returns_owner_bytes(self):
        w = spawn_world(2, segments=self.SEG)

        def owner(ctx):
            ctx.write_local(0, 16, b"visible")
            ctx.send(1, "ready")
            ctx.recv_any()

        def reader(ctx):
            ctx.recv_any()
            got = ctx.read_remote(0, 0, 16, 7)
            ctx.send(0, "done")
            return got

        res = w.run({0: owner, 1: reader})
        assert res[1].value == b"visible"

    def test_segment_bounds_checked(self):
        w = spawn_world(1, segments={0: 32})

        def prog(ctx):
            with pytest.raises(SegmentError):
                ctx.read_local(0, 30, 8)
            with pytest.raises(SegmentError):
                ctx.write_local(0, -1, b"x")
            with pytest.raises(SegmentError):
                ctx.read_local(3, 0, 1)
            return "ok"

        assert w.run({0: prog})[0].value == "ok"


class TestBarrier:
    def test_ok_syncs_to_slowest_plus_cost(self):
        w = spawn_world(4)
        g = full_group(4)

        def prog(r):
            def run(ctx):
                ctx.charge(10 * r)
                assert ctx.barrier(g, "only") is None
                return ctx.vt
            return run

        res = w.run({r: prog(r) for r in range(4)})
        for r in range(4):
            assert res[r].value == 30 + 20

    def test_timeout_when_member_dies_before_arriving(self):
        plan = FailurePlan([FailureEvent(3, 1, FailPhase.BEFORE_BARRIER)])
        w = spawn_world(4, plan=plan, timeout=100)
        g = full_group(4)

        def prog(r):
            def run(ctx):
                ctx.charge(10 * r)
                ctx.failure_point(1, FailPhase.BEFORE_BARRIER)
                with pytest.raises(Timeout):
                    ctx.barrier(g, "det-1")
                return ctx.vt
            return run

        res = w.run({r: prog(r) for r in range(4)})
        assert res[3].status == "killed"
        for r in range(3):
            assert res[r].value == 10 * r + 100  # own arrival plus timeout budget

    def test_fresh_group_after_failure_reaches_ok(self):
        plan = FailurePlan([FailureEvent(2, 1, FailPhase.BEFORE_BARRIER)])
        w = spawn_world(3, plan=plan)
        g0 = full_group(3)
        g1 = Group(members=(0, 1), generation=1)

        def prog(r):
            def run(ctx):
                ctx.failure_point(1, FailPhase.BEFORE_BARRIER)
                with pytest.raises(Timeout):
                    ctx.barrier(g0, "a")
                ctx.barrier(g1, "a")  # same tag, new generation
                return "ok"
            return run

        res = w.run({r: prog(r) for r in range(3)})
        for r in (0, 1):
            assert res[r].value == "ok"

    def test_tag_reuse_with_different_shape_rejected(self):
        """Joining an existing slot with a different shape is a caller bug."""
        w = spawn_world(2)
        g = full_group(2)

        def first(ctx):
            ctx.broadcast(g, (0,), "payload", "b")[0]  # root returns immediately
            ctx.send(1, "slot exists")
            return "ok"

        def second(ctx):
            ctx.recv_any()
            try:
                ctx.broadcast(g, (1,), "other", "b")[0]  # same tag, different root
            except ConfigError:
                return "rejected"
            return "accepted"

        res = w.run({0: first, 1: second})
        assert res[0].value == "ok"
        assert res[1].value == "rejected"

        # same generation and tag under a group with different members; the
        # outsider fails the open slot, so the member that joins it later is
        # rejected with the same error
        w = spawn_world(3)

        def pair(ctx):
            ctx.broadcast(Group((0, 1)), (0,), "payload", "m")[0]
            ctx.send(2, "slot exists")
            return "ok"

        def join(group):
            def prog(ctx):
                ctx.recv_any()
                try:
                    ctx.broadcast(group, (0,), None, "m")[0]
                    verdict = "accepted"
                except ConfigError as exc:
                    verdict = f"rejected: {exc}"
                if ctx.rank == 2:
                    ctx.send(1, verdict)
                return verdict
            return prog

        res = w.run({0: pair, 1: join(Group((0, 1))), 2: join(Group((0, 2)))})
        assert res[0].value == "ok"
        assert res[2].value.startswith("rejected: ") and "different shape" in res[2].value
        assert res[1].value == res[2].value


class TestCollectives:
    @pytest.mark.parametrize("opened, joined", [((0, 1), (1, 1)), ((0, 1), (1, 0)),
                                                ((0, 0), (0, 1))],
                             ids=["duplicate", "reordered", "bad-opener"])
    def test_a_caller_that_fails_an_open_slot_fails_every_member(self, opened, joined):
        """Rank 0 opens a broadcast and, with valid roots, waits for rank 1's
        deposit; rank 1 joins with other roots.  Whichever caller fails a
        check fails the slot, so the run ends in that ConfigError, not in a
        deadlock."""
        g = full_group(2)

        def opener(ctx):
            ctx.send(1, "opening")
            return ctx.broadcast(g, opened, b"x", "b")

        def joiner(ctx):
            ctx.recv_any()
            return ctx.broadcast(g, joined, b"y", "b")

        world = spawn_world(2)
        with pytest.raises(ConfigError):
            world.run({0: opener, 1: joiner})
        assert all(world._results[r].status == "error" for r in (0, 1))
        assert str(world._results[0].error) == str(world._results[1].error)

    def test_reduce_flag_sum_is_positive_when_a_flag_is_set(self):
        """A 0/1 sum is > 0 iff some member's flag is set."""
        w = spawn_world(4)
        g = full_group(4)
        flags = [0, 0, 1, 0]

        def prog(r):
            def run(ctx):
                return ctx.reduce_all(g, flags[r], "chg")
            return run

        res = w.run({r: prog(r) for r in range(4)})
        assert all(res[r].value == 1 for r in range(4))

    def test_reduce_flag_sum_is_zero_when_no_flag_is_set(self):
        w = spawn_world(3)
        g = full_group(3)

        def prog(ctx):
            return ctx.reduce_all(g, 0, "chg")

        res = w.run({r: prog for r in range(3)})
        assert all(res[r].value == 0 for r in range(3))

    def test_reduce_sum_ints(self):
        w = spawn_world(4)
        g = full_group(4)
        vals = [3, 1, 4, 2]

        def prog(r):
            def run(ctx):
                return ctx.reduce_all(g, vals[r], "s")
            return run

        res = w.run({r: prog(r) for r in range(4)})
        assert all(res[r].value == 10 for r in range(4))

    def test_reduce_sum_arrays_bitwise_left_fold(self):
        """Array sums combine in group position order; result is bitwise
        identical at every rank and to an explicit left fold."""
        world = 4
        w = spawn_world(world)
        g = full_group(world)
        parts = [np.random.default_rng(100 + r).normal(size=1000) for r in range(world)]
        expect = parts[0].copy()
        for p in parts[1:]:
            expect = expect + p

        def prog(r):
            def run(ctx):
                return ctx.reduce_all(g, parts[r], "vec")
            return run

        res = w.run({r: prog(r) for r in range(world)})
        for r in range(world):
            got = res[r].value
            assert got.dtype == np.float64
            assert np.array_equal(got, expect)

    def test_reduce_folds_in_group_position_order(self):
        """A promoted spare keeps its position's place in the fold, so sums
        over a rebuilt group repeat the original group's bits."""
        g = Group((2, 0, 3, 1))
        parts = {r: np.random.default_rng(200 + r).normal(size=1000) for r in g.members}
        expect = parts[2] + parts[0] + parts[3] + parts[1]
        assert not np.array_equal(expect, parts[0] + parts[1] + parts[2] + parts[3])

        def prog(r):
            def run(ctx):
                return ctx.reduce_all(g, parts[r], "vec")
            return run

        res = spawn_world(4).run({r: prog(r) for r in g.members})
        for r in g.members:
            assert np.array_equal(res[r].value, expect)

    def test_reduce_result_copies_are_independent(self):
        w = spawn_world(2)
        g = full_group(2)

        def prog(ctx):
            out = ctx.reduce_all(g, np.ones(3), "v")
            out[:] = -1.0
            return out

        res = w.run({0: prog, 1: prog})
        # both mutated their own copy to -1; mutation of one must not be
        # observable through the other (each already holds its own buffer)
        assert np.array_equal(res[0].value, -np.ones(3))
        assert np.array_equal(res[1].value, -np.ones(3))

    def test_reduce_with_dead_member_times_out(self):
        plan = FailurePlan([FailureEvent(2, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(3, plan=plan)
        g = full_group(3)

        def prog(ctx):
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)
            try:
                ctx.reduce_all(g, 1, "s")
            except Timeout:
                return "timeout"
            return "ok"

        res = w.run({r: prog for r in range(3)})
        assert res[0].value == "timeout"
        assert res[1].value == "timeout"
        assert res[2].status == "killed"

    GROUP_OPS = {
        "barrier": lambda ctx, g: ctx.barrier(g, "t"),
        "reduce": lambda ctx, g: ctx.reduce_all(g, 1, "t"),
        "broadcast": lambda ctx, g: ctx.broadcast(g, (2,), None, "t"),
        "exchange": lambda ctx, g: ctx.exchange(g, False, make_pairs([]), [0, 0, 0], "t"),
    }

    @pytest.mark.parametrize("gone", ["dead", "finished", "later"])
    @pytest.mark.parametrize("op", list(GROUP_OPS))
    def test_reduce_and_broadcast_wait_the_world_timeout(self, op, gone):
        """A group op whose member 2 owes a deposit and is dead, finished or
        in a later generation ends every survivor at the instant it began
        waiting plus the timeout: its arrival, or in an exchange once its
        sends are charged."""
        plan = FailurePlan([FailureEvent(2, 1, FailPhase.DURING_COMPUTE)] * (gone == "dead"))
        w = spawn_world(3, plan=plan, timeout=100)
        g = full_group(3)
        sends = 2 * simcluster.COSTS.send if op == "exchange" else 0

        def survivor(ctx):
            ctx.charge(10 * ctx.rank)
            started = ctx.vt + sends
            with pytest.raises(Timeout):
                self.GROUP_OPS[op](ctx, g)
            waited = ctx.vt - started
            if ctx.rank == 0 and gone == "later":
                ctx.send(2, "done")
            return waited

        def member(ctx):
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)
            if gone == "later":
                ctx.barrier(Group((2,), generation=1), "moved on")
                ctx.recv_any()       # alive, until rank 0 has given up

        res = w.run({0: survivor, 1: survivor, 2: member})
        assert res[0].value == res[1].value == 100
        assert res[2].status == ("killed" if gone == "dead" else "done")

    def test_dead_members_predeath_contribution_still_counts(self):
        """A rank that contributed and then died does not poison the round."""
        plan = FailurePlan([FailureEvent(2, 1, FailPhase.BEFORE_BARRIER)])
        w = spawn_world(3, plan=plan)
        g = full_group(3)

        def prog(r):
            def run(ctx):
                out = ctx.reduce_all(g, r + 1, "s")
                ctx.failure_point(1, FailPhase.BEFORE_BARRIER)
                return out
            return run

        res = w.run({r: prog(r) for r in range(3)})
        assert res[0].value == 6
        assert res[1].value == 6
        assert res[2].status == "killed"

    def test_broadcast_delivers_root_payload(self):
        w = spawn_world(4)
        g = full_group(4)
        payload = np.arange(6, dtype=np.float64).reshape(2, 3)

        def root(ctx):
            return ctx.broadcast(g, (1,), payload, "b")[0]

        def leaf(ctx):
            return ctx.broadcast(g, (1,), None, "b")[0]

        res = w.run({0: leaf, 1: root, 2: leaf, 3: leaf})
        for r in range(4):
            assert np.array_equal(res[r].value, payload)

    def test_broadcast_root_death_raises_timeout_at_leaves(self):
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(3, plan=plan)
        g = full_group(3)

        def root(ctx):
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)
            return ctx.broadcast(g, (1,), b"never", "b")[0]

        def leaf(ctx):
            try:
                ctx.broadcast(g, (1,), None, "b")[0]
            except Timeout:
                return "timeout"
            return "ok"

        res = w.run({0: leaf, 1: root, 2: leaf})
        assert res[0].value == "timeout"
        assert res[2].value == "timeout"

    def test_broadcast_deposit_outlives_its_root(self):
        """A root killed after sending still delivers to leaves that come later."""
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(3, plan=plan)
        g = full_group(3)

        def root(ctx):
            ctx.broadcast(g, (1,), b"sent", "b")[0]
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        def leaf(ctx):
            while ctx.state_vector()[1] is Health.HEALTHY:
                pass                   # each query yields, so the root runs
            return ctx.broadcast(g, (1,), None, "b")[0]

        res = w.run({0: leaf, 1: root, 2: leaf})
        assert res[1].status == "killed"
        assert res[0].value == b"sent"
        assert res[2].value == b"sent"

    @pytest.mark.parametrize("values", [
        (np.zeros(3), np.ones(1)),
        (np.zeros(3), 1.0),
        (1.0, np.zeros(3)),
        (np.zeros(3), np.zeros(3, dtype=np.int64)),
        (1, 1.0),
    ], ids=["shape", "array-scalar", "scalar-array", "dtype", "type"])
    def test_reduce_of_unlike_values_rejected_at_every_member(self, values):
        w = spawn_world(2)
        g = full_group(2)

        def prog(ctx):
            try:
                ctx.reduce_all(g, values[ctx.rank], "t")
            except ConfigError as exc:
                return str(exc)
            return "combined"

        res = w.run({0: prog, 1: prog})
        for r in (0, 1):
            assert "'t'" in res[r].value and "differ" in res[r].value


def _turns_programs(size, roots, charges, nbytes, polls, chain):
    """Each rank charges, broadcasts over `roots` in one call or one call
    per root, and reports what it got; payloads are `nbytes` long.  A rank
    first polls the state vector `polls` times, and each poll yields, so
    ranks reach the broadcast in varied host order."""
    g = full_group(size)

    def prog(ctx):
        ctx.charge(charges[ctx.rank])
        ctx.failure_point(1, FailPhase.DURING_COMPUTE)    # a kill before the turn
        for _ in range(polls[ctx.rank]):
            ctx.state_vector()
        payload = bytes([ctx.rank]) * nbytes[ctx.rank]
        try:
            with ctx.phase(VtPhase.COMM):
                if chain:
                    got = [ctx.broadcast(g, (r,), payload, ("b", i))[0]
                           for i, r in enumerate(roots)]
                else:
                    got = ctx.broadcast(g, roots, payload, "b")
        except Timeout:
            got = "timeout"
        ctx.failure_point(1, FailPhase.BEFORE_BARRIER)     # a kill after the deposit
        return got

    return {r: prog for r in range(size)}


def _run_turns(case, chain, seed):
    size, roots, charges, nbytes, polls, before, after = case
    plan = FailurePlan(
        [FailureEvent(before, 1, FailPhase.DURING_COMPUTE)] * (before is not None)
        + [FailureEvent(after, 1, FailPhase.BEFORE_BARRIER)] * (after is not None))
    w = spawn_world(size, plan=plan, seed=seed, timeout=100)
    res = w.run(_turns_programs(size, roots, charges, nbytes, polls, chain))
    return {r: (res[r].status, res[r].value, w.vt(r), w.ledger(r)) for r in range(size)}


@st.composite
def _turn_cases(draw):
    size = draw(st.integers(2, 6))
    order = draw(st.permutations(range(size)))
    roots = tuple(order[:draw(st.integers(1, size))])
    charges = draw(st.lists(st.integers(0, 200), min_size=size, max_size=size))
    nbytes = draw(st.lists(st.integers(0, 400), min_size=size, max_size=size))
    polls = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    before = draw(st.sampled_from((None, *roots)))
    after = draw(st.sampled_from((None, *(r for r in roots if r != before))))
    return size, roots, charges, nbytes, polls, before, after


class TestBroadcastTurns:
    """One broadcast over several roots costs what one per root, in turn,
    costs."""

    def test_turns_follow_the_chain(self):
        # root 2 arrives at 30 with 128 bytes: its turn ends at 30 + 20 + 2;
        # root 0 arrived at 5 with 64 bytes, waits for that, ends 21 later
        res = _run_turns((3, (2, 0), [5, 0, 30], [64, 0, 128], [0] * 3, None, None),
                         False, 0)
        for r in range(3):
            status, got, vt, led = res[r]
            assert got == [b"\x02" * 128, b"\x00" * 64]
            assert vt == 73
            assert led[VtPhase.COMM] == 73 - [5, 0, 30][r]

    def test_dead_root_times_out_from_the_end_of_the_turn_before_it(self):
        # root 0's turn ends at 10 + 20 + 2 = 32; root 2 died before its own
        res = _run_turns((3, (0, 2), [10, 50, 0], [128, 0, 0], [0] * 3, 2, None),
                         False, 0)
        assert res[2][0] == "killed"
        assert (res[0][1], res[0][2]) == ("timeout", 32 + 100)
        assert (res[1][1], res[1][2]) == ("timeout", 50 + 100)

    @pytest.mark.parametrize("roots", [(), (0, 0), (0, 2)],
                             ids=["empty", "duplicate", "outsider"])
    def test_roots_are_distinct_members(self, roots):
        w = spawn_world(3)
        g = Group((0, 1))

        def prog(ctx):
            if ctx.rank == 2:
                return "outside"
            with pytest.raises(ConfigError):
                ctx.broadcast(g, roots, b"x", "b")
            return "rejected"

        res = w.run({r: prog for r in range(3)})
        assert [res[r].value for r in (0, 1)] == ["rejected", "rejected"]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=_turn_cases(), seeds=st.tuples(st.integers(0, 7), st.integers(0, 7)))
    @example(case=(4, (1, 3, 0), [0, 90, 10, 40], [300, 64, 0, 200], [0, 3, 0, 0],
                   3, None), seeds=(0, 1))
    @example(case=(4, (2, 0, 3), [60, 0, 0, 5], [100, 0, 400, 0], [2, 0, 0, 1],
                   None, 2), seeds=(2, 3))
    @example(case=(5, (4, 1, 2), [0, 120, 0, 7, 30], [0, 90, 250, 0, 64],
                   [0, 3, 0, 1, 0], 2, 4), seeds=(4, 5))
    def test_one_call_equals_one_broadcast_per_root(self, case, seeds):
        """Values, vt and ledgers of every rank, a root killed before its turn
        or after its deposit included, whatever the schedule seeds."""
        assert _run_turns(case, False, seeds[0]) == _run_turns(case, True, seeds[1])


class TestBroadcastShares:
    """A broadcast copies each root's payload once, freezes the copy and
    hands that same copy to every caller."""

    ROOTS = (2, 0, 3)

    def _run(self, after=lambda ctx, payload: None):
        g = full_group(4)
        payloads = {r: np.full((2, 3), float(r)) for r in range(4)}

        def prog(ctx):
            got = ctx.broadcast(g, self.ROOTS, payloads[ctx.rank], "b")
            after(ctx, payloads[ctx.rank])
            ctx.barrier(g, "after")
            return got

        return spawn_world(4).run({r: prog for r in range(4)})

    def test_every_caller_gets_equal_bytes_for_every_root(self):
        res = self._run()
        for r in range(4):
            got = res[r].value
            assert [block.tobytes() for block in got] == [
                np.full((2, 3), float(root)).tobytes() for root in self.ROOTS]
            # the same frozen copies, not one copy per caller
            assert all(a is b for a, b in zip(got, res[0].value))

    def test_results_are_read_only(self):
        for block in self._run()[1].value:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = -1.0

    def test_a_root_mutating_its_payload_afterwards_is_not_seen(self):
        def mutate(ctx, payload):
            payload[:] = -1.0

        res = self._run(mutate)
        for r in range(4):
            for root, block in zip(self.ROOTS, res[r].value):
                assert np.array_equal(block, np.full((2, 3), float(root)))

    @pytest.mark.parametrize("roots", [(), (0, 0), (0, 2)],
                             ids=["empty", "duplicate", "outsider"])
    def test_joining_an_open_slot_with_other_roots_is_rejected(self, roots):
        """Rank 1 opens the slot with valid roots and leaves it; rank 0
        joins the still open slot with bad roots."""
        g = Group((0, 1))

        def opener(ctx):
            got = ctx.broadcast(g, (1,), b"x", "b")
            ctx.send(0, "opened")
            return got

        def joiner(ctx):
            ctx.recv_any()
            with pytest.raises(ConfigError):
                ctx.broadcast(g, roots, b"y", "b")
            return "rejected"

        res = spawn_world(3).run({0: joiner, 1: opener, 2: lambda ctx: None})
        assert res[0].value == "rejected" and res[1].value == [b"x"]

    def test_a_slot_copies_each_payload_once(self, monkeypatch):
        """16 roots on 16 ranks: 16 copies per slot, not 16 + 16 x 16."""
        copies = []
        share = simcluster._share

        def counting(value):
            copies.append(1)
            return share(value)

        monkeypatch.setattr(simcluster, "_share", counting)
        g = full_group(16)

        def prog(ctx):
            return ctx.broadcast(g, g.members, np.full((1, 4), float(ctx.rank)), "b")

        res = spawn_world(16).run({r: prog for r in range(16)})
        assert len(copies) == 16
        assert all(len(res[r].value) == 16 for r in range(16))


EXCHANGE_TIMEOUT = 100


def _reference_pass(ctx, group, changed, outgoing, board, gone):
    """The centers pass by the documented receive rule: the caller charges
    one send per peer, then receives from each peer in position order; peer
    q's records arrive at q's entry clock + send x (1 + the caller's index
    among q's peers) + msg_latency, and each receive syncs to that instant,
    then charges one recv.  Returns the OR of the flags and the non-empty
    record arrays received.

    Every member posts its entry clock, flag and records on `board` and
    yields with free local reads until all have.  When a member is `gone`,
    the caller instead waits the timeout from the end of its sends and
    raises Timeout, as every group operation gives up.
    """
    send, latency, recv = (simcluster.COSTS.send, simcluster.COSTS.msg_latency,
                           simcluster.COSTS.recv)
    members = group.members
    pos = group.position(ctx.rank)
    board[ctx.rank] = (ctx.vt, changed, outgoing)
    ctx.charge(send * (len(members) - 1))
    if gone:
        ctx.charge(EXCHANGE_TIMEOUT)
        raise Timeout("a member is gone before its deposit")
    while len(board) < len(members):
        ctx.read_local(0, 0, 1)
    clock = ctx.vt
    batches = []
    for j, src in enumerate(m for m in members if m != ctx.rank):
        entry, flag, records = board[src]
        index = pos - (j < pos)      # the caller among the sender's peers
        clock = max(clock, entry + send * (index + 1) + latency) + recv
        changed = changed or flag
        if len(records[ctx.rank]):
            batches.append(records[ctx.rank])
    ctx.charge(clock - ctx.vt)
    return changed, batches


def _exchange_programs(case, reference):
    """Each rank charges, then exchanges its flag and its records per
    destination in one `exchange` or in `_reference_pass`, and reports what
    it got.  The failed rank, if any, is killed before it deposits, returns
    at once, or enters generation 1 and waits there until every other rank
    has finished; the witness, if any, learns of the kill from the state
    vector before its own exchange.  A rank first reads its own segment
    `polls` times, and each read yields, so ranks reach the exchange in
    varied host order."""
    size, charges, flags, rows, polls, failed, mode, witness = case
    g = full_group(size)
    board = {}

    def prog(ctx):
        rank = ctx.rank
        ctx.charge(charges[rank])
        ctx.failure_point(1, FailPhase.DURING_COMPUTE)    # mode "dead"
        if rank == failed and mode == "finished":
            return "finished"
        if rank == failed and mode == "later":
            ctx.barrier(Group((rank,), generation=1), "left")
            with pytest.raises(Timeout):
                ctx.recv_any()
            return "left"
        if rank == witness:
            # the victim dies on its second turn; each read yields one turn
            # to every other runnable rank, so one poll sees the death
            ctx.read_local(0, 0, 1)
            ctx.read_local(0, 0, 1)
            assert ctx.state_vector()[failed] is Health.CORRUPT
        for _ in range(polls[rank]):
            ctx.read_local(0, 0, 1)
        outgoing = {m: make_pairs(rows[rank][m])
                    for m in range(size)}
        try:
            with ctx.phase(VtPhase.COMM):
                if reference:
                    changed, batches = _reference_pass(ctx, g, flags[rank], outgoing,
                                                       board, mode is not None)
                else:
                    ends = np.cumsum([len(outgoing[m]) for m in range(size)]).tolist()
                    records = np.concatenate([outgoing[m] for m in range(size)])
                    changed, batches = ctx.exchange(g, flags[rank], records, ends, "x")
        except Timeout as exc:
            return type(exc).__name__
        return changed, [(b.shape, b.tobytes()) for b in batches]

    return {r: prog for r in range(size)}


def _run_exchange(case, reference, seed):
    size, failed, mode = case[0], case[5], case[6]
    plan = FailurePlan([FailureEvent(failed, 1, FailPhase.DURING_COMPUTE)]
                       * (mode == "dead"))
    w = spawn_world(size, plan=plan, seed=seed, timeout=EXCHANGE_TIMEOUT, segments={0: 1})
    res = w.run(_exchange_programs(case, reference))
    return {r: (res[r].status, res[r].value, w.vt(r), w.ledger(r)) for r in range(size)}


@st.composite
def _exchange_cases(draw):
    size = draw(st.integers(2, 6))
    charges = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    pair = st.lists(st.integers(0, 2**40), min_size=2, max_size=2)
    rows = [[[] if dst == src else draw(st.lists(pair, max_size=3))
             for dst in range(size)] for src in range(size)]
    polls = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    mode = draw(st.sampled_from((None, "dead", "finished", "later")))
    failed = draw(st.integers(0, size - 1)) if mode else None
    witness = None
    if mode == "dead":
        witness = draw(st.sampled_from((None, *(r for r in range(size) if r != failed))))
    return size, charges, flags, rows, polls, failed, mode, witness


class TestExchange:
    """One `exchange` costs and returns what one send to each peer, then one
    receive from each, in position order, cost and returned, and gives up
    as every group operation does."""

    def _run(self, charges, after=lambda ctx, records: None):
        size = len(charges)
        g = full_group(size)
        # rank r sends position p the one record (r, p)
        rows = {r: make_pairs([(r, p) for p in range(size) if p != r]) for r in range(size)}

        def prog(ctx):
            ctx.charge(charges[ctx.rank])
            ends = np.cumsum([p != ctx.rank for p in range(size)]).tolist()
            got = ctx.exchange(g, ctx.rank == 1, rows[ctx.rank], ends, "x")
            after(ctx, rows[ctx.rank])
            ctx.barrier(g, "after")
            return got

        w = spawn_world(size)
        res = w.run({r: prog for r in range(size)})
        return w, {r: res[r].value for r in range(size)}

    def test_hand_computed_clocks(self):
        """Entries 0, 30 and 5.  Rank 2's sends end at 9; rank 0's records
        reach it at 0 + 2 x 2 + 10 = 14, since rank 2 is rank 0's second
        peer, and its recv ends at 16; rank 1's arrive at 30 + 2 x 2 + 10 =
        44, and that recv ends at 46."""
        charges = [0, 30, 5]
        g = full_group(3)
        empty = make_pairs([])

        def prog(ctx):
            ctx.charge(charges[ctx.rank])
            ctx.exchange(g, False, empty, [0, 0, 0], "x")
            return ctx.vt

        res = spawn_world(3).run({r: prog for r in range(3)})
        assert [res[r].value for r in range(3)] == [46, 38, 46]

    def test_every_caller_gets_its_records_in_position_order(self):
        _, got = self._run([3, 0, 7, 1])
        for r in range(4):
            changed, batches = got[r]
            assert changed is True         # rank 1's flag reaches everyone
            assert [b.tolist() for b in batches] == [[[src, r]] for src in range(4)
                                                      if src != r]

    def test_results_are_read_only_views_of_one_copy_per_sender(self):
        def mutate(ctx, records):
            records[:] = 99

        _, got = self._run([0, 0, 0], mutate)
        for r in range(3):
            for src, block in zip([s for s in range(3) if s != r], got[r][1]):
                assert block.tolist() == [[src, r]]      # a later mutation is not seen
                assert not block.flags.writeable
        # rank 0's records to ranks 1 and 2 are views of one array
        assert got[1][1][0].base is got[2][1][0].base is not None

    def test_ends_must_give_one_end_per_member(self):
        g = full_group(2)

        def prog(ctx):
            with pytest.raises(ConfigError):
                ctx.exchange(g, False, make_pairs([]), [0] * (1 + ctx.rank), "x")
            return "rejected"

        res = spawn_world(2).run({r: prog for r in range(2)})
        assert [res[r].value for r in range(2)] == ["rejected", "rejected"]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=_exchange_cases(), seeds=st.tuples(st.integers(0, 7), st.integers(0, 7)))
    @example(case=(3, [0, 30, 5], [False, True, False],
                   [[[], [[1, 2]], []], [[], [], [[3, 4], [5, 6]]], [[7, 8]] * 3],
                   [0, 0, 0], None, None, None), seeds=(0, 1))
    @example(case=(4, [10, 0, 40, 3], [True] * 4, [[[[0, 1]]] * 4] * 4, [1, 0, 2, 0],
                   2, "dead", 0), seeds=(2, 3))
    @example(case=(4, [10, 0, 40, 3], [False] * 4, [[[]] * 4] * 4, [0] * 4,
                   1, "later", None), seeds=(4, 5))
    @example(case=(5, [9, 8, 7, 6, 5], [False] * 5, [[[[1, 1]]] * 5] * 5, [0] * 5,
                   3, "finished", None), seeds=(6, 7))
    def test_one_exchange_equals_a_send_and_recv_per_peer(self, case, seeds):
        """Status, value, vt and ledger of every rank, with no failed peer or
        one that died before its deposit (maybe known to one rank), finished
        or left for a later generation, whatever the schedule seeds, equal
        those of `_reference_pass`."""
        assert _run_exchange(case, False, seeds[0]) == _run_exchange(case, True, seeds[1])


class TestFailureInjection:
    def test_kill_fires_only_at_matching_point(self):
        plan = FailurePlan([FailureEvent(0, 3, FailPhase.DURING_COMPUTE)])
        w = spawn_world(1, plan=plan)

        def prog(ctx):
            log = []
            for it in range(1, 6):
                ctx.failure_point(it, FailPhase.BEFORE_BARRIER)   # wrong phase
                ctx.failure_point(it, FailPhase.DURING_COMPUTE, 1)  # wrong substep
                ctx.failure_point(it, FailPhase.DURING_COMPUTE)
                log.append(it)
            return log

        res = w.run({0: prog})
        assert res[0].status == "killed"
        assert w.state_vector()[0] is Health.CORRUPT

    def test_state_vector_reflects_plan(self):
        plan = FailurePlan([
            FailureEvent(1, 2, FailPhase.DURING_COMPUTE),
            FailureEvent(3, 1, FailPhase.DURING_CHECKPOINT),
        ])
        w = spawn_world(4, plan=plan)

        def prog(ctx):
            for it in range(1, 4):
                ctx.failure_point(it, FailPhase.DURING_COMPUTE)
                ctx.failure_point(it, FailPhase.DURING_CHECKPOINT)
                ctx.charge(1)
            return "alive"

        res = w.run({r: prog for r in range(4)})
        sv = w.state_vector()
        assert sv == {0: Health.HEALTHY, 1: Health.CORRUPT,
                      2: Health.HEALTHY, 3: Health.CORRUPT}
        assert res[0].value == "alive" and res[2].value == "alive"
        assert res[1].status == "killed" and res[3].status == "killed"


class TestDeterminism:
    @staticmethod
    def _busy_world(seed=0, record=False):
        w = spawn_world(4, seed=seed, record_trace=record, segments={0: 4096})
        g = full_group(4)

        def prog(r):
            def run(ctx):
                total = 0
                for it in range(3):
                    ctx.charge(5 + r)
                    ctx.send((r + 1) % 4, ("ring", r, it))
                    src, _ = ctx.recv_any()
                    total += src
                    tok = ctx.write_remote((r + 1) % 4, 0, 0, bytes([r] * 100))
                    ctx.wait(tok)
                    ctx.barrier(g, ("it", it))
                    total += ctx.reduce_all(g, r, ("s", it))
                return total
            return run

        res = w.run({r: prog(r) for r in range(4)})
        return w, res

    def test_det_mode_trace_replays_exactly(self):
        w1, r1 = self._busy_world(seed=11, record=True)
        w2, r2 = self._busy_world(seed=11, record=True)
        assert w1.trace == w2.trace
        assert [w1.vt(r) for r in range(4)] == [w2.vt(r) for r in range(4)]
        assert [r1[r].value for r in range(4)] == [r2[r].value for r in range(4)]

    def test_values_do_not_depend_on_the_schedule_seed(self):
        values = [[res[r].value for r in range(4)]
                  for _, res in (self._busy_world(seed=s) for s in range(8))]
        assert all(v == values[0] for v in values)

    @staticmethod
    def _every_event_kind(record):
        """A 3-rank run that reaches every trace call site: rank 2 dies at
        its failure point, and 0 and 1 then time out a barrier on it, fail a
        token to it, and make every other traced operation with each other."""
        w = spawn_world(3, plan=FailurePlan([FailureEvent(2, 1, FailPhase.DURING_COMPUTE)]),
                        record_trace=record, segments={0: 16})
        pair = Group((0, 1))

        def prog(ctx):
            if ctx.rank == 2:
                ctx.failure_point(1, FailPhase.DURING_COMPUTE)
            peer = 1 - ctx.rank
            with pytest.raises(Timeout):
                ctx.barrier(full_group(3), "all")
            assert ctx.wait(ctx.write_remote(2, 0, 0, b"lost")) is TokenState.FAILED
            ctx.send(peer, b"x")
            ctx.recv_any()
            assert ctx.wait(ctx.write_remote(peer, 0, 0, b"abcd")) is TokenState.DELIVERED
            ctx.read_remote(peer, 0, 0, 4)
            ctx.barrier(pair, "pair")
            ctx.reduce_all(pair, 1, "r")
            ctx.broadcast(pair, (0,), b"y", "c")
            ctx.state_vector()
            return ctx.vt

        res = w.run({r: prog for r in range(3)})
        return w, res

    def test_trace_covers_every_event_kind(self):
        w, _ = self._every_event_kind(record=True)
        assert {entry[0] for entry in w.trace} == {
            "kill", "bar", "rdma", "token", "send", "recv", "deliver",
            "read", "bar-ok", "red", "bcast", "sv"}

    def test_untraced_run_never_builds_a_trace_event(self, monkeypatch):
        def refuse(self, *entry):
            raise AssertionError(f"trace event {entry[0]!r} built with tracing off")

        monkeypatch.setattr(simcluster.ClusterHandle, "_trace_event", refuse)
        w, res = self._every_event_kind(record=False)
        assert [res[r].status for r in range(3)] == ["done", "done", "killed"]
        assert w.trace == []
        busy, busy_res = self._busy_world(seed=5)
        assert all(busy_res[r].status == "done" for r in range(4))
        assert busy.trace == []

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_handoff_follows_the_seeded_rotation(self, seed):
        """Each switch hands the baton to the next rank of the seeded order."""
        w = spawn_world(4, seed=seed, record_trace=True)

        def prog(ctx):
            ctx.state_vector()
            ctx.state_vector()

        w.run({r: prog for r in range(4)})
        seen = [rank for kind, rank, *_ in w.trace if kind == "sv"]
        assert seen == w.schedule_order * 2


def _assert_rank_threads_exit(before: set) -> None:
    """Every rank thread started since `before` was taken exits within 5 s."""
    started = [t for t in threading.enumerate()
               if t.name.startswith("rank-") and t not in before]
    for t in started:
        t.join(5.0)
        assert not t.is_alive(), f"{t.name} still running after the run ended"


class TestDeadlock:
    @staticmethod
    def _parked(group, tag):
        """A program that waits in `group`'s barrier `tag`."""
        return lambda ctx: ctx.barrier(group, tag)

    def test_mutual_wait_detected(self):
        """Each rank waits for the other's deposit in a different slot."""
        w = spawn_world(2)
        g = full_group(2)
        before = set(threading.enumerate())
        with pytest.raises(SimDeadlock):
            w.run({0: self._parked(g, "a"), 1: self._parked(g, "b")})
        _assert_rank_threads_exit(before)

    def test_deadlock_names_only_the_blocked_ranks(self):
        w = spawn_world(3)
        g = Group((0, 1))

        def done(ctx):
            return None

        with pytest.raises(SimDeadlock, match=r"blocked: \[0, 1\]"):
            w.run({0: self._parked(g, "a"), 1: self._parked(g, "b"), 2: done})

    def test_deadlock_message_outlives_the_unwinding(self):
        """Ranks that finish while the others unwind must not replace it."""
        g = Group((0, 1, 2))
        pair = Group((2, 3))
        progs = {0: self._parked(g, "b"),
                 1: self._parked(g, "b"),
                 2: self._parked(pair, "c"),
                 3: self._parked(pair, "d")}
        for seed in range(20):
            before = set(threading.enumerate())
            with pytest.raises(SimDeadlock, match=r"blocked: \[0, 1, 2, 3\]$"):
                spawn_world(4, seed=seed).run(progs)
            _assert_rank_threads_exit(before)

    def test_livelock_hits_the_wall_guard(self, monkeypatch):
        monkeypatch.setattr(simcluster, "WALL_GUARD", 0.2)
        w = spawn_world(2)

        def spin(ctx):
            while True:
                ctx.state_vector()

        with pytest.raises(SimDeadlock, match="wall-clock"):
            w.run({0: spin, 1: spin})

    def test_rank_released_before_its_first_turn_only_unwinds(self, monkeypatch):
        monkeypatch.setattr(simcluster, "WALL_GUARD", 0.1)
        w = spawn_world(2)

        def slow(ctx):
            time.sleep(0.3)          # holds the baton past the guard

        with pytest.raises(SimDeadlock, match="wall-clock"):
            w.run({0: slow, 1: slow})
        for t in threading.enumerate():
            if t.name.startswith("rank-"):
                t.join(5.0)
                assert not t.is_alive()
        assert set(w._results) == {0, 1}     # none died with an uncaught error

    @pytest.mark.parametrize("op", [
        lambda ctx: ctx.charge(1),
        lambda ctx: ctx.failure_point(1, FailPhase.DURING_COMPUTE),
        lambda ctx: ctx.write_local(0, 0, b"x"),
        lambda ctx: ctx.write_remote(1, 0, 0, b"x"),
        lambda ctx: ctx.send(1, "x"),
    ], ids=["charge", "failure_point", "write_local", "write_remote", "send"])
    def test_wall_guard_stops_a_rank_that_never_waits(self, monkeypatch, op):
        """None of these ops pause, so the poison must be checked in each."""
        monkeypatch.setattr(simcluster, "WALL_GUARD", 0.2)
        w = spawn_world(2, segments={0: 8})
        spinners = []

        def spin(ctx):
            spinners.append(threading.current_thread())
            while True:
                op(ctx)

        with pytest.raises(SimDeadlock, match="wall-clock"):
            w.run({0: spin, 1: spin})
        assert spinners
        for t in spinners:
            t.join(5.0)
            assert not t.is_alive()
