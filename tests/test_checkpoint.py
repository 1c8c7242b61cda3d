"""Checkpoint layer: ring placement, byte layout, two-phase commit, restore."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmft.checkpoint import (
    SEG_LOCAL,
    SEG_MIRROR,
    Checkpointer,
    CheckpointPolicy,
    decode_snapshot,
    encode_snapshot,
    mirror_source,
    mirror_target,
    segment_spec,
    slot_offset,
    slot_size,
)
from kmft.errors import (
    ConfigError,
    PolicyError,
    SequenceError,
    Timeout,
    UnrecoverableError,
)
from kmft.simcluster import (
    FailPhase,
    FailureEvent,
    FailurePlan,
    Group,
    spawn_world,
)


class TestMirrorPolicy:
    def test_reference_group_map(self):
        g = Group(members=(1, 2, 3, 4))
        assert mirror_target(2, g) == 1
        assert mirror_target(1, g) == 4
        assert mirror_target(4, g) == 3
        assert mirror_target(3, g) == 2

    def test_source_is_inverse(self):
        g = Group(members=(1, 2, 3, 4))
        for r in g.members:
            assert mirror_source(mirror_target(r, g), g) == r
            assert mirror_target(mirror_source(r, g), g) == r

    @pytest.mark.parametrize("size", range(2, 33))
    def test_fixed_point_free_bijection_with_full_cycle(self, size):
        members = tuple(range(100, 100 + size))
        g = Group(members=members)
        images = [mirror_target(r, g) for r in members]
        assert sorted(images) == sorted(members)          # bijection
        assert all(img != r for img, r in zip(images, members))
        for r in members:
            cur = r
            for _ in range(size):
                cur = mirror_target(cur, g)
            assert cur == r                                # N-fold identity
            cur = mirror_target(cur, g)
            assert cur != r                                # but not sooner

    def test_singleton_group_rejected(self):
        g = Group(members=(7,))
        with pytest.raises(PolicyError):
            mirror_target(7, g)
        with pytest.raises(PolicyError):
            mirror_source(7, g)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            CheckpointPolicy(interval=0)


def as_lists(got):
    """A decoded (..., entries) tuple with the entries array as nested lists."""
    return (*got[:-1], got[-1].tolist())


class TestSnapshotBytes:
    def test_golden_layout(self):
        buf = encode_snapshot(3, 17, [(1, 2), (9, 4)])
        expect = (
            b"\x03" + b"\x00" * 7 +
            b"\x11" + b"\x00" * 7 +
            b"\x02" + b"\x00" * 7 +
            b"\x01" + b"\x00" * 7 +
            b"\x02" + b"\x00" * 7 +
            b"\x09" + b"\x00" * 7 +
            b"\x04" + b"\x00" * 7
        )
        assert buf == expect

    def test_roundtrip(self):
        entries = [[5, 1], [6, 0], [2**50, 3]]
        assert as_lists(decode_snapshot(encode_snapshot(9, 120, entries))) == (9, 120, entries)

    def test_trailing_slack_ignored(self):
        buf = encode_snapshot(2, 7, [(1, 1)]) + b"\x00" * 100
        assert as_lists(decode_snapshot(buf)) == (2, 7, [[1, 1]])

    def test_short_buffer_rejected(self):
        with pytest.raises(ConfigError):
            decode_snapshot(b"\x00" * 10)

    def test_overclaimed_count_rejected(self):
        buf = struct.pack("<QQQ", 1, 1, 5) + b"\x00" * 16
        with pytest.raises(ConfigError):
            decode_snapshot(buf)

    def test_epoch_zero_never_encoded(self):
        with pytest.raises(ConfigError):
            encode_snapshot(0, 1, [])

    @given(epoch=st.integers(1, 2**40), iteration=st.integers(0, 2**40),
           entries=st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**20)),
                            max_size=30))
    def test_roundtrip_property(self, epoch, iteration, entries):
        assert as_lists(decode_snapshot(encode_snapshot(epoch, iteration, entries))) == \
            (epoch, iteration, [list(e) for e in entries])

    def test_slot_arithmetic(self):
        assert slot_size(0) == 24
        assert slot_size(5) == 24 + 80
        assert segment_spec(5) == {SEG_LOCAL: 208, SEG_MIRROR: 208}
        assert slot_offset(1, 5) == 104 and slot_offset(2, 5) == 0
        with pytest.raises(ConfigError):
            slot_size(-1)


MAX_ENTRIES = 8
SEGS = segment_spec(MAX_ENTRIES)


def entries_for(rank, epoch):
    return [[10 * rank + i, epoch] for i in range(3)]


def commit(cp):
    """Land the started epoch, meet the group in a barrier, then confirm:
    the end-of-run commit of a capture no pass follows."""
    cp.land()
    cp.ctx.barrier(cp.group, ("commit", (cp.last_committed or 0) + 1))
    return cp.confirm()


class TestTwoPhase:
    def test_start_is_asynchronous_until_time_passes(self):
        """The mirror region lags the start and catches up with time."""
        big = 4096
        w = spawn_world(2, segments=segment_spec(big))
        g = Group(members=(0, 1))
        payload_entries = [[i, 1] for i in range(4000)]

        def writer(ctx):
            cp = Checkpointer(ctx, g, big)
            cp.start(5, payload_entries)
            ctx.send(1, "started")
            ctx.recv(1)

        def holder(ctx):
            ctx.recv(0)
            early = ctx.read_local(SEG_MIRROR, slot_offset(1, big), 24)
            ctx.charge(500_000)
            late_buf = ctx.read_local(SEG_MIRROR, slot_offset(1, big), slot_size(big))
            ctx.send(0, "checked")
            return early, decode_snapshot(late_buf)

        res = w.run({0: writer, 1: holder})
        early, late = res[1].value
        assert early == b"\x00" * 24            # not yet updated
        assert as_lists(late) == (1, 5, payload_entries)  # delivered after the cost

    def test_double_start_rejected(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            cp.start(1, [])
            try:
                cp.start(2, [])
            except SequenceError:
                return "rejected"
            return "accepted"

        def idle(ctx):
            return None

        res = w.run({0: prog, 1: idle})
        assert res[0].value == "rejected"

    def test_confirm_without_start_commits_nothing(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            assert cp.confirm() is False and cp.last_committed is None
            with pytest.raises(SequenceError):
                cp.fetch()      # nor is there a committed epoch to fetch
            return "ok"

        def idle(ctx):
            return None

        res = w.run({0: prog, 1: idle})
        assert res[0].value == "ok"

    def test_oversized_payload_rejected(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            with pytest.raises(ConfigError):
                cp.start(1, [(i, 0) for i in range(MAX_ENTRIES + 1)])
            return "ok"

        def idle(ctx):
            return None

        assert w.run({0: prog, 1: idle})[0].value == "ok"

    def test_full_round_all_committed(self):
        w = spawn_world(4, segments=SEGS)
        g = Group(members=(0, 1, 2, 3))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            epoch = cp.start(10, entries_for(ctx.rank, 1))
            committed = commit(cp)
            fetched = cp.fetch()
            return epoch, committed, cp.last_committed, fetched

        res = w.run({r: prog for r in range(4)})
        for r in range(4):
            epoch, committed, last, fetched = res[r].value
            assert epoch == 1
            assert committed is True
            assert last == 1
            assert as_lists(fetched) == (10, entries_for(r, 1))
        # each rank's mirror region holds its ring source's payload
        for r in range(4):
            src = mirror_source(r, g)
            buf = w.segment_bytes(r, SEG_MIRROR)
            off = slot_offset(1, MAX_ENTRIES)
            got = decode_snapshot(buf[off:off + slot_size(MAX_ENTRIES)])
            assert as_lists(got) == (1, 10, entries_for(src, 1))

    def test_commit_timeout_keeps_previous_epoch(self):
        """A kill between start and commit never disturbs the last commit."""
        plan = FailurePlan([FailureEvent(2, 2, FailPhase.DURING_CHECKPOINT, substep=1)])
        w = spawn_world(4, plan=plan, segments=SEGS, timeout=200)
        g = Group(members=(0, 1, 2, 3))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            cp.start(10, entries_for(ctx.rank, 1))
            first = commit(cp)
            epoch = cp.start(20, entries_for(ctx.rank, 2))
            ctx.failure_point(2, FailPhase.DURING_CHECKPOINT, 1)
            with pytest.raises(Timeout):
                commit(cp)
            fetched = cp.fetch()
            return epoch, first, cp.last_committed, fetched

        res = w.run({r: prog for r in range(4)})
        assert res[2].status == "killed"
        for r in (0, 1, 3):
            epoch, first, last, fetched = res[r].value
            assert epoch == 2
            assert first is True
            assert last == 1
            assert as_lists(fetched) == (10, entries_for(r, 1))

    def test_double_buffer_isolates_epochs(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            cp.start(10, entries_for(ctx.rank, 1))
            commit(cp)
            cp.start(20, entries_for(ctx.rank, 2))   # in flight, uncommitted
            ctx.barrier(g, "inflight")
            return cp.fetch()

        res = w.run({0: prog, 1: prog})
        for r in (0, 1):
            assert as_lists(res[r].value) == (10, entries_for(r, 1))

    def test_an_exchange_after_land_commits_without_a_barrier(self):
        """`land` waits for this rank's own transfer; once an exchange that
        every member entered after its `land` completes, `confirm` commits."""
        w = spawn_world(2, segments=SEGS, record_trace=True)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            cp.land()                  # nothing started: nothing to wait for
            idle = cp.confirm()
            cp.start(10, entries_for(ctx.rank, 1))
            cp.land()
            ctx.reduce_all(g, 1, "exchange")
            return idle, cp.confirm(), cp.last_committed

        res = w.run({0: prog, 1: prog})
        slot = slot_size(MAX_ENTRIES)
        off = slot_offset(1, MAX_ENTRIES)
        for r in (0, 1):
            assert res[r].value == (False, True, 1)
            buf = w.segment_bytes(r, SEG_MIRROR)
            assert as_lists(decode_snapshot(buf[off:off + slot])) == \
                (1, 10, entries_for(mirror_source(r, g), 1))
        assert [e for e in w.trace if e[0] == "bar"] == []


class TestRestore:
    def test_replacement_fetches_from_mirror_holder(self):
        """A stand-in with an empty local slot reads the copy its left
        neighbor kept for the failed predecessor."""
        w = spawn_world(3, segments=SEGS)
        g_old = Group(members=(0, 1))
        g_new = Group(members=(2, 1), generation=1)   # 2 inherits position 0

        def original(ctx):
            cp = Checkpointer(ctx, g_old, MAX_ENTRIES)
            cp.start(10, entries_for(ctx.rank, 1))
            commit(cp)
            if ctx.rank == 1:
                ctx.send(2, "committed")
            return "done"

        def replacement(ctx):
            ctx.recv(1)
            cp = Checkpointer(ctx, g_new, MAX_ENTRIES, last_committed=1)
            return cp.fetch(), cp.last_committed

        res = w.run({0: original, 1: original, 2: replacement})
        fetched, last = res[2].value
        assert as_lists(fetched) == (10, entries_for(0, 1))
        assert last == 1

    def test_buddy_loss_is_unrecoverable(self):
        plan = FailurePlan([FailureEvent(1, 1, FailPhase.DURING_COMPUTE)])
        w = spawn_world(3, plan=plan, segments=SEGS)
        g_old = Group(members=(0, 1))
        g_new = Group(members=(2, 1), generation=1)

        def rank0(ctx):
            cp = Checkpointer(ctx, g_old, MAX_ENTRIES)
            cp.start(10, entries_for(0, 1))
            commit(cp)
            return "done"

        def rank1(ctx):
            cp = Checkpointer(ctx, g_old, MAX_ENTRIES)
            cp.start(10, entries_for(1, 1))
            commit(cp)
            ctx.send(2, "committed")
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)

        def replacement(ctx):
            ctx.recv(1)
            while ctx.state_vector()[1].value != "corrupt":
                ctx.charge(1)
            cp = Checkpointer(ctx, g_new, MAX_ENTRIES, last_committed=1)
            try:
                cp.fetch()
            except UnrecoverableError:
                return "unrecoverable"
            return "fetched"

        res = w.run({0: rank0, 1: rank1, 2: replacement})
        assert res[2].value == "unrecoverable"

    def test_adopt_heals_local_slot(self):
        w = spawn_world(3, segments=SEGS)
        g_old = Group(members=(0, 1))
        g_new = Group(members=(2, 1), generation=1)

        def original(ctx):
            cp = Checkpointer(ctx, g_old, MAX_ENTRIES)
            cp.start(10, entries_for(ctx.rank, 1))
            commit(cp)
            if ctx.rank == 1:
                ctx.send(2, "committed")
            return "done"

        def replacement(ctx):
            ctx.recv(1)
            cp = Checkpointer(ctx, g_new, MAX_ENTRIES, last_committed=1)
            iteration, entries = cp.fetch()
            cp.adopt(iteration, entries)
            buf = ctx.read_local(SEG_LOCAL, slot_offset(1, MAX_ENTRIES),
                                 slot_size(MAX_ENTRIES))
            return decode_snapshot(buf)

        res = w.run({0: original, 1: original, 2: replacement})
        assert as_lists(res[2].value) == (1, 10, entries_for(0, 1))

    def test_survivor_fetch_never_leaves_the_rank(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, MAX_ENTRIES)
            cp.start(10, entries_for(ctx.rank, 1))
            commit(cp)
            before = ctx.vt
            cp.fetch()
            return ctx.vt - before

        res = w.run({0: prog, 1: prog})
        # local reads are free in the cost model; a remote read would charge
        assert res[0].value == 0
        assert res[1].value == 0
