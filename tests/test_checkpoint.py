"""Checkpoint layer: ring placement, byte layout, two-phase commit, restore."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmft import runtime
from kmft.checkpoint import (
    HEADER,
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
from kmft.datasets import make_blobs
from kmft.kmeans import KmeansConfig
from kmft.parallel import Method
from kmft.runtime import WorldLayout, run_ft_kmeans
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
    """A decoded (..., centers) tuple with the centers array as nested lists."""
    return (*got[:-1], got[-1].tolist())


class TestSnapshotBytes:
    def test_golden_layout(self):
        buf = encode_snapshot(3, 17, np.array([[1.0, -2.0], [0.5, 4.0]]))
        expect = (
            b"\x03" + b"\x00" * 7 +
            b"\x11" + b"\x00" * 7 +
            struct.pack("<dddd", 1.0, -2.0, 0.5, 4.0)
        )
        assert buf == expect

    def test_roundtrip(self):
        centers = [[5.0, -1.25], [6.0, 0.0], [2.0**50, 3.5]]
        assert as_lists(decode_snapshot(encode_snapshot(9, 120, np.array(centers)),
                                        3, 2)) == (9, 120, centers)

    def test_trailing_slack_ignored(self):
        buf = encode_snapshot(2, 7, np.array([[1.5]])) + b"\x00" * 100
        assert as_lists(decode_snapshot(buf, 1, 1)) == (2, 7, [[1.5]])

    def test_short_buffer_rejected(self):
        with pytest.raises(ConfigError):
            decode_snapshot(b"\x00" * 10, 1, 1)

    def test_truncated_centers_rejected(self):
        buf = struct.pack("<QQ", 1, 1) + b"\x00" * 16
        with pytest.raises(ConfigError):
            decode_snapshot(buf, 3, 1)

    def test_epoch_zero_never_encoded(self):
        with pytest.raises(ConfigError):
            encode_snapshot(0, 1, np.zeros((1, 1)))

    @given(epoch=st.integers(1, 2**40), iteration=st.integers(0, 2**40),
           k=st.integers(1, 6), d=st.integers(1, 4), data=st.data())
    def test_roundtrip_property(self, epoch, iteration, k, d, data):
        values = data.draw(st.lists(st.floats(allow_nan=False), min_size=k * d,
                                    max_size=k * d))
        centers = np.array(values, dtype=np.float64).reshape(k, d)
        got_epoch, got_it, got = decode_snapshot(
            encode_snapshot(epoch, iteration, centers), k, d)
        assert (got_epoch, got_it) == (epoch, iteration)
        assert got.tobytes() == centers.tobytes()

    def test_slot_arithmetic(self):
        assert HEADER.size == 16
        assert slot_size(0, 3) == 16
        assert slot_size(5, 2) == 16 + 80
        assert segment_spec(5, 2) == {SEG_LOCAL: 192, SEG_MIRROR: 192}
        assert slot_offset(1, 5, 2) == 96 and slot_offset(2, 5, 2) == 0
        with pytest.raises(ConfigError):
            slot_size(-1, 2)


K, D = 4, 2
SEGS = segment_spec(K, D)


def centers_for(rank, epoch):
    return (10 * rank + epoch + np.arange(K * D, dtype=np.float64) / 8).reshape(K, D)


def commit(cp):
    """Land the started epoch, meet the group in a barrier, then confirm:
    the end-of-run commit of a capture no pass follows."""
    cp.land()
    cp.ctx.barrier(cp.group, ("commit", (cp.last_committed or 0) + 1))
    return cp.confirm()


def idle(ctx):
    return None


class TestLayout:
    @pytest.mark.parametrize("n", [40, 400])
    def test_slot_holds_k_by_d_centers_whatever_n(self, monkeypatch, n):
        """A run's segments and every checkpointer's slot hold the header and
        k x d float64 values, however many samples the run has."""
        k, d = 5, 3
        want = HEADER.size + 8 * k * d
        segments, slots = [], set()
        real_spawn, real_start = runtime.spawn_world, Checkpointer.start

        def spawn(*args, **kwargs):
            segments.append(kwargs["segments"])
            return real_spawn(*args, **kwargs)

        def start(cp, iteration, centers):
            slots.add(cp.slot_bytes)
            return real_start(cp, iteration, centers)

        monkeypatch.setattr(runtime, "spawn_world", spawn)
        monkeypatch.setattr(Checkpointer, "start", start)
        data, _ = make_blobs(n=n, d=d, blobs=3, spread=1.0, seed=2)
        out = run_ft_kmeans(data, KmeansConfig(k=k), Method.SAMPLES,
                            CheckpointPolicy(interval=1),
                            WorldLayout(active=3, spares=1), force_iters=3,
                            plan=FailurePlan((FailureEvent(1, 3, FailPhase.DURING_COMPUTE),)))
        assert out.reason == "" and out.recoveries == 1
        assert segments == [{SEG_LOCAL: 2 * want, SEG_MIRROR: 2 * want}]
        assert slots == {want}

    @pytest.mark.parametrize("shape", [(K + 1, D), (K, D + 1), (K * D,), (D, K)],
                             ids=["k+1", "d+1", "flat", "transposed"])
    def test_start_refuses_centers_of_the_wrong_shape(self, shape):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            with pytest.raises(ConfigError):
                cp.start(1, np.zeros(shape))
            return cp.start(1, np.zeros((K, D)))

        assert w.run({0: prog, 1: idle})[0].value == 1


class TestTwoPhase:
    def test_start_is_asynchronous_until_time_passes(self):
        """The mirror region lags the start and catches up with time."""
        k, d = 1000, 8
        w = spawn_world(2, segments=segment_spec(k, d))
        g = Group(members=(0, 1))
        payload = np.arange(k * d, dtype=np.float64).reshape(k, d)

        def writer(ctx):
            cp = Checkpointer(ctx, g, k, d)
            cp.start(5, payload)
            ctx.send(1, "started")
            ctx.recv_any()

        def holder(ctx):
            ctx.recv_any()
            early = ctx.read_local(SEG_MIRROR, slot_offset(1, k, d), HEADER.size)
            ctx.charge(500_000)
            late_buf = ctx.read_local(SEG_MIRROR, slot_offset(1, k, d), slot_size(k, d))
            ctx.send(0, "checked")
            return early, decode_snapshot(late_buf, k, d)

        res = w.run({0: writer, 1: holder})
        early, late = res[1].value
        assert early == b"\x00" * HEADER.size     # not yet updated
        assert as_lists(late) == (1, 5, payload.tolist())  # delivered after the cost

    def test_double_start_rejected(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            cp.start(1, np.zeros((K, D)))
            try:
                cp.start(2, np.zeros((K, D)))
            except SequenceError:
                return "rejected"
            return "accepted"

        res = w.run({0: prog, 1: idle})
        assert res[0].value == "rejected"

    def test_confirm_without_start_commits_nothing(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            assert cp.confirm() is False and cp.last_committed is None
            with pytest.raises(SequenceError):
                cp.fetch()      # nor is there a committed epoch to fetch
            return "ok"

        res = w.run({0: prog, 1: idle})
        assert res[0].value == "ok"

    def test_full_round_all_committed(self):
        w = spawn_world(4, segments=SEGS)
        g = Group(members=(0, 1, 2, 3))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            epoch = cp.start(10, centers_for(ctx.rank, 1))
            committed = commit(cp)
            fetched = cp.fetch()
            return epoch, committed, cp.last_committed, fetched

        res = w.run({r: prog for r in range(4)})
        for r in range(4):
            epoch, committed, last, fetched = res[r].value
            assert epoch == 1
            assert committed is True
            assert last == 1
            assert as_lists(fetched) == (10, centers_for(r, 1).tolist())
        # each rank's mirror region holds its ring source's payload
        for r in range(4):
            src = mirror_source(r, g)
            buf = w.segment_bytes(r, SEG_MIRROR)
            off = slot_offset(1, K, D)
            got = decode_snapshot(buf[off:off + slot_size(K, D)], K, D)
            assert as_lists(got) == (1, 10, centers_for(src, 1).tolist())

    def test_commit_timeout_keeps_previous_epoch(self):
        """A kill between start and commit never disturbs the last commit."""
        plan = FailurePlan([FailureEvent(2, 2, FailPhase.DURING_CHECKPOINT, substep=1)])
        w = spawn_world(4, plan=plan, segments=SEGS, timeout=200)
        g = Group(members=(0, 1, 2, 3))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            first = commit(cp)
            epoch = cp.start(20, centers_for(ctx.rank, 2))
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
            assert as_lists(fetched) == (10, centers_for(r, 1).tolist())

    def test_double_buffer_isolates_epochs(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            commit(cp)
            cp.start(20, centers_for(ctx.rank, 2))   # in flight, uncommitted
            ctx.barrier(g, "inflight")
            return cp.fetch()

        res = w.run({0: prog, 1: prog})
        for r in (0, 1):
            assert as_lists(res[r].value) == (10, centers_for(r, 1).tolist())

    def test_an_exchange_after_land_commits_without_a_barrier(self):
        """`land` waits for this rank's own transfer; once an exchange that
        every member entered after its `land` completes, `confirm` commits."""
        w = spawn_world(2, segments=SEGS, record_trace=True)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            cp.land()                  # nothing started: nothing to wait for
            idle = cp.confirm()
            cp.start(10, centers_for(ctx.rank, 1))
            cp.land()
            ctx.reduce_all(g, 1, "exchange")
            return idle, cp.confirm(), cp.last_committed

        res = w.run({0: prog, 1: prog})
        slot = slot_size(K, D)
        off = slot_offset(1, K, D)
        for r in (0, 1):
            assert res[r].value == (False, True, 1)
            buf = w.segment_bytes(r, SEG_MIRROR)
            assert as_lists(decode_snapshot(buf[off:off + slot], K, D)) == \
                (1, 10, centers_for(mirror_source(r, g), 1).tolist())
        assert [e for e in w.trace if e[0] == "bar"] == []


class TestRestore:
    def test_replacement_fetches_from_mirror_holder(self):
        """A stand-in with an empty local slot reads the copy its left
        neighbor kept for the failed predecessor."""
        w = spawn_world(3, segments=SEGS)
        g_old = Group(members=(0, 1))
        g_new = Group(members=(2, 1), generation=1)   # 2 inherits position 0

        def original(ctx):
            cp = Checkpointer(ctx, g_old, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            commit(cp)
            if ctx.rank == 1:
                ctx.send(2, "committed")
            return "done"

        def replacement(ctx):
            ctx.recv_any()
            cp = Checkpointer(ctx, g_new, K, D, last_committed=1)
            return cp.fetch(), cp.last_committed

        res = w.run({0: original, 1: original, 2: replacement})
        fetched, last = res[2].value
        assert as_lists(fetched) == (10, centers_for(0, 1).tolist())
        assert last == 1

    @staticmethod
    def _fetch_after_kills(dead, g_new):
        """Ranks 0-3 commit epoch 1 (each its own centers) in one group, then
        the ranks in `dead` die; rank 4, at position 0 of `g_new`, fetches."""
        plan = FailurePlan([FailureEvent(r, 1, FailPhase.DURING_COMPUTE) for r in dead])
        w = spawn_world(6, plan=plan, segments=SEGS)
        g_old = Group(members=(0, 1, 2, 3))

        def original(ctx):
            cp = Checkpointer(ctx, g_old, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            commit(cp)
            ctx.send(4, "committed")
            ctx.failure_point(1, FailPhase.DURING_COMPUTE)
            return "survived"

        def replacement(ctx):
            for _ in g_old.members:
                ctx.recv_any()
            while (sum(h.value == "corrupt" for h in ctx.state_vector().values())
                   < len(dead)):
                ctx.charge(1)
            cp = Checkpointer(ctx, g_new, K, D, last_committed=1)
            try:
                return cp.fetch()
            except UnrecoverableError as exc:
                return str(exc)

        res = w.run({0: original, 1: original, 2: original, 3: original,
                     4: replacement, 5: lambda ctx: None})
        return res[4].value

    def test_replacement_falls_back_to_any_members_own_slot(self):
        """Rank 0 and its mirror holder, rank 3, are lost; 3's stand-in holds
        no mirror copy yet and rank 1 is dead too, so rank 2's own slot
        serves."""
        fetched = self._fetch_after_kills((0, 1, 3), Group((4, 1, 2, 5), generation=1))
        assert as_lists(fetched) == (10, centers_for(2, 1).tolist())

    def test_losing_every_holder_is_unrecoverable(self):
        """The mirror holder and every other member are dead or stale."""
        got = self._fetch_after_kills((0, 1, 2, 3), Group((4, 1, 2, 5), generation=1))
        assert "no live member" in got

    def test_adopt_heals_local_slot(self):
        w = spawn_world(3, segments=SEGS)
        g_old = Group(members=(0, 1))
        g_new = Group(members=(2, 1), generation=1)

        def original(ctx):
            cp = Checkpointer(ctx, g_old, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            commit(cp)
            if ctx.rank == 1:
                ctx.send(2, "committed")
            return "done"

        def replacement(ctx):
            ctx.recv_any()
            cp = Checkpointer(ctx, g_new, K, D, last_committed=1)
            iteration, entries = cp.fetch()
            cp.adopt(iteration, entries)
            buf = ctx.read_local(SEG_LOCAL, slot_offset(1, K, D),
                                 slot_size(K, D))
            return decode_snapshot(buf, K, D)

        res = w.run({0: original, 1: original, 2: replacement})
        assert as_lists(res[2].value) == (1, 10, centers_for(0, 1).tolist())

    def test_survivor_fetch_never_leaves_the_rank(self):
        w = spawn_world(2, segments=SEGS)
        g = Group(members=(0, 1))

        def prog(ctx):
            cp = Checkpointer(ctx, g, K, D)
            cp.start(10, centers_for(ctx.rank, 1))
            commit(cp)
            before = ctx.vt
            cp.fetch()
            return ctx.vt - before

        res = w.run({0: prog, 1: prog})
        # local reads are free in the cost model; a remote read would charge
        assert res[0].value == 0
        assert res[1].value == 0
