"""What a simulation keeps alive is work in flight, not history.

Host-independent by construction: object counts, ``weakref`` liveness
and ``tracemalloc`` ratios only — no clock, no CPU count
(``scripts/check_tests_hostfree.py``).

* a finished op lets go of everything it allocated (graph links, the
  rendezvous, every rank's buffers) by reference count, so neither live
  objects, peak heap nor cyclic garbage grow with the number of ops;
* ``Stream`` gates fold into a float once they resolve;
* one validated group record per job, shared by every member rank;
* rank threads are raw threads and every one of them leaves, however
  the job ends.
"""

from __future__ import annotations

import _thread
import gc
import time
import tracemalloc
import weakref

import pytest

from repro.core import BackendError, CommTimeoutError, MCRCommunicator, MCRConfig
from repro.core.rendezvous import Arrival, Rendezvous
from repro.sim import DeadlockError, Simulator
from repro.sim.graph import CollectiveGroup, GpuOp

WORLD = 4
OPS_PER_STEP = 10
_COUNTED = (GpuOp, Arrival, CollectiveGroup, Rendezvous)


def _live() -> dict:
    """Live instances of the per-op record types, by name."""
    counts = dict.fromkeys((t.__name__ for t in _COUNTED), 0)
    for obj in gc.get_objects():
        if type(obj) in _COUNTED:
            counts[type(obj).__name__] += 1
    return counts


def mixed_program(n_ops: int, probe=None):
    """Kernels, sync/async collectives on a stream-aware and a host
    backend, p2p; handles waited, synchronized and dropped.  Each step
    ends in ``comm.synchronize()`` like a training step does."""

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        x, y = ctx.ones(256), ctx.ones(256)
        peer = ctx.rank ^ 1
        for _ in range(n_ops // OPS_PER_STEP):
            x.fill_(1.0)
            y.fill_(1.0)
            ctx.launch(20.0, label="fwd")
            comm.all_reduce("nccl", x)
            waited = comm.all_reduce("nccl", y, async_op=True)
            ctx.launch(20.0, label="bwd")
            waited.wait()
            comm.all_reduce("mvapich2-gdr", x)
            comm.all_reduce("mvapich2-gdr", y, async_op=True).synchronize()
            comm.bcast("nccl", x, root=1, async_op=True)  # handle dropped
            if ctx.rank < peer:
                comm.send("mvapich2-gdr", x, peer)
            else:
                comm.recv("mvapich2-gdr", y, peer)
            ctx.launch(5.0, stream=ctx.stream("side"), label="opt")
            comm.synchronize()
        comm.barrier("mvapich2-gdr")
        return probe() if probe is not None else None

    return main


@pytest.fixture
def no_auto_gc():
    """Collections happen where the test says, not where the allocator
    counters happen to trip."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestFinishedOpsAreReleased:
    def test_live_objects_do_not_grow_with_ops(self, no_auto_gc):
        # counted at every rank's last line with the collector off, so a
        # per-op reference cycle would show as growth too
        def live_at_last_line(n_ops: int) -> list:
            gc.collect()  # the previous job's per-rank leftovers
            return Simulator(WORLD).run(mixed_program(n_ops, _live)).rank_results

        assert live_at_last_line(2000) == live_at_last_line(200)

    def test_peak_heap_does_not_grow_with_ops(self):
        def peak(n_ops: int) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                Simulator(WORLD).run(mixed_program(n_ops))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # imports and module-level caches land outside the ratio
        assert peak(2000) < 1.5 * peak(200)

    @pytest.mark.parametrize("backend", ["nccl", "mvapich2-gdr"])
    @pytest.mark.parametrize("keep_handle", [False, True])
    def test_finished_collective_lets_go_of_its_buffers(
        self, backend, keep_handle, no_auto_gc
    ):
        # with a deadline set, a handle the user keeps holds the
        # rendezvous (for timeout diagnostics) and so every Arrival
        config = MCRConfig(op_deadline_us=1e9 if keep_handle else None)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            x = ctx.ones(1024)
            buffer = weakref.ref(x.data)
            handle = comm.all_reduce(backend, x, async_op=keep_handle)
            comm.synchronize()
            comm.barrier("mvapich2-gdr")  # every rank's part has finished
            held_by_user = buffer() is not None
            del x
            dead_mid_job = buffer() is None
            comm.all_reduce(backend, ctx.ones(8))  # the job goes on
            comm.finalize()
            return held_by_user, dead_mid_job, handle is not None

        expected = [(True, True, keep_handle)] * WORLD
        assert Simulator(WORLD).run(main).rank_results == expected

    def test_cyclic_garbage_after_a_run_does_not_grow_with_ops(self, no_auto_gc):
        def garbage(n_ops: int) -> int:
            Simulator(WORLD).run(mixed_program(n_ops))
            return gc.collect()

        garbage(200)
        assert garbage(2000) == garbage(200)


def test_containers_per_collective_in_flight(no_auto_gc):
    """The post path's allocation diet, as a count: lists and dicts owned
    by the per-op records while a late rank holds ``held`` collectives
    (and the kernels gated on them) in flight."""
    held = 50

    def containers() -> int:
        return sum(
            type(ref) in (list, dict)
            for obj in gc.get_objects() if type(obj) in _COUNTED
            for ref in gc.get_referents(obj)
        )

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        x = ctx.ones(64)
        if ctx.rank == 0:
            ctx.sleep(1e6)  # everyone else runs ahead
        for _ in range(held):
            comm.all_reduce("nccl", x, async_op=True).wait()
            ctx.launch(3.0)
        count = containers() if ctx.rank == WORLD - 1 else None
        comm.synchronize()
        return count

    per_op = Simulator(WORLD).run(main).rank_results[-1] / held
    # 22.9 before the diet (a successor list on every node, list deps, a
    # dict of extras per arrival); what is left is each arrival's
    # input/output lists, the member and arrival tables, and a successor
    # list on the nodes that really have one
    assert per_op < 14


class TestStreamGates:
    def test_gates_fold_on_comm_only_programs(self):
        n_ops = 1000

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.ones(64)
            longest = 0
            for _ in range(n_ops):
                x.fill_(1.0)
                comm.all_reduce("nccl", x)  # gates the default stream
                longest = max(longest, len(ctx.default_stream._gates))
            kernel = ctx.launch(10.0, label="after")
            launched_at = ctx.now
            ctx.device_synchronize()
            return longest, kernel.start, launched_at

        result = Simulator(WORLD, trace=True).run(main)
        for rank, (longest, start, launched_at) in enumerate(result.rank_results):
            # at most the ops still in flight, never the history
            assert longest <= 2
            # the kernel waits for every all-reduce it was gated on
            comm_ends = [r.end for r in result.tracer.records
                         if r.rank == rank and r.category == "comm"]
            assert len(comm_ends) == n_ops
            assert start == max(max(comm_ends), launched_at)

    def test_folded_gate_times_match_event_semantics(self):
        # a resolved gate (folded to a float) and an unresolved one (kept
        # as a node) must order the next kernel identically
        def main(ctx):
            side = ctx.stream("side")
            a = ctx.launch(100.0, stream=side, label="a")
            event = ctx.record_event(side)
            ctx.default_stream.wait_event(event)  # resolved: folds
            b = ctx.launch(1.0, label="b")
            c = ctx.launch(1.0, label="c")
            return a.end, b.start, c.start, b.end

        a_end, b_start, c_start, b_end = Simulator(1).run(main).rank_results[0]
        assert b_start == a_end
        assert c_start == b_end


class TestSharedGroupRecord:
    def test_group_ranks_is_one_object_per_group(self):
        def main(ctx):
            world = MCRCommunicator(ctx, ["nccl"])
            spelled = MCRCommunicator(ctx, ["nccl"], ranks=range(ctx.world_size))
            parity = ctx.rank % 2
            sub = MCRCommunicator(
                ctx, ["nccl"], comm_id=f"parity{parity}",
                ranks=[r for r in range(ctx.world_size) if r % 2 == parity],
            )
            return world.group_ranks, spelled.group_ranks, sub.group_ranks

        results = Simulator(6).run(main).rank_results
        world = results[0][0]
        assert world == list(range(6))
        for rank, (w, spelled, sub) in enumerate(results):
            assert w is world and spelled is world
            assert sub is results[rank % 2][2]
        assert results[0][2] == [0, 2, 4] and results[1][2] == [1, 3, 5]

    def test_rank_on_interleaved_and_uneven_groups(self):
        groups = {"big": [5, 0, 3, 6, 1], "small": [4, 2]}

        def main(ctx):
            name = "big" if ctx.rank in groups["big"] else "small"
            comm = MCRCommunicator(ctx, ["nccl"], ranks=groups[name], comm_id=name)
            x = ctx.full(2, float(ctx.rank))
            comm.bcast("nccl", x, root=1)  # group rank 1
            comm.finalize()
            return name, comm.rank, comm.group_rank, comm.get_rank(), float(x.data[0])

        for rank, (name, r, gr, got, value) in enumerate(Simulator(7).run(main).rank_results):
            assert r == gr == got == groups[name].index(rank)
            assert value == float(groups[name][1])

    @pytest.mark.parametrize(
        "ranks, message",
        [
            ([0, 1, 1], r"duplicate ranks in group \[0, 1, 1\]"),
            ([0, 9], "group rank 9 out of range"),
            ([1, 2], r"rank 0 constructing a communicator for group \[1, 2\] "
                     "it does not belong to"),
        ],
    )
    def test_bad_groups_raise_the_same_errors(self, ranks, message):
        def main(ctx):
            if ctx.rank != 0:
                ctx.sleep(1.0)  # rank 0 meets the group first
                if ctx.rank not in ranks:
                    return
            MCRCommunicator(ctx, ["nccl"], ranks=ranks, comm_id="bad")

        with pytest.raises(BackendError, match=message):
            Simulator(3).run(main)

    def test_config_validated_once_per_object_per_job(self):
        calls = []

        class Counting(MCRConfig):
            def validate(self):
                calls.append(self)
                super().validate()

        config = Counting()

        def main(ctx):
            MCRCommunicator(ctx, ["nccl"], config=config).finalize()
            MCRCommunicator(ctx, ["nccl"], config=config, comm_id="again").finalize()

        Simulator(WORLD).run(main)
        assert calls == [config]
        Simulator(WORLD).run(main)  # a new job validates again
        assert calls == [config, config]

        def bad(ctx):
            MCRCommunicator(ctx, ["nccl"], config=MCRConfig(streams_per_backend=0))

        with pytest.raises(ValueError, match="streams_per_backend"):
            Simulator(2).run(bad)


def _threads_settle_at(expected: int) -> bool:
    """A raw thread is counted until its bootstrap returns, a few
    instructions after it told ``Engine.run`` it left."""
    for _ in range(2000):
        if _thread._count() == expected:
            return True
        time.sleep(0.001)
    return False


class TestRankThreadsLeave:
    def _run(self, main, world=WORLD, raises=None):
        before = _thread._count()
        if raises is None:
            Simulator(world).run(main)
        else:
            with pytest.raises(raises):
                Simulator(world).run(main)
        assert _threads_settle_at(before), (before, _thread._count())

    def test_after_success(self):
        self._run(mixed_program(20))

    def test_after_a_raising_rank(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            if ctx.rank == 2:
                raise RuntimeError("rank 2 gives up")
            comm.all_reduce("mvapich2-gdr", ctx.ones(4))  # the others park

        self._run(main, raises=RuntimeError)

    def test_after_a_deadlock(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            if ctx.rank != 0:
                comm.all_reduce("mvapich2-gdr", ctx.ones(4))

        self._run(main, raises=DeadlockError)

    def test_after_a_timeout(self):
        config = MCRConfig(op_deadline_us=200.0)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"], config=config)
            if ctx.rank == 0:
                ctx.sleep(10_000.0)
            else:
                comm.all_reduce("mvapich2-gdr", ctx.ones(4))

        self._run(main, raises=CommTimeoutError)


def test_timeout_still_names_who_never_posted():
    # the diagnostic reads rank/host_time off the arrivals of an
    # *unfinished* rendezvous, after earlier ones have been retired
    config = MCRConfig(op_deadline_us=400.0)

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
        x = ctx.ones(16)
        for _ in range(5):
            comm.all_reduce("nccl", x)
            comm.all_reduce("mvapich2-gdr", x)
        comm.synchronize()
        if ctx.rank == 2:
            ctx.sleep(50_000.0)  # never posts the next one
        else:
            comm.all_reduce("nccl", x, async_op=True).synchronize()

    with pytest.raises(CommTimeoutError) as err:
        Simulator(WORLD).run(main)
    detail = err.value.detail
    assert "ranks [2] never posted" in detail
    for rank in (0, 1, 3):
        assert f"rank {rank}@" in detail
