"""What a simulation keeps alive is work in flight, not history.

Host-independent by construction: object counts, ``weakref`` liveness
and ``tracemalloc`` ratios only — no clock, no CPU count
(``scripts/lint.py``).

* a finished op lets go of everything it allocated (graph links, the
  rendezvous, every rank's buffers) by reference count, so neither live
  objects, peak heap nor cyclic garbage grow with the number of ops;
* an async op on a pool stream leaves no handle behind: ``synchronize()``
  drains the stream instead;
* ``Stream`` gates fold into a float once they resolve;
* one validated group record per job, shared by every member rank;
* rank threads are pooled raw threads, and every one of them is back
  in the pool, idle, however the job ends.
"""

from __future__ import annotations

import _thread
import gc
import tracemalloc
import weakref

import pytest

import repro.sim.engine as engine_mod
from repro.cluster import lassen
from repro.core import BackendError, CommTimeoutError, MCRCommunicator, MCRConfig
from repro.core.handles import WorkHandle
from repro.core.rendezvous import Arrival, Rendezvous
from repro.sim import DeadlockError, Simulator
from repro.sim.engine import Flag
from repro.sim.graph import CollectiveGroup, GpuOp

WORLD = 4
OPS_PER_STEP = 10
_COUNTED = (GpuOp, Arrival, CollectiveGroup, Rendezvous, Flag)


def _live() -> dict:
    """Live instances of the per-op record types, by name."""
    counts = dict.fromkeys((t.__name__ for t in _COUNTED), 0)
    for obj in gc.get_objects():
        if type(obj) in _COUNTED:
            counts[type(obj).__name__] += 1
    return counts


def mixed_program(n_ops: int, probe=None, logged=False):
    """Kernels, sync/async collectives on a stream-aware and a host
    backend, p2p; handles waited, synchronized and dropped.  Each step
    ends in ``comm.synchronize()`` like a training step does."""

    def main(ctx):
        config = MCRConfig(enable_logging=logged)
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
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
        # rendezvous (for timeout diagnostics), which resolution emptied
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

    @pytest.mark.parametrize("deadline", [None, 1e9])
    def test_resolved_collective_holds_no_arrival(self, deadline, no_auto_gc):
        # kept handles hold their rendezvous, and with a deadline set its
        # timeout diagnostics too; a resolved one has let go of every
        # rank's Arrival (84 live here when it did not)
        config = MCRConfig(op_deadline_us=deadline)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            x = ctx.ones(64)
            handles = [comm.all_reduce("nccl", x, async_op=True) for _ in range(20)]
            comm.synchronize()
            comm.barrier("mvapich2-gdr")  # every rank's part has resolved
            # and no rank posts again: an Arrival alive now is a retired one
            arrivals = sum(type(obj) is Arrival for obj in gc.get_objects())
            # a collective's handle waits on its rendezvous
            return arrivals, all(type(h.flag) is Rendezvous for h in handles)

        assert Simulator(WORLD).run(main).rank_results == [(0, True)] * WORLD

    def test_dropped_communicator_frees_by_reference_count(self, no_auto_gc):
        # nothing a communicator owns points back at it (``comm.health``
        # holds a proxy), so the collector is not needed to free it
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            comm.all_reduce("nccl", ctx.ones(8))
            comm.finalize()
            alive = weakref.ref(comm)
            del comm
            return alive() is None

        assert all(Simulator(WORLD).run(main).rank_results)

    def test_cyclic_garbage_after_a_run_does_not_grow_with_ops(self, no_auto_gc):
        def garbage(n_ops: int) -> int:
            Simulator(WORLD).run(mixed_program(n_ops))
            return gc.collect()

        garbage(200)
        assert garbage(2000) == garbage(200)

    def test_cyclic_garbage_after_a_logged_run_does_not_grow_with_ops(self, no_auto_gc):
        """A rendezvous keeps its last comm-log batch, which let go of
        the rendezvous when it fired."""

        def garbage(n_ops: int) -> int:
            Simulator(WORLD).run(mixed_program(n_ops, logged=True))
            return gc.collect()

        garbage(200)
        assert garbage(2000) == garbage(200)


@pytest.mark.parametrize(
    "backend, mode, held",
    [
        ("nccl", "mcr-managed", 0),  # pool stream: synchronize() drains it
        # host path: MPI_Wait needs the handle until it completes; keeping
        # the next one drops the complete ones ahead of it
        ("mvapich2-gdr", "mpi-managed", 2),
    ],
)
def test_dropped_handles_kept_only_where_synchronize_needs_them(
    backend, mode, held, no_auto_gc
):
    def main(ctx):
        comm = MCRCommunicator(ctx, [backend], config=MCRConfig(mpi_stream_mode=mode))
        x = ctx.virtual_tensor(1024)
        for _ in range(200):
            comm.all_reduce(backend, x, async_op=True)  # handle dropped
        live = sum(
            type(obj) is WorkHandle and obj.ctx is ctx for obj in gc.get_objects()
        )
        kept = sum(len(handles) for handles in comm._group.outstanding.values())
        comm.synchronize()
        return live, kept

    assert Simulator(WORLD).run(main).rank_results == [(held, held)] * WORLD


def test_completed_handles_leave_before_synchronize():
    """A host-path or p2p handle stays in the outstanding table only until
    it completes: keeping the next one drops the complete ones ahead of
    it, so waited handles do not pile up until ``synchronize()``."""

    def main(ctx):
        comm = MCRCommunicator(
            ctx, ["mvapich2-gdr", "nccl"], config=MCRConfig(mpi_stream_mode="mpi-managed")
        )
        x, y = ctx.virtual_tensor(1024), ctx.virtual_tensor(1024)
        for _ in range(300):
            comm.all_reduce("mvapich2-gdr", x, async_op=True).wait()
        for _ in range(100):
            sent = comm.isend("nccl", x, (ctx.rank + 1) % WORLD)
            comm.irecv("nccl", y, (ctx.rank - 1) % WORLD).wait()
            sent.wait()
        held = {name: len(handles) for name, handles in comm._group.outstanding.items()}
        comm.synchronize()
        return held

    for held in Simulator(WORLD).run(main).rank_results:
        assert held == {"mvapich2-gdr": 1, "nccl": 1}


def _in_flight(count, held: int = 50, virtual: bool = False) -> float:
    """``count()`` per collective, read on the last rank while a late
    rank holds ``held`` collectives (and the kernels gated on them) in
    flight."""

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        x = ctx.virtual_tensor(64) if virtual else ctx.ones(64)
        if ctx.rank == 0:
            ctx.sleep(1e6)  # everyone else runs ahead
        for _ in range(held):
            comm.all_reduce("nccl", x, async_op=True).wait()
            ctx.launch(3.0)
        result = count() if ctx.rank == WORLD - 1 else None
        comm.synchronize()
        return result

    return Simulator(WORLD).run(main).rank_results[-1] / held


def test_records_per_collective_in_flight(no_auto_gc):
    """One object per collective: its rendezvous is also its completion
    flag and its members' stream group (12.04 when those were three)."""
    per_op = _in_flight(lambda: sum(type(obj) in _COUNTED for obj in gc.get_objects()))
    assert per_op < 11


def test_records_per_collective_in_flight_virtual(no_auto_gc):
    """A timing-only arrival is its host time: an open collective on
    virtual tensors holds no ``Arrival`` (11.64 when each rank's was one;
    8.64 without: a rendezvous, its stream members and the kernels gated
    on them)."""
    per_op = _in_flight(
        lambda: sum(type(obj) in _COUNTED for obj in gc.get_objects()), virtual=True
    )
    assert per_op < 8.7


def test_containers_per_collective_in_flight(no_auto_gc):
    """The post path's allocation diet, as a count: lists and dicts owned
    by the per-op records, flags included."""

    def containers() -> int:
        return sum(
            type(ref) in (list, dict)
            for obj in gc.get_objects() if type(obj) in _COUNTED
            for ref in gc.get_referents(obj)
        )

    # 22.9 before the diet (a successor list on every node, list deps, a
    # dict of extras per arrival), 13.94 after it with flags not counted
    # and 16.02 with them; what is left is each arrival's input/output
    # lists, the arrival table, a collective's member list and its flag
    # lists (waiters, callbacks), and a successor list on the nodes that
    # really have one
    assert _in_flight(containers) < 16.1


class TestStreamGates:
    @staticmethod
    def _longest_gate_list(n_ops: int) -> int:
        """The most pending gates the default stream held while ``n_ops``
        all-reduces ran ahead of it, on any rank."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            # timing-only: the loop never synchronizes, so a host write to
            # a real buffer would race the all-reduces still in flight
            x = ctx.virtual_tensor(64)
            longest = 0
            for _ in range(n_ops):
                comm.all_reduce("nccl", x)  # gates the default stream
                longest = max(longest, len(ctx.default_stream._gates))
            kernel = ctx.launch(10.0, label="after")
            launched_at = ctx.now
            ctx.device_synchronize()
            return longest, kernel.start, launched_at

        result = Simulator(WORLD, trace=True).run(main)
        for rank, (_, start, launched_at) in enumerate(result.rank_results):
            # the kernel waits for every all-reduce it was gated on
            comm_ends = [r.end for r in result.tracer.records
                         if r.rank == rank and r.family == "comm"]
            assert len(comm_ends) == n_ops
            assert start == max(max(comm_ends), launched_at)
        return max(longest for longest, _, _ in result.rank_results)

    def test_gates_fold_on_comm_only_programs(self):
        # posts run ahead without a cap, so every nccl pool stream can
        # have one op in flight; gates fold per stream, so the list is
        # bounded by the pool size, never by the history
        longest = self._longest_gate_list(1000)
        assert longest <= MCRConfig().streams_per_backend
        assert self._longest_gate_list(2000) == longest

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


    def test_per_job_records_exist_once_per_job(self):
        """The job's ``CommShared``, its interned labels, a group's node
        placement and comm path, and each library's backend are one
        object each, whichever rank built them.  A rank's phase groups
        post on its communicator's stream pools, each keeping its own
        round-robin position."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            x = ctx.virtual_tensor(1 << 20)
            comm.all_reduce("hier:nccl+mvapich2-gdr", x)
            comm.all_reduce("hier:nccl+mvapich2-gdr", ctx.virtual_tensor(1024))
            comm.all_reduce("nccl", x)
            comm.synchronize()
            labels, pools = {}, []
            # a composite's phase plans live in its phase groups' indexes
            plans = [
                plan for group in (comm._group, *comm._phase_groups.values())
                for plan in group.state.plans.values()
            ]
            for flat in plans:
                if flat.hier is None:
                    labels[flat.label] = flat.label
                    if flat.pool:
                        pools.append(flat.pool == flat.backend.name in comm.sync.pools)
            groups = [comm._group, *comm._phase_groups.values()]
            turns = [dict(g.turns) for g in groups]
            assert not any(hasattr(g, "sync") for g in groups)
            out = (
                comm._job, labels, comm._hier_layout(), comm._group.record.comm_path,
                dict(comm.backends), pools, turns,
            )
            comm.finalize()
            return out

        results = Simulator(16, system=lassen()).run(main).rank_results
        job, labels, layout, path, backends, _, _ = results[0]
        assert set(labels) == {
            "allreduce:nccl", "reduce_scatter:nccl@intra",
            "allreduce:mvapich2-gdr@inter", "allgather:nccl@intra",
        }
        assert path is job.groups[None].comm_path
        for rank_job, rank_labels, rank_layout, rank_path, rank_backends, pools, turns in results:
            assert rank_job is job and rank_layout is layout and rank_path is path
            assert rank_labels.keys() == labels.keys()
            assert all(rank_labels[k] is labels[k] for k in labels)
            assert all(rank_backends[n] is backends[n] for n in backends)
            assert pools and all(pools)
            # the flat 4 MiB op is pinned to stream 0; the 4 KiB
            # composite's two intra phases round-robin on the node group
            assert turns[0] == {} and turns[1] == {"nccl": 2}


class TestRankThreadsLeave:
    """However a run ends, every thread it borrowed is back in the pool,
    idle, when ``run()`` returns: on a warm pool the run starts no thread
    and leaks none."""

    def _run(self, main, world=WORLD, raises=None):
        Simulator(world).run(lambda ctx: None)  # warm the pool
        before, idle = _thread._count(), len(engine_mod._idle)
        if raises is None:
            Simulator(world).run(main)
        else:
            with pytest.raises(raises):
                Simulator(world).run(main)
        assert (_thread._count(), len(engine_mod._idle)) == (before, idle)

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


def _never_posted_detail(make) -> str:
    """The CommTimeoutError detail of a program whose rank 2 skips a
    collective, on tensors ``make(ctx)`` builds."""
    config = MCRConfig(op_deadline_us=400.0)

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
        x = make(ctx)
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
    return err.value.detail


def test_timeout_still_names_who_never_posted():
    # the diagnostic reads rank/host_time off the arrivals of an
    # *unfinished* rendezvous, after earlier ones have been retired
    detail = _never_posted_detail(lambda ctx: ctx.ones(16))
    assert "ranks [2] never posted" in detail
    for rank in (0, 1, 3):
        assert f"rank {rank}@" in detail


def test_timeout_names_who_never_posted_on_virtual_tensors():
    # a timing-only arrival is its host time alone: the diagnostic
    # reads that, and says the same as on real tensors
    detail = _never_posted_detail(lambda ctx: ctx.virtual_tensor(16))
    assert "ranks [2] never posted" in detail
    for rank in (0, 1, 3):
        assert f"rank {rank}@" in detail
    assert detail == _never_posted_detail(lambda ctx: ctx.ones(16))
