"""Synchronization semantics (paper §V-C, Fig. 4): naive serialization vs
MCR-DL's fine-grained CUDA-event scheme; stream pools; overlap."""

import numpy as np
import pytest

from repro.core import MCRCommunicator, MCRConfig
from repro.sim import Simulator


def listing3(ctx, config, comm_size=1 << 22):
    """The paper's Listing 3: allreduce(x) overlapped with y = y + y."""
    comm = MCRCommunicator(ctx, ["nccl"], config=config)
    x = ctx.virtual_tensor(comm_size)
    h = comm.all_reduce("nccl", x, async_op=True)
    ctx.launch(400.0, label="y=y+y")  # independent of x
    h.wait()
    ctx.launch(50.0, label="x+y")  # depends on both
    comm.finalize()
    return ctx.now


class TestFigure4:
    def test_fine_grained_overlaps_naive_serializes(self):
        fine = Simulator(4, trace=True).run(
            listing3, MCRConfig(synchronization="fine-grained")
        )
        naive = Simulator(4, trace=True).run(
            listing3, MCRConfig(synchronization="naive")
        )
        assert fine.elapsed_us < naive.elapsed_us

    def test_fine_grained_compute_comm_overlap_positive(self):
        res = Simulator(2, trace=True).run(
            listing3, MCRConfig(synchronization="fine-grained")
        )
        comm = res.tracer.filter(rank=0, category="comm")
        compute = res.tracer.filter(rank=0, label_contains="y=y+y")
        assert res.tracer.overlap_time(comm, compute) > 0

    def test_naive_has_no_overlap(self):
        res = Simulator(2, trace=True).run(
            listing3, MCRConfig(synchronization="naive")
        )
        comm = res.tracer.filter(rank=0, category="comm")
        compute = res.tracer.filter(rank=0, label_contains="y=y+y")
        assert res.tracer.overlap_time(comm, compute) == pytest.approx(0.0)

    def test_dependent_kernel_ordered_after_comm(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.virtual_tensor(1 << 22)
            h = comm.all_reduce("nccl", x, async_op=True)
            h.wait()
            node = ctx.launch(10.0, label="consumer")
            ctx.device_synchronize()
            comm.finalize()
            return node.start

        res = Simulator(2, trace=True).run(main)
        comm_end = max(r.end for r in res.tracer.filter(rank=0, category="comm"))
        assert all(start >= comm_end for start in res.rank_results)


class TestStreamPools:
    def test_small_messages_round_robin(self):
        def main(ctx):
            config = MCRConfig(streams_per_backend=3)
            comm = MCRCommunicator(ctx, ["nccl"], config=config)
            for _ in range(3):
                comm.all_reduce("nccl", ctx.zeros(16), async_op=True).wait()
            comm.finalize()
            return sorted(
                name for name in ctx.gpu.streams if name.startswith("nccl:comm")
            )

        res = Simulator(2).run(main)
        assert res.rank_results[0] == ["nccl:comm0", "nccl:comm1", "nccl:comm2"]

    def test_large_messages_pinned_to_stream0(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            for _ in range(3):
                comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True).wait()
            comm.finalize()

        res = Simulator(2, trace=True).run(main)
        comm_recs = res.tracer.filter(rank=0, category="comm")
        assert {r.stream for r in comm_recs} == {"nccl:comm0"}

    def test_concurrent_small_ops_overlap(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            handles = [
                # just under the large-message threshold: small enough to
                # round-robin across the pool, big enough to outlast the
                # host's posting gap
                comm.all_reduce("nccl", ctx.zeros(16000), async_op=True)
                for _ in range(4)
            ]
            for h in handles:
                h.synchronize()
            comm.finalize()

        res = Simulator(8, trace=True).run(main)
        recs = res.tracer.filter(rank=0, category="comm")
        assert len(recs) == 4
        union = res.tracer.busy_time(recs)
        total = sum(r.duration for r in recs)
        assert union < total  # at least two ran concurrently


class TestHandleSemantics:
    def test_nccl_wait_does_not_block_host(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            ctx.sleep(ctx.rank * 5000.0)  # rank 1 arrives late
            x = ctx.virtual_tensor(1 << 22)
            h = comm.all_reduce("nccl", x, async_op=True)
            t0 = ctx.now
            h.wait()
            host_block = ctx.now - t0
            comm.finalize()
            return host_block

        res = Simulator(2).run(main)
        assert res.rank_results[0] < 1.0  # rank 0 did not wait for rank 1

    def test_mpi_wait_blocks_host(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            ctx.sleep(ctx.rank * 5000.0)
            x = ctx.virtual_tensor(1 << 22)
            h = comm.all_reduce("mvapich2-gdr", x, async_op=True)
            t0 = ctx.now
            h.wait()
            host_block = ctx.now - t0
            comm.finalize()
            return host_block

        res = Simulator(2).run(main)
        assert res.rank_results[0] >= 5000.0  # MPI_Wait until rank 1 arrived

    def test_synchronize_always_blocks(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.virtual_tensor(1 << 22)
            h = comm.all_reduce("nccl", x, async_op=True)
            h.synchronize()
            done = h.is_completed()
            comm.finalize()
            return done

        assert all(Simulator(2).run(main).rank_results)

    def test_wait_wrong_backend_rejected(self):
        from repro.core import MCRError

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            h = comm.all_reduce("nccl", ctx.zeros(4), async_op=True)
            h.wait("mvapich2-gdr")

        with pytest.raises(MCRError, match="belongs to backend"):
            Simulator(2).run(main)

    def test_completion_time_exposed(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            h = comm.all_reduce("mvapich2-gdr", ctx.zeros(4), async_op=True)
            h.synchronize()
            t = h.completion_time
            comm.finalize()
            return t

        res = Simulator(2).run(main)
        assert res.rank_results[0] is not None and res.rank_results[0] > 0


class TestSynchronizeAPI:
    def test_synchronize_drains_outstanding(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            h1 = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
            h2 = comm.all_reduce("mvapich2-gdr", ctx.virtual_tensor(1 << 20), async_op=True)
            comm.synchronize()
            ok = h1.is_completed() and h2.is_completed()
            comm.finalize()
            return ok

        assert all(Simulator(2).run(main).rank_results)

    @pytest.mark.parametrize("deadline_us", [None, 1e9])
    @pytest.mark.parametrize(
        "mode, kept",
        [
            # pool-stream ops are drained through their streams; only p2p
            # handles are kept, and the eager isend, complete when the
            # irecv is kept behind it, is dropped then
            ({}, {"mvapich2-gdr": ["irecv"]}),
            # MPI on the host path, complete (like the isend) by the time
            # the next handle is kept behind it
            ({"mpi_stream_mode": "mpi-managed"}, {"mvapich2-gdr": ["irecv"]}),
            # everything on the default stream, whose pre-post sync waits
            # out each op before the next is kept
            ({"synchronization": "naive"}, {"mvapich2-gdr": ["irecv"], "nccl": ["large"]}),
        ],
        ids=["mcr-managed", "mpi-managed", "naive"],
    )
    def test_synchronize_drains_what_outstanding_does_not_hold(
        self, mode, kept, deadline_us
    ):
        """No handle is ever waited: ``synchronize`` alone completes every
        op, whether or not ``Group.outstanding`` holds its handle."""
        world = 4
        config = MCRConfig(op_deadline_us=deadline_us, **mode)

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            mine = ctx.rank + 1.0
            small, large = ctx.full(1024, mine), ctx.full(1 << 18, mine)
            mpi, sent, got = ctx.full(1024, mine), ctx.full(1024, mine), ctx.zeros(1024)
            handles = {
                # MPI first: naive mode's pre-post sync would otherwise
                # wait out the nccl ops before synchronize("nccl") could
                "mpi": comm.all_reduce("mvapich2-gdr", mpi, async_op=True),
                "small": comm.all_reduce("nccl", small, async_op=True),  # round-robin
                "large": comm.all_reduce("nccl", large, async_op=True),  # stream 0
                "isend": comm.isend("mvapich2-gdr", sent, (ctx.rank + 1) % world),
                "irecv": comm.irecv("mvapich2-gdr", got, (ctx.rank - 1) % world),
            }
            tag = {id(h): name for name, h in handles.items()}
            outstanding = {
                name: [tag[id(h)] for h in held] for name, held in comm._group.outstanding.items()
            }
            comm.synchronize("nccl")
            after_nccl = ctx.now
            comm.synchronize()
            completion = {name: h.completion_time for name, h in handles.items()}
            data = [t.data.copy() for t in (small, large, mpi, got)]
            comm.finalize()
            return outstanding, after_nccl, ctx.now, completion, data

        for rank, (outstanding, after_nccl, now, completion, data) in enumerate(
            Simulator(world).run(main).rank_results
        ):
            assert outstanding == kept
            assert after_nccl == max(completion["small"], completion["large"])
            assert now == max(completion.values())
            total = sum(range(1, world + 1))
            for array in data[:3]:
                assert np.array_equal(array, np.full(array.size, total, np.float32))
            assert np.array_equal(data[3], np.full(1024, (rank - 1) % world + 1.0, np.float32))

    def test_synchronize_single_backend(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
            comm.synchronize("nccl")
            ok = h.is_completed()
            comm.finalize()
            return ok

        assert all(Simulator(2).run(main).rank_results)


class TestPrePostSync:
    def test_host_path_waits_for_a_peer_still_syncing(self):
        """Under ``mpi-managed`` a host-path collective host-syncs the
        default stream before it posts.  A peer that arrives while
        another rank is still in that sync must not resolve the
        rendezvous with the syncing rank's pre-sync arrival time: both
        ranks return together, after the later post."""
        config = MCRConfig(mpi_stream_mode="mpi-managed")

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            if ctx.rank == 0:
                ctx.launch(1000.0)  # drained by the pre-post sync
            else:
                ctx.sleep(500.0)
            posted = ctx.now
            comm.all_reduce("mvapich2-gdr", ctx.virtual_tensor(262_144))
            returned = ctx.now
            comm.finalize()
            return posted, returned, ctx.gpu.default_stream.tail_time

        (post0, ret0, drained0), (post1, ret1, _) = Simulator(2).run(main).rank_results
        assert ret0 == ret1
        assert ret0 > max(post0, post1, drained0)


class TestWireLaneAdmission:
    def test_cross_path_interference_through_the_communicator(self):
        """A bandwidth-bound stream-lane (nccl) and host-lane
        (mvapich2-gdr, ``mpi-managed``) all-reduce posted back to back:
        the second is admitted ``interference × duration`` of the first
        after the first starts."""
        from repro.cluster import lassen

        system = lassen()
        config = MCRConfig(mpi_stream_mode="mpi-managed")

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config)
            h1 = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
            h2 = comm.all_reduce("mvapich2-gdr", ctx.virtual_tensor(1 << 20), async_op=True)
            h1.synchronize()
            h2.synchronize()
            comm.finalize()

        res = Simulator(2, system=system, trace=True).run(main)
        (first,) = res.tracer.filter(rank=0, label_contains="allreduce:nccl")
        (second,) = res.tracer.filter(rank=0, label_contains="allreduce:mvapich2-gdr")
        assert first.stream != "mpi-host" and second.stream == "mpi-host"
        duration = first.end - first.start
        admitted = first.start + system.cross_path_interference * duration
        assert second.start == pytest.approx(admitted, rel=1e-12)
        assert second.start - first.start < duration  # the lanes overlap
