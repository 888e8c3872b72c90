"""Baseline frameworks (Table I): capability gaps and overhead profiles."""

import numpy as np
import pytest

from repro.frameworks import (
    FEATURE_MATRIX,
    HorovodLike,
    Mpi4pyLike,
    TorchDistributed,
    feature_table_rows,
)
from repro.frameworks.horovod import UnsupportedOpError as HvdUnsupported
from repro.frameworks.torch_dist import UnsupportedOpError as TorchUnsupported
from repro.sim import DeadlockError, Simulator


class TestTorchDistributed:
    def test_basic_collectives_work(self):
        def main(ctx):
            dist = TorchDistributed(ctx, "nccl")
            x = ctx.full(8, float(ctx.rank + 1))
            dist.all_reduce(x)
            dist.synchronize()
            value = float(x.data[0])
            dist.finalize()
            return value

        assert Simulator(2).run(main).rank_results == [3.0, 3.0]

    def test_no_vectored_collectives(self):
        def main(ctx):
            dist = TorchDistributed(ctx, "nccl")
            with pytest.raises(TorchUnsupported, match="vectored"):
                dist.gatherv()
            with pytest.raises(TorchUnsupported):
                dist.all_to_allv()
            dist.finalize()

        Simulator(1).run(main)

    def test_nonblocking_nccl_only(self):
        def main(ctx):
            dist = TorchDistributed(ctx, "mvapich2-gdr")
            with pytest.raises(TorchUnsupported, match="NCCL backend only"):
                dist.all_reduce(ctx.zeros(4), async_op=True)
            dist.finalize()

        Simulator(1).run(main)

    def test_nonblocking_allowed_on_nccl(self):
        def main(ctx):
            dist = TorchDistributed(ctx, "nccl")
            h = dist.all_reduce(ctx.zeros(4), async_op=True)
            h.synchronize()
            dist.finalize()

        Simulator(2).run(main)

    def test_higher_dispatch_cost_than_mcr(self):
        from repro.core import MCRConfig
        from repro.models.plan import PROFILES

        assert PROFILES["torch-distributed"].dispatch_overhead_us > MCRConfig().dispatch_overhead_us


    def test_caller_config_left_untouched(self):
        """The torch overhead profile goes on a copy: a config the caller
        hands in keeps its own dispatch costs, and the other fields it
        sets still reach the communicator."""
        from repro.core import MCRConfig
        from repro.models.plan import PROFILES

        config = MCRConfig(synchronization="naive")

        def main(ctx):
            dist = TorchDistributed(ctx, "nccl", config=config)
            used = dist._comm.config
            dist.finalize()
            return used.dispatch_overhead_us, used.synchronization

        results = Simulator(2).run(main).rank_results
        overhead = PROFILES["torch-distributed"].dispatch_overhead_us
        assert results == [(overhead, "naive")] * 2
        assert config == MCRConfig(synchronization="naive")


class TestHorovod:
    def test_allreduce_averages_and_fuses(self):
        def main(ctx):
            hvd = HorovodLike(ctx, "nccl")
            x = ctx.full(8, float(ctx.rank))  # ranks 0,1 -> avg 0.5
            h = hvd.allreduce(x)
            hvd.flush()
            h.synchronize()
            value = float(x.data[0])
            hvd.finalize()
            return value

        assert Simulator(2).run(main).rank_results == [0.5, 0.5]

    def test_no_p2p_or_alltoall(self):
        def main(ctx):
            hvd = HorovodLike(ctx, "nccl")
            with pytest.raises(HvdUnsupported):
                hvd.send()
            with pytest.raises(HvdUnsupported):
                hvd.alltoall()
            with pytest.raises(HvdUnsupported):
                hvd.gatherv()
            hvd.finalize()

        Simulator(1).run(main)

    def test_experimental_mixing_can_deadlock(self):
        """Table I: Horovod's mixed mode has no deadlock avoidance."""

        def main(ctx):
            hvd = HorovodLike(ctx, "nccl", experimental_mixed=["mvapich2-gdr"])
            x = ctx.virtual_tensor(1 << 18)
            y = ctx.virtual_tensor(1 << 18)
            if ctx.rank % 2 == 0:
                hvd._comm.all_reduce("nccl", x)
                hvd._comm.all_reduce("mvapich2-gdr", y)
            else:
                hvd._comm.all_reduce("mvapich2-gdr", y)
                hvd._comm.all_reduce("nccl", x)
            hvd.finalize()

        with pytest.raises(DeadlockError):
            Simulator(2).run(main)

    def test_fusion_stats_exposed(self):
        def main(ctx):
            hvd = HorovodLike(ctx, "nccl")
            for _ in range(4):
                hvd.allreduce(ctx.zeros(16))
            hvd.flush()
            stats = hvd.fusion_stats
            hvd.finalize()
            return stats["fused_tensors"]

        assert Simulator(2).run(main).rank_results[0] == 4


class TestMpi4py:
    def test_full_mpi_surface_including_vectored(self):
        def main(ctx):
            mpi = Mpi4pyLike(ctx)
            p = mpi.Get_size()
            x = ctx.full(2, float(ctx.rank))
            out = ctx.zeros(2 * p)
            mpi.Allgatherv(out, x, rcounts=[2] * p, displs=[2 * r for r in range(p)])
            mpi.Barrier()
            value = out.data.copy()
            mpi.finalize()
            return value

        results = Simulator(2).run(main).rank_results
        assert np.array_equal(results[0], [0, 0, 1, 1])

    def test_nonblocking_rooted_and_vectored_spellings(self):
        # the surface Table I's mpi4py row credits (vectored and
        # non-blocking ops), through the facade's MPI names
        def main(ctx):
            mpi = Mpi4pyLike(ctx)
            r = ctx.rank
            summed = ctx.full(2, float(r + 1))
            mpi.Iallreduce(summed).wait()
            swapped = ctx.zeros(2)
            mpi.Alltoallv(swapped, ctx.arange(2) + 10.0 * r, [1, 1], [0, 1], [1, 1], [0, 1])
            scattered_sum = ctx.zeros(1)
            mpi.Reduce_scatter(scattered_sum, ctx.full(2, float(r + 1)))
            bcast = ctx.full(2, float(r))
            mpi.Bcast(bcast, root=1)
            gathered = ctx.zeros(2) if r == 0 else None
            mpi.Gatherv(ctx.full(1, float(r)), gathered, [1, 1], [0, 1], root=0)
            scattered = ctx.zeros(1)
            mpi.Scatterv(scattered, ctx.arange(2) if r == 0 else None, [1, 1], [0, 1], root=0)
            out = [t.data.tolist() for t in (summed, swapped, scattered_sum, bcast, scattered)]
            out.append(None if gathered is None else gathered.data.tolist())
            mpi.finalize()
            return out

        rank0, rank1 = Simulator(2).run(main).rank_results
        assert rank0 == [[3, 3], [0, 10], [3], [1, 1], [0], [0, 1]]
        assert rank1 == [[3, 3], [1, 11], [3], [1, 1], [1], None]

    def test_rank_size(self):
        def main(ctx):
            mpi = Mpi4pyLike(ctx)
            info = (mpi.Get_rank(), mpi.Get_size())
            mpi.finalize()
            return info

        assert Simulator(3).run(main).rank_results[1] == (1, 3)

    def test_host_staging_costs_time(self):
        """Listing 2's cupy->numpy->MPI->numpy->cupy staging penalty."""
        from repro.core import MCRCommunicator

        def mpi4py_run(ctx):
            mpi = Mpi4pyLike(ctx)
            mpi.Allreduce(ctx.virtual_tensor(4 << 20))
            mpi.finalize()
            return ctx.now

        def mcr_run(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            comm.all_reduce("mvapich2-gdr", ctx.virtual_tensor(4 << 20))
            comm.finalize()
            return ctx.now

        staged = max(Simulator(2).run(mpi4py_run).rank_results)
        direct = max(Simulator(2).run(mcr_run).rank_results)
        assert staged > direct * 1.2

    def test_send_recv(self):
        def main(ctx):
            mpi = Mpi4pyLike(ctx)
            if ctx.rank == 0:
                mpi.Send(ctx.arange(4), dest=1)
            else:
                buf = ctx.zeros(4)
                mpi.Recv(buf, source=0)
                assert np.array_equal(buf.data, np.arange(4))
            mpi.finalize()

        Simulator(2).run(main)


class TestFeatureMatrix:
    def test_all_frameworks_present(self):
        assert set(FEATURE_MATRIX) == {
            "horovod", "torch-distributed", "lbann", "mpi4py", "mcr-dl"
        }

    def test_mcr_dl_row_all_yes(self):
        row = FEATURE_MATRIX["mcr-dl"]
        assert row.point_to_point == "yes"
        assert row.collectives == "yes"
        assert row.vector_collectives == "yes"
        assert row.non_blocking == "yes"
        assert row.mixed_backend == "yes"
        assert row.backend_as_class == "yes"

    def test_competitors_have_gaps(self):
        for key in ("horovod", "torch-distributed", "lbann", "mpi4py"):
            row = FEATURE_MATRIX[key]
            assert "no" in (
                row.point_to_point, row.vector_collectives, row.mixed_backend,
                row.backend_as_class,
            ) or row.mixed_backend == "experimental", key

    def test_render_rows(self):
        rows = feature_table_rows()
        assert rows[0][0] == "Framework"
        assert len(rows) == 6
