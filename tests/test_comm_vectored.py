"""Vectored collectives (gatherv / scatterv / all_gatherv / all_to_allv).

Table I's differentiator: MCR-DL supports them on *every* backend —
including NCCL, which has no native vectored collectives.
"""

import numpy as np
import pytest

from repro.core import MCRCommunicator, TuningTable, ValidationError
from repro.sim import Simulator
from repro.sim.errors import DeadlockError

BACKENDS = ["nccl", "mvapich2-gdr"]


def spmd(world_size, fn):
    def main(ctx):
        comm = MCRCommunicator(ctx, BACKENDS)
        out = fn(ctx, comm)
        comm.finalize()
        return out

    return Simulator(world_size).run(main).rank_results


@pytest.mark.parametrize("backend", BACKENDS)
class TestGatherv:
    def test_uneven_contributions(self, backend):
        rcounts = [1, 2, 3]

        def fn(ctx, comm):
            x = ctx.full(rcounts[ctx.rank], float(ctx.rank + 1))
            out = ctx.zeros(6) if ctx.rank == 0 else None
            comm.gatherv(backend, x, out, rcounts=rcounts, root=0)
            comm.synchronize()
            return out.data.copy() if out is not None else None

        results = spmd(3, fn)
        assert np.array_equal(results[0], [1, 2, 2, 3, 3, 3])

    def test_explicit_displacements(self, backend):
        rcounts, displs = [1, 1], [3, 0]

        def fn(ctx, comm):
            x = ctx.full(1, float(ctx.rank + 5))
            out = ctx.zeros(4).fill_(-1.0) if ctx.rank == 0 else None
            comm.gatherv(backend, x, out, rcounts=rcounts, displs=displs, root=0)
            comm.synchronize()
            return out.data.copy() if out is not None else None

        results = spmd(2, fn)
        assert np.array_equal(results[0], [6, -1, -1, 5])


@pytest.mark.parametrize("backend", BACKENDS)
class TestScatterv:
    def test_uneven_chunks(self, backend):
        scounts = [2, 1]

        def fn(ctx, comm):
            out = ctx.zeros(scounts[ctx.rank])
            src = ctx.arange(3) if ctx.rank == 0 else None
            comm.scatterv(backend, out, src, scounts=scounts, root=0)
            comm.synchronize()
            return out.data.copy()

        results = spmd(2, fn)
        assert np.array_equal(results[0], [0, 1])
        assert np.array_equal(results[1], [2])


@pytest.mark.parametrize("backend", BACKENDS)
class TestAllGatherv:
    def test_every_rank_gets_everything(self, backend):
        rcounts = [2, 1, 3]

        def fn(ctx, comm):
            x = ctx.full(rcounts[ctx.rank], float(ctx.rank))
            out = ctx.zeros(6)
            comm.all_gatherv(backend, out, x, rcounts=rcounts)
            comm.synchronize()
            return out.data.copy()

        for data in spmd(3, fn):
            assert np.array_equal(data, [0, 0, 1, 2, 2, 2])


@pytest.mark.parametrize("backend", BACKENDS)
class TestAllToAllv:
    def test_asymmetric_exchange(self, backend):
        # 2 ranks: rank 0 sends 1 elem to itself, 2 to rank 1;
        # rank 1 sends 2 to rank 0, 1 to itself.
        scounts = {0: [1, 2], 1: [2, 1]}
        rcounts = {0: [1, 2], 1: [2, 1]}

        def fn(ctx, comm):
            x = ctx.tensor([10 * ctx.rank + k for k in range(3)])
            out = ctx.zeros(3)
            comm.all_to_allv(
                backend, out, x,
                scounts=scounts[ctx.rank], rcounts=rcounts[ctx.rank],
            )
            comm.synchronize()
            return out.data.copy()

        results = spmd(2, fn)
        assert np.array_equal(results[0], [0, 10, 11])
        assert np.array_equal(results[1], [1, 2, 12])

    def test_zero_counts_allowed(self, backend):
        def fn(ctx, comm):
            x = ctx.arange(2)
            out = ctx.zeros(2).fill_(-1.0)
            counts = [2, 0] if ctx.rank == 0 else [0, 2]
            rcv = [2, 0] if ctx.rank == 0 else [0, 2]
            comm.all_to_allv(backend, out, x, scounts=counts, rcounts=rcv)
            comm.synchronize()
            return out.data.copy()

        results = spmd(2, fn)
        assert np.array_equal(results[0], [0, 1])
        assert np.array_equal(results[1], [0, 1])


@pytest.mark.xfail(
    raises=DeadlockError,
    strict=True,
    reason="auto all_to_allv keys the table on each rank's own send total: "
    "ranks whose totals fall in different buckets resolve different "
    "backends and never meet (ROADMAP item 3)",
)
def test_auto_alltoallv_with_send_totals_in_different_buckets_completes():
    table = TuningTable(system="thetagpu")
    table.add("alltoall", 2, 1 << 10, "nccl")
    table.add("alltoall", 2, 1 << 20, "mvapich2-gdr")
    rcounts = [16, 200000]

    def main(ctx):
        comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
        scounts = [16, 16] if ctx.rank == 0 else [200000, 200000]
        out = ctx.zeros(sum(rcounts))
        comm.all_to_allv(
            "auto", out, ctx.zeros(sum(scounts)), scounts=scounts, rcounts=rcounts
        )
        comm.synchronize()
        comm.finalize()
        return True

    assert Simulator(2).run(main).rank_results == [True, True]


class TestVectoredValidation:
    def _run(self, fn, world=2):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            fn(ctx, comm)
            comm.finalize()

        Simulator(world).run(main)

    def test_missing_counts_rejected(self):
        with pytest.raises(ValidationError, match="requires counts"):
            self._run(lambda ctx, comm: comm.gatherv("nccl", ctx.zeros(2), ctx.zeros(4)))

    def test_wrong_counts_length_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            self._run(
                lambda ctx, comm: comm.all_gatherv(
                    "nccl", ctx.zeros(4), ctx.zeros(2), rcounts=[1, 1, 1]
                )
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            self._run(
                lambda ctx, comm: comm.all_gatherv(
                    "nccl", ctx.zeros(4), ctx.zeros(2), rcounts=[-1, 2]
                )
            )

    def test_input_smaller_than_count_rejected(self):
        with pytest.raises(ValidationError, match="smaller"):
            self._run(
                lambda ctx, comm: comm.gatherv(
                    "nccl", ctx.zeros(1),
                    ctx.zeros(8) if ctx.rank == 0 else None,
                    rcounts=[4, 4], root=0,
                )
            )


@pytest.mark.parametrize("virtual", [False, True], ids=["real", "virtual"])
class TestVectoredDisplacements:
    """Displacements are checked at the call, against the buffer they
    index where the rank holds it, for real and virtual tensors alike."""

    def _run(self, virtual, fn, world=2):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            make = ctx.virtual_tensor if virtual else ctx.zeros
            fn(ctx, comm, make)
            comm.finalize()

        Simulator(world).run(main)

    @pytest.mark.parametrize("displs", [[-8, 4], [-4, 4]])
    def test_gatherv_negative_displacement(self, virtual, displs):
        with pytest.raises(ValidationError, match="negative displacement"):
            self._run(virtual, lambda ctx, comm, make: comm.gatherv(
                "nccl", make(4), make(8) if ctx.rank == 0 else None,
                rcounts=[4, 4], displs=displs, root=0,
            ))

    def test_gatherv_past_root_output(self, virtual):
        with pytest.raises(ValidationError, match="past the root output end"):
            self._run(virtual, lambda ctx, comm, make: comm.gatherv(
                "nccl", make(4), make(8) if ctx.rank == 0 else None,
                rcounts=[4, 4], displs=[4, 8], root=0,
            ))

    def test_scatterv_past_root_input(self, virtual):
        with pytest.raises(ValidationError, match="past the root input end"):
            self._run(virtual, lambda ctx, comm, make: comm.scatterv(
                "mvapich2-gdr", make(4), make(8) if ctx.rank == 1 else None,
                scounts=[4, 4], displs=[0, 5], root=1,
            ))

    def test_all_gatherv_past_output(self, virtual):
        with pytest.raises(ValidationError, match="past the output end"):
            self._run(virtual, lambda ctx, comm, make: comm.all_gatherv(
                "nccl", make(6), make(3), rcounts=[3, 3], displs=[0, 4],
            ))

    def test_all_to_allv_negative_send_displacement(self, virtual):
        with pytest.raises(ValidationError, match="negative displacement"):
            self._run(virtual, lambda ctx, comm, make: comm.all_to_allv(
                "nccl", make(4), make(4),
                scounts=[2, 2], sdispls=[-2, 2], rcounts=[2, 2],
            ))

    def test_all_to_allv_past_output(self, virtual):
        with pytest.raises(ValidationError, match="past the output end"):
            self._run(virtual, lambda ctx, comm, make: comm.all_to_allv(
                "mvapich2-gdr", make(4), make(4),
                scounts=[2, 2], rcounts=[2, 2], rdispls=[0, 3],
            ))

    def test_in_bounds_displacements_still_run(self, virtual):
        # the last chunk may end exactly at the buffer's end
        self._run(virtual, lambda ctx, comm, make: comm.gatherv(
            "nccl", make(4), make(8) if ctx.rank == 0 else None,
            rcounts=[4, 4], displs=[4, 0], root=0,
        ))
