"""The module-level mcr_dl API (paper Listing 1) bound per rank."""

import numpy as np
import pytest

from repro import mcr_dl
from repro.core import MCRError, ReduceOp
from repro.sim import Simulator


class TestLifecycle:
    def test_init_get_finalize(self):
        def main(ctx):
            comm = mcr_dl.init(["nccl", "mvapich2-gdr"])
            info = (
                mcr_dl.get_backends(),
                mcr_dl.get_size(),
                mcr_dl.get_rank(),
                mcr_dl.get_size("nccl"),
            )
            mcr_dl.finalize()
            return info

        res = Simulator(3).run(main)
        backends, size, rank, nccl_size = res.rank_results[1]
        assert backends == ["nccl", "mvapich2-gdr"]
        assert size == 3 and nccl_size == 3
        assert rank == 1

    def test_single_backend_string(self):
        def main(ctx):
            mcr_dl.init("nccl")
            names = mcr_dl.get_backends()
            mcr_dl.finalize()
            return names

        assert Simulator(1).run(main).rank_results[0] == ["nccl"]

    def test_double_init_rejected(self):
        def main(ctx):
            mcr_dl.init("nccl")
            mcr_dl.init("nccl")

        with pytest.raises(MCRError, match="init"):
            Simulator(1).run(main)

    def test_use_before_init_rejected(self):
        def main(ctx):
            mcr_dl.get_backends()

        with pytest.raises(MCRError, match="init"):
            Simulator(1).run(main)

    def test_use_outside_simulator_rejected(self):
        with pytest.raises(MCRError, match="rank context"):
            mcr_dl.init("nccl")

    def test_available_lists_registered_backends(self):
        names = mcr_dl.available()
        for expected in ("nccl", "mvapich2-gdr", "openmpi", "msccl", "gloo"):
            assert expected in names

    def test_reinit_after_finalize(self):
        def main(ctx):
            mcr_dl.init("nccl")
            mcr_dl.finalize()
            mcr_dl.init("mvapich2-gdr")
            names = mcr_dl.get_backends()
            mcr_dl.finalize()
            return names

        assert Simulator(1).run(main).rank_results[0] == ["mvapich2-gdr"]


class TestListing3And4:
    def test_listing3_pattern(self):
        """h = all_reduce(async) ; independent compute ; h.wait()."""

        def main(ctx):
            mcr_dl.init("nccl")
            x = ctx.rand(1024)
            h = mcr_dl.all_reduce("nccl", x, async_op=True)
            ctx.launch(100.0, label="y+y")
            h.wait("nccl")
            mcr_dl.finalize()

        Simulator(4).run(main)

    def test_wait_accepts_any_spelling_of_its_backend(self):
        """``h.wait(name)`` compares canonical names: an alias or another
        case names the handle's backend; another backend, ``"auto"`` or a
        ``hier:*`` spelling does not."""

        def main(ctx):
            mcr_dl.init(["nccl", "mvapich2-gdr"])
            x = ctx.rand(1024)
            mcr_dl.all_reduce("mvapich2-gdr", x, async_op=True).wait("mvapich2")
            mcr_dl.all_reduce("nccl", x, async_op=True).wait("NCCL")
            rejected = []
            for name in ("mvapich2-gdr", "auto", "hier:nccl+mvapich2-gdr"):
                handle = mcr_dl.all_reduce("nccl", x, async_op=True)
                with pytest.raises(MCRError, match="handle belongs to backend"):
                    handle.wait(name)
                rejected.append(name)
            mcr_dl.finalize()
            return rejected

        assert Simulator(2).run(main).rank_results == [
            ["mvapich2-gdr", "auto", "hier:nccl+mvapich2-gdr"]
        ] * 2

    def test_listing4_mixed_backends(self):
        def main(ctx):
            mcr_dl.init(["nccl", "mvapich2-gdr"])
            x, y = ctx.rand(1024), ctx.rand(1024)
            h1 = mcr_dl.all_reduce("nccl", x, async_op=True)
            h2 = mcr_dl.all_reduce("mvapich2-gdr", y, async_op=True)
            ctx.launch(50.0, label="z+z")
            h1.wait()
            h2.wait()
            mcr_dl.finalize()

        Simulator(4).run(main)


class TestFullSurface:
    """Every Listing-1 operation callable through the functional API."""

    def test_collectives(self):
        def main(ctx):
            mcr_dl.init(["nccl", "mvapich2-gdr"])
            p = ctx.world_size
            x = ctx.full(p * 2, float(ctx.rank))
            out = ctx.zeros(p * 2)
            mcr_dl.all_reduce("nccl", x)
            mcr_dl.all_reduce("nccl", x, op=ReduceOp.MAX)
            mcr_dl.reduce("mvapich2-gdr", x, root=0)
            mcr_dl.bcast("nccl", x, root=0)
            mcr_dl.broadcast("nccl", x, root=0)
            mcr_dl.all_gather("nccl", ctx.zeros(p * p * 2), x)
            mcr_dl.all_gather_base("nccl", ctx.zeros(p * p * 2), x)
            mcr_dl.reduce_scatter("mvapich2-gdr", ctx.zeros(2), x)
            mcr_dl.all_to_all_single("mvapich2-gdr", out, x)
            mcr_dl.all_to_all(
                "nccl",
                [ctx.zeros(2) for _ in range(p)],
                [ctx.zeros(2) for _ in range(p)],
            )
            mcr_dl.gather("mvapich2-gdr", x, ctx.zeros(p * p * 2) if ctx.rank == 0 else None)
            mcr_dl.scatter("mvapich2-gdr", ctx.zeros(2), ctx.zeros(p * 2) if ctx.rank == 0 else None)
            mcr_dl.gatherv("nccl", x, ctx.zeros(p * 2 * p) if ctx.rank == 0 else None, rcounts=[2] * p)
            mcr_dl.scatterv("nccl", ctx.zeros(2), ctx.arange(2 * p) if ctx.rank == 0 else None, scounts=[2] * p)
            mcr_dl.all_gatherv("mvapich2-gdr", ctx.zeros(2 * p), ctx.zeros(2), rcounts=[2] * p)
            mcr_dl.all_to_allv("mvapich2-gdr", out, x, scounts=[2] * p, rcounts=[2] * p)
            mcr_dl.barrier()
            mcr_dl.synchronize()
            mcr_dl.finalize()

        Simulator(3).run(main)

    def test_p2p(self):
        def main(ctx):
            mcr_dl.init("mvapich2-gdr")
            if ctx.rank == 0:
                mcr_dl.send("mvapich2-gdr", ctx.arange(4), dst=1)
                h = mcr_dl.isend("mvapich2-gdr", ctx.arange(4), dst=1)
                h.synchronize()
            else:
                buf = ctx.zeros(4)
                mcr_dl.recv("mvapich2-gdr", buf, src=0)
                h = mcr_dl.irecv("mvapich2-gdr", buf, src=0)
                h.synchronize()
                assert np.array_equal(buf.data, np.arange(4))
            mcr_dl.finalize()

        Simulator(2).run(main)

    def test_set_tuning_table(self):
        from repro.core import TuningTable

        def main(ctx):
            mcr_dl.init(["nccl", "mvapich2-gdr"])
            table = TuningTable()
            table.add("allreduce", 2, 256, "mvapich2-gdr")
            mcr_dl.set_tuning_table(table)
            mcr_dl.all_reduce("auto", ctx.zeros(64))
            mcr_dl.finalize()

        Simulator(2).run(main)

    def test_paper_api_names_exist(self):
        """The exact function names of Listing 1."""
        for name in [
            "get_backends", "init", "finalize", "synchronize", "get_size",
            "get_rank", "send", "recv", "all_to_all_single", "all_to_all",
            "all_reduce", "all_gather", "gather", "scatter", "reduce",
            "reduce_scatter", "bcast", "gatherv", "scatterv", "all_to_allv",
            "all_gatherv",
        ]:
            assert callable(getattr(mcr_dl, name)), name
