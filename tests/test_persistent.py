"""Persistent collectives (ext.persistent, paper §V-E future work)."""

import numpy as np
import pytest

from repro.core import MCRCommunicator, MCRError
from repro.ext.persistent import PersistentCollective
from repro.sim import Simulator


class TestSemantics:
    def test_repeated_starts_correct_data(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.full(8, 1.0)
            op = PersistentCollective(comm, "all_reduce", "nccl", x)
            values = []
            for _ in range(3):
                x.fill_(1.0)
                h = op.start()
                h.synchronize()
                values.append(float(x.data[0]))
            comm.finalize()
            return values

        results = Simulator(2).run(main).rank_results
        assert results[0] == [2.0, 2.0, 2.0]

    def test_start_counter(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            op = PersistentCollective(comm, "all_reduce", "nccl", ctx.zeros(4))
            for _ in range(5):
                op.start().synchronize()
            comm.finalize()
            return op.starts

        assert Simulator(2).run(main).rank_results[0] == 5

    def test_vectored_persistent(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            p = ctx.world_size
            out = ctx.zeros(p)
            inp = ctx.full(1, float(ctx.rank))
            op = PersistentCollective(
                comm, "all_gatherv", "mvapich2-gdr", out, inp, rcounts=[1] * p
            )
            op.start().synchronize()
            comm.finalize()
            return out.data.copy()

        results = Simulator(3).run(main).rank_results
        assert np.array_equal(results[0], [0, 1, 2])

    def test_unknown_op_rejected(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            PersistentCollective(comm, "barrier", "nccl")

        with pytest.raises(MCRError, match="persistent"):
            Simulator(1).run(main)

    def test_bad_backend_fails_at_init(self):
        from repro.core import BackendError

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            PersistentCollective(comm, "all_reduce", "gloo", ctx.zeros(4))

        with pytest.raises(BackendError):
            Simulator(1).run(main)

    def test_async_kwarg_rejected(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            PersistentCollective(comm, "all_reduce", "nccl", ctx.zeros(4), async_op=True)

        with pytest.raises(MCRError, match="always started async"):
            Simulator(1).run(main)


class TestPlanPinning:
    def test_plan_compiled_at_init(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            op = PersistentCollective(comm, "all_reduce", "nccl", ctx.zeros(4))
            stats = comm.plan_stats
            comm.finalize()
            return stats["plans"], op.plan.backend.name

        plans, resolved = Simulator(2).run(main).rank_results[0]
        assert plans == 1
        assert resolved == "nccl"

    def test_pinned_plan_recompiles_after_table_swap(self):
        from repro.core.tuning import TuningTable

        first = TuningTable()
        first.add("allreduce", 2, 4096, "nccl")
        second = TuningTable()
        second.add("allreduce", 2, 4096, "mvapich2-gdr")

        def main(ctx):
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], tuning_table=first
            )
            op = PersistentCollective(comm, "all_reduce", "auto", ctx.zeros(1024))
            before = op.plan.backend.name
            op.start().synchronize()
            comm.tuning_table = second
            after = op.plan.backend.name
            op.start().synchronize()
            seqs = dict(comm._group.seq)
            comm.finalize()
            return before, after, seqs

        before, after, seqs = Simulator(2).run(main).rank_results[0]
        assert before == "nccl"
        assert after == "mvapich2-gdr"
        assert seqs == {"nccl": 1, "mvapich2-gdr": 1}

    def test_plan_is_the_one_the_next_start_posts_with(self):
        """``op.plan`` and ``start()`` share one key and one lookup: the
        pinned plan is the posted plan, before and after an invalidation."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            op = PersistentCollective(comm, "all_reduce", "nccl", ctx.zeros(4))
            plan_of, posted = comm._plan, []

            def spy(*args, **kwargs):
                plan = plan_of(*args, **kwargs)
                if kwargs.get("count", True):  # a post, not a pin
                    posted.append(plan)
                return plan

            comm._plan = spy
            pinned = [op.plan]
            op.start().synchronize()
            comm.invalidate_plans("test")
            pinned.append(op.plan)
            op.start().synchronize()
            del comm._plan
            stats = comm.plan_stats
            comm.finalize()
            return [p is q for p, q in zip(pinned, posted)], pinned, stats

        same, pinned, stats = Simulator(2).run(main).rank_results[0]
        assert same == [True, True]
        assert pinned[0] is not pinned[1]  # the invalidation recompiled
        # pins compile without counting; both starts are hits
        assert (stats["hits"], stats["misses"], stats["invalidations"]) == (2, 0, 1)

    def test_failed_start_does_not_discount_subsequent_ops(self):
        """A start() that raises must not leak its dispatch discount
        into later non-persistent operations (the old global
        ``_persistent_scale`` did exactly that when start raised)."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.zeros(4)
            op = PersistentCollective(comm, "all_reduce", "nccl", x)
            op.start().synchronize()
            t0 = ctx.now
            comm.all_reduce("nccl", x, async_op=True).synchronize()
            cost_before = ctx.now - t0
            # force the next start to raise mid-dispatch
            comm._finalized = True
            try:
                op.start()
            except MCRError:
                pass
            finally:
                comm._finalized = False
            t1 = ctx.now
            comm.all_reduce("nccl", x, async_op=True).synchronize()
            cost_after = ctx.now - t1
            t2 = ctx.now
            op.start().synchronize()
            persistent_cost = ctx.now - t2
            comm.finalize()
            return cost_before, cost_after, persistent_cost

        before, after, persistent = Simulator(2).run(main).rank_results[0]
        # full price both times (tight tolerance: clock-subtraction float
        # noise only — a leaked 0.25x discount would shift this by ~1us)
        assert after == pytest.approx(before, rel=1e-9)
        assert persistent < before


class TestHierRouted:
    """A start runs the public call's hook chain: one adaptive op, then
    hierarchical routing.  Capture posts nothing, on the phase
    communicators included."""

    NUMEL = 1 << 14

    @pytest.mark.parametrize("backend", ["auto", "hier:nccl+mvapich2-gdr"])
    def test_start_routes_through_the_composite(self, backend):
        from repro.backends.hierarchical import parse_hier
        from repro.cluster import lassen
        from repro.core import MCRConfig, TuningTable
        from repro.core.config import AdaptiveConfig

        numel, world = self.NUMEL, 16
        table = TuningTable(system="lassen")
        table.add("allreduce", world, numel * 4, "hier:nccl+mvapich2-gdr")

        def mine(rank, step):
            return np.arange(numel, dtype=np.float32) + rank + 100 * step

        def main(ctx):
            config = MCRConfig()
            config.adaptive = AdaptiveConfig(enabled=True)
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], config=config, tuning_table=table
            )
            x = ctx.zeros(numel)
            op = PersistentCollective(comm, "all_reduce", backend, x)
            # the pin compiles the phase list but splits no phase group
            at_init = (comm.retuner.snapshot()["ops"], len(comm._phase_groups))
            sums = []
            for step in range(2):
                x.data[:] = mine(ctx.rank, step)
                op.start().synchronize()
                sums.append(x.data.copy())
            out = at_init, comm.retuner.snapshot()["ops"], op.plan, sums
            comm.finalize()
            return out

        for at_init, ops, plan, sums in Simulator(world, system=lassen()).run(main).rank_results:
            assert at_init == (0, 0)
            assert ops == 2  # one adaptive op per start
            # the pinned plan routes to the composite and carries its
            # sharded three-phase list
            assert plan.hier == parse_hier("hier:nccl+mvapich2-gdr")
            assert plan.backend is None
            assert [p.group for p in plan.phases] == ["intra", "shard", "intra"]
            for step, got in enumerate(sums):
                want = np.sum([mine(r, step) for r in range(world)], axis=0)
                assert np.array_equal(got, want)


class TestPerformance:
    def test_persistent_cheaper_than_regular(self):
        n_ops = 32

        def run(persistent: bool):
            def main(ctx):
                comm = MCRCommunicator(ctx, ["nccl"])
                x = ctx.zeros(64)
                if persistent:
                    op = PersistentCollective(comm, "all_reduce", "nccl", x)
                    handles = [op.start() for _ in range(n_ops)]
                else:
                    handles = [
                        comm.all_reduce("nccl", x, async_op=True) for _ in range(n_ops)
                    ]
                for h in handles:
                    h.synchronize()
                comm.finalize()
                return ctx.now

            return max(Simulator(2).run(main).rank_results)

        assert run(True) < run(False)

    def test_discount_does_not_leak(self):
        """After start(), regular ops pay the full dispatch cost again."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            op = PersistentCollective(comm, "all_reduce", "nccl", ctx.zeros(4))
            op.start().synchronize()
            t0 = ctx.now
            comm.all_reduce("nccl", ctx.zeros(4), async_op=True).synchronize()
            full_cost = ctx.now - t0
            t1 = ctx.now
            op.start().synchronize()
            persistent_cost = ctx.now - t1
            comm.finalize()
            return full_cost, persistent_cost

        full, persistent = Simulator(2).run(main).rank_results[0]
        assert persistent < full
