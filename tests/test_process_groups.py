"""Process groups: sub-communicators over rank subsets (MPI semantics)."""

import numpy as np
import pytest

from repro.core import BackendError, MCRCommunicator
from repro.sim import DeadlockError, Simulator


class TestGroupBasics:
    def test_group_rank_and_size(self):
        def main(ctx):
            if ctx.rank in (1, 3):
                comm = MCRCommunicator(ctx, ["nccl"], ranks=[1, 3], comm_id="odd")
                info = (comm.rank, comm.world_size, comm.get_rank(), comm.get_size())
                comm.finalize()
                return info
            return None

        results = Simulator(4).run(main).rank_results
        assert results[1] == (0, 2, 0, 2)
        assert results[3] == (1, 2, 1, 2)

    def test_collective_within_group_only(self):
        def main(ctx):
            group = [0, 1] if ctx.rank < 2 else [2, 3]
            comm = MCRCommunicator(
                ctx, ["nccl"], ranks=group, comm_id=f"g{group[0]}"
            )
            x = ctx.full(4, float(ctx.rank + 1))
            comm.all_reduce("nccl", x)
            comm.synchronize()
            comm.finalize()
            return float(x.data[0])

        results = Simulator(4).run(main).rank_results
        assert results[:2] == [3.0, 3.0]  # 1 + 2
        assert results[2:] == [7.0, 7.0]  # 3 + 4

    def test_group_local_root(self):
        def main(ctx):
            if ctx.rank == 0:
                return None
            comm = MCRCommunicator(ctx, ["nccl"], ranks=[1, 2, 3], comm_id="tail")
            x = ctx.full(2, float(ctx.rank))
            comm.bcast("nccl", x, root=1)  # group rank 1 == global rank 2
            comm.synchronize()
            comm.finalize()
            return float(x.data[0])

        results = Simulator(4).run(main).rank_results
        assert results[1:] == [2.0, 2.0, 2.0]

    def test_group_local_p2p_peers(self):
        def main(ctx):
            if ctx.rank == 0:
                return None
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"], ranks=[1, 2], comm_id="pair")
            if comm.rank == 0:  # global rank 1
                comm.send("mvapich2-gdr", ctx.full(1, 42.0), dst=1)
                comm.finalize()
                return None
            buf = ctx.zeros(1)
            comm.recv("mvapich2-gdr", buf, src=0)
            comm.finalize()
            return float(buf.data[0])

        results = Simulator(3).run(main).rank_results
        assert results[2] == 42.0

    def test_non_member_rejected(self):
        def main(ctx):
            MCRCommunicator(ctx, ["nccl"], ranks=[1], comm_id="x")

        with pytest.raises(BackendError, match="does not belong"):
            Simulator(2).run(main)

    def test_out_of_range_rank_rejected(self):
        def main(ctx):
            MCRCommunicator(ctx, ["nccl"], ranks=[0, 9], comm_id="x")

        with pytest.raises(BackendError, match="out of range"):
            Simulator(2).run(main)

    def test_duplicate_ranks_rejected(self):
        def main(ctx):
            MCRCommunicator(ctx, ["nccl"], ranks=[0, 0, 1], comm_id="x")

        with pytest.raises(BackendError, match="duplicate ranks"):
            Simulator(2).run(main)


class TestGroupIsolation:
    def test_same_comm_id_different_groups_do_not_collide(self):
        """Two disjoint groups using the same comm_id must not match."""

        def main(ctx):
            group = [0, 1] if ctx.rank < 2 else [2, 3]
            comm = MCRCommunicator(ctx, ["nccl"], ranks=group, comm_id="shared")
            x = ctx.full(1, float(ctx.rank))
            comm.all_reduce("nccl", x)
            comm.synchronize()
            comm.finalize()
            return float(x.data[0])

        results = Simulator(4).run(main).rank_results
        assert results == [1.0, 1.0, 5.0, 5.0]

    def test_world_and_subgroup_coexist(self):
        def main(ctx):
            world = MCRCommunicator(ctx, ["nccl"], comm_id="w")
            pair = MCRCommunicator(
                ctx, ["nccl"], ranks=[(ctx.rank // 2) * 2, (ctx.rank // 2) * 2 + 1],
                comm_id=f"pair{ctx.rank // 2}",
            )
            a = ctx.full(1, 1.0)
            b = ctx.full(1, 1.0)
            world.all_reduce("nccl", a)
            pair.all_reduce("nccl", b)
            world.synchronize()
            pair.synchronize()
            out = (float(a.data[0]), float(b.data[0]))
            world.finalize()
            pair.finalize()
            return out

        results = Simulator(4).run(main).rank_results
        assert all(r == (4.0, 2.0) for r in results)

    def test_partial_group_participation_deadlocks(self):
        """A group collective missing one member hangs — and is caught."""

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"], ranks=[0, 1], comm_id="g")
            if ctx.rank == 0:
                comm.all_reduce("nccl", ctx.zeros(2))
            comm.finalize()

        with pytest.raises(DeadlockError):
            Simulator(2).run(main)


class TestGroupTopologyAwareness:
    def test_intra_node_group_faster_than_cross_node(self):
        from repro.cluster import lassen

        def run(ranks, comm_id):
            def main(ctx):
                if ctx.rank not in ranks:
                    return None
                comm = MCRCommunicator(ctx, ["nccl"], ranks=ranks, comm_id=comm_id)
                t0 = ctx.now
                h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
                h.synchronize()
                elapsed = ctx.now - t0
                comm.finalize()
                return elapsed

            results = Simulator(8, system=lassen()).run(main).rank_results
            return max(r for r in results if r is not None)

        intra = run([0, 1], "intra")  # same Lassen node (4 GPUs/node)
        inter = run([0, 4], "inter")  # different nodes
        assert intra < inter

    def test_world_and_subgroup_over_one_rank_set_cost_the_same(self):
        """Ranks {0..5} on lassen span a full node and half of another,
        whether they are a 6-rank world or a group of an 8-rank job: one
        comm-path model prices both."""
        from repro.cluster import lassen

        def run(world):
            def main(ctx):
                if ctx.rank >= 6:
                    return None
                comm = MCRCommunicator(ctx, ["nccl"], ranks=range(6), comm_id="six")
                t0 = ctx.now
                h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
                h.synchronize()  # 4 MiB of float32
                elapsed = ctx.now - t0
                comm.finalize()
                return elapsed

            return [r for r in Simulator(world, system=lassen()).run(main).rank_results if r]

        whole, sub = run(6), run(8)
        assert whole == sub
        # pairs that share a node are 14/30, not the 18/30 of a world
        # whose last node is full (that world took 608.7 µs)
        assert whole[0] == pytest.approx(760.67, abs=0.01)


class TestMixedPpnGroups:
    """End-to-end collectives on a group whose members are spread
    unevenly across nodes ({0,1,2,4} on lassen: 3 + 1), with and
    without the dispatch plan cache."""

    RANKS = [0, 1, 2, 4]

    def _run(self, plan_cache=True):
        from repro.cluster import lassen
        from repro.core import MCRConfig

        ranks = self.RANKS

        def main(ctx):
            if ctx.rank not in ranks:
                return None
            comm = MCRCommunicator(
                ctx,
                ["nccl", "mvapich2-gdr"],
                ranks=ranks,
                comm_id="mixed-ppn",
                config=MCRConfig(plan_cache=plan_cache),
            )
            g, p = comm.rank, comm.world_size
            red = ctx.full(4, float(g + 1))
            comm.all_reduce("nccl", red)
            bc = ctx.full(2, float(g))
            comm.bcast("mvapich2-gdr", bc, root=3)
            gat = ctx.zeros(p)
            comm.all_gather("nccl", gat, ctx.full(1, float(g)))
            a2a = ctx.zeros(p)
            comm.all_to_all_single(
                "mvapich2-gdr", a2a, ctx.tensor([10.0 * g + j for j in range(p)])
            )
            comm.synchronize()
            now = ctx.now
            comm.finalize()
            return (now, red.data.tobytes(), bc.data.tobytes(),
                    gat.data.copy(), a2a.data.copy())

        from repro.sim import Simulator

        return Simulator(8, system=lassen()).run(main).rank_results

    def test_collectives_correct_on_uneven_placement(self):
        results = self._run()
        for g, rank in enumerate(self.RANKS):
            _, red, bc, gat, a2a = results[rank]
            assert np.frombuffer(red, dtype=np.float32)[0] == 1 + 2 + 3 + 4
            assert np.frombuffer(bc, dtype=np.float32)[0] == 3.0
            assert np.array_equal(gat, np.arange(4.0))
            assert np.array_equal(a2a, [10.0 * i + g for i in range(4)])

    def test_plan_cache_byte_identity_on_groups(self):
        cached = self._run(plan_cache=True)
        uncached = self._run(plan_cache=False)
        for a, b in zip(cached, uncached):
            if a is None:
                assert b is None
                continue
            assert a[0] == b[0]  # same simulated completion time
            assert a[1] == b[1] and a[2] == b[2]
            assert np.array_equal(a[3], b[3]) and np.array_equal(a[4], b[4])
