"""Hierarchical mixed-backend collectives (``hier:<intra>+<inter>``).

The composite contract: a ``hier:`` target decomposes a collective into
intra-node and inter-node phases over auto-derived process groups, the
data result is byte-identical to a flat backend on every group shape
(full world, node-spanning subsets, interleaved and uneven placements),
the analytic cost model exposes a Fig. 2-style crossover the tuner can
exploit through ``"auto"``, and the surrounding machinery — plan cache,
fault failover, phase-tagged observability — keeps working per phase.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends.hierarchical import (
    HIER_FAMILIES,
    HierSpec,
    derive_layout,
    hier_collective_cost_us,
    hier_cost_phases,
    hier_phases,
    is_hier_name,
    parse_hier,
)
from repro.backends.ops import OpFamily
from repro.cluster import generic_cluster, lassen
from repro.core import BackendError, MCRCommunicator, MCRConfig, ReduceOp, Tuner
from repro.core.tuning import TuningTable
from repro.sim import Simulator
from repro.sim.faults import BackendFault, FaultSpec

REPO = Path(__file__).resolve().parent.parent
BACKENDS = ["nccl", "mvapich2-gdr"]
HIER = "hier:nccl+mvapich2-gdr"


def spmd(world, fn, system=None, ranks=None, config=None, faults=None):
    system = system or lassen()

    def main(ctx):
        if ranks is not None and ctx.rank not in ranks:
            return None
        comm = MCRCommunicator(
            ctx,
            list(BACKENDS),
            ranks=ranks,
            comm_id="hier-test" if ranks is not None else "world",
            config=config,
        )
        out = fn(ctx, comm)
        comm.finalize()
        return out

    return Simulator(world, system=system, faults=faults).run(main).rank_results


class TestParsing:
    def test_roundtrip_and_aliases(self):
        spec = parse_hier("hier:nccl+mvapich")
        assert spec == HierSpec("hier:nccl+mvapich2-gdr", "nccl", "mvapich2-gdr")
        assert parse_hier("HIER:NCCL+MPI").inter == "mvapich2-gdr"

    def test_same_backend_both_levels_allowed(self):
        spec = parse_hier("hier:nccl+nccl")
        assert spec.intra == spec.inter == "nccl"

    @pytest.mark.parametrize(
        "bad",
        ["hier:", "hier:nccl", "hier:nccl+", "hier:+nccl",
         "hier:nccl+mvapich+ucc", "hier:nccl+bogus"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(BackendError):
            parse_hier(bad)

    def test_is_hier_name(self):
        assert is_hier_name("hier:nccl+ucc")
        assert is_hier_name("HIER:x+y")
        assert not is_hier_name("nccl")
        assert not is_hier_name("auto")


class TestLayout:
    def test_dense_world(self):
        layout = derive_layout(lassen(), range(16))
        assert layout.uniform and layout.ppn == 4
        assert [len(m) for m in layout.node_members] == [4, 4, 4, 4]

    def test_uneven_group(self):
        layout = derive_layout(lassen(), [0, 1, 2, 4])
        assert not layout.uniform
        assert layout.node_members == ((0, 1, 2), (4,))

    def test_interleaved_group_keeps_first_appearance_order(self):
        layout = derive_layout(lassen(), [0, 4, 1, 5])
        assert layout.uniform and layout.ppn == 2
        assert layout.node_members == ((0, 1), (4, 5))


class TestCorrectness:
    """Data identity with a flat backend on every group shape."""

    def test_all_reduce_sum_world(self):
        def fn(ctx, comm):
            x = ctx.full(64, float(ctx.rank + 1))
            comm.all_reduce(HIER, x)
            comm.synchronize()
            return x.data.copy()

        for data in spmd(16, fn):
            assert np.array_equal(data, np.full(64, 136.0))

    @pytest.mark.parametrize("op,expect", [(ReduceOp.MAX, 16.0), (ReduceOp.AVG, 8.5)])
    def test_all_reduce_other_ops(self, op, expect):
        def fn(ctx, comm):
            x = ctx.full(8, float(ctx.rank + 1))
            comm.all_reduce(HIER, x, op=op)
            comm.synchronize()
            return float(x.data[0])

        assert spmd(16, fn) == [expect] * 16

    def test_all_reduce_indivisible_numel_leader_path(self):
        # numel=7 is not divisible by ppn=4: falls off the sharded path
        def fn(ctx, comm):
            x = ctx.full(7, float(ctx.rank + 1))
            comm.all_reduce(HIER, x)
            comm.synchronize()
            return x.data.copy()

        for data in spmd(16, fn):
            assert np.array_equal(data, np.full(7, 136.0))

    def test_bcast_from_non_leader_root(self):
        def fn(ctx, comm):
            x = ctx.full(16, float(ctx.rank))
            comm.bcast(HIER, x, root=5)  # mid-node root on node 1
            comm.synchronize()
            return float(x.data[0])

        assert spmd(16, fn) == [5.0] * 16

    def test_all_gather_world(self):
        def fn(ctx, comm):
            x = ctx.full(3, float(ctx.rank))
            out = ctx.zeros(3 * comm.world_size)
            comm.all_gather(HIER, out, x)
            comm.synchronize()
            return out.data.copy()

        for data in spmd(16, fn):
            assert np.array_equal(data, np.repeat(np.arange(16.0), 3))

    def test_all_to_all_single_world(self):
        def fn(ctx, comm):
            x = ctx.tensor([100.0 * ctx.rank + j for j in range(comm.world_size)])
            out = ctx.zeros(comm.world_size)
            comm.all_to_all_single(HIER, out, x)
            comm.synchronize()
            return out.data.copy()

        for j, data in enumerate(spmd(16, fn)):
            assert np.array_equal(data, [100.0 * i + j for i in range(16)])

    def test_subgroup_spanning_nodes(self):
        ranks = [0, 1, 4, 5, 8, 9, 12, 13]

        def fn(ctx, comm):
            x = ctx.full(8, float(ctx.rank + 1))
            comm.all_reduce(HIER, x)
            comm.synchronize()
            return float(x.data[0])

        results = spmd(16, fn, ranks=ranks)
        expect = float(sum(r + 1 for r in ranks))
        assert [results[r] for r in ranks] == [expect] * len(ranks)

    def test_interleaved_group_all_ops(self):
        # group rank order != node order: exercises the gather permute
        # and the all-to-all pack/unpack permutations
        ranks = [0, 4, 1, 5]

        def fn(ctx, comm):
            g = comm.rank
            red = ctx.full(4, float(g + 1))
            comm.all_reduce(HIER, red, op=ReduceOp.AVG)
            gat_in = ctx.full(2, float(g))
            gat = ctx.zeros(2 * comm.world_size)
            comm.all_gather(HIER, gat, gat_in)
            a2a_in = ctx.tensor([10.0 * g + j for j in range(comm.world_size)])
            a2a = ctx.zeros(comm.world_size)
            comm.all_to_all_single(HIER, a2a, a2a_in)
            comm.synchronize()
            return (float(red.data[0]), gat.data.copy(), a2a.data.copy())

        results = spmd(16, fn, ranks=ranks)
        for g, rank in enumerate(ranks):
            red, gat, a2a = results[rank]
            assert red == 2.5
            assert np.array_equal(gat, np.repeat(np.arange(4.0), 2))
            assert np.array_equal(a2a, [10.0 * i + g for i in range(4)])

    def test_uneven_group_falls_back_per_phase(self):
        # {0,1,2,4}: 3 ranks on node 0, 1 on node 1 — non-uniform, so
        # allreduce takes the leader scheme (AVG: flat inter fallback),
        # bcast still runs three phases, gather/a2a fall back flat
        ranks = [0, 1, 2, 4]

        def fn(ctx, comm):
            s = ctx.full(4, float(ctx.rank + 1))
            comm.all_reduce(HIER, s)
            a = ctx.full(4, float(ctx.rank + 1))
            comm.all_reduce(HIER, a, op=ReduceOp.AVG)
            b = ctx.full(2, float(ctx.rank))
            comm.bcast(HIER, b, root=3)  # group rank 3 == global 4
            g = ctx.zeros(comm.world_size)
            comm.all_gather(HIER, g, ctx.full(1, float(comm.rank)))
            comm.synchronize()
            return (float(s.data[0]), float(a.data[0]), float(b.data[0]), g.data.copy())

        results = spmd(16, fn, ranks=ranks)
        for rank in ranks:
            s, a, b, g = results[rank]
            assert s == 1 + 2 + 3 + 5
            assert a == (1 + 2 + 3 + 5) / 4
            assert b == 4.0
            assert np.array_equal(g, np.arange(4.0))

    def test_uneven_node_groups_compile_their_own_phase_plans(self):
        """ws 6 on lassen: a node of 4 and a node of 2.  Each node group
        compiles its phase plans once, in its own plan index, shared by its
        ranks and by no other node's."""

        def fn(ctx, comm):
            out = []
            for _ in range(2):
                x = ctx.full(8, float(ctx.rank + 1))
                comm.all_reduce(HIER, x)
                comm.synchronize()
                out.append(x.data.copy())
            intra = comm._phase_groups["world|hier-intra"].state
            return out, intra, {id(plan) for plan in intra.plans.values()}

        results = spmd(6, fn)
        oracle = np.sum([np.full(8, float(r + 1)) for r in range(6)], axis=0)
        for out, _, _ in results:
            for data in out:
                assert np.array_equal(data, oracle)
        nodes = [results[:4], results[4:]]
        for node in nodes:
            assert all(state is node[0][1] for _, state, _ in node)
            assert all(plans == node[0][2] and plans for _, _, plans in node)
        assert nodes[0][0][1] is not nodes[1][0][1]
        assert not nodes[0][0][2] & nodes[1][0][2]

    def test_single_node_degenerates_to_flat_intra(self):
        def fn(ctx, comm):
            x = ctx.full(4, float(ctx.rank + 1))
            comm.all_reduce(HIER, x)
            comm.synchronize()
            return float(x.data[0])

        assert spmd(4, fn) == [10.0] * 4

    def test_virtual_tensors_and_async(self):
        def fn(ctx, comm):
            x = ctx.virtual_tensor(1 << 16)
            h = comm.all_reduce(HIER, x, async_op=True)
            h.synchronize()
            comm.synchronize()
            return ctx.now

        times = spmd(16, fn)
        assert all(t > 0 for t in times)
        # the final phase is intra-node, so completion times agree per node
        for node in range(4):
            assert len({times[r] for r in range(node * 4, node * 4 + 4)}) == 1


class TestErrors:
    def test_unsupported_family_rejected(self):
        def fn(ctx, comm):
            out = ctx.zeros(1)
            with pytest.raises(BackendError, match="hier"):
                comm.reduce_scatter(HIER, out, ctx.zeros(comm.world_size))
            return True

        assert all(spmd(4, fn))

    def test_constituent_missing_from_communicator(self):
        def fn(ctx, comm):
            with pytest.raises(BackendError):
                comm.all_reduce("hier:nccl+ucc", ctx.zeros(4))
            return True

        assert all(spmd(4, fn))


class TestAutoDispatch:
    def _table(self):
        table = TuningTable(system="lassen")
        table.add("allreduce", 16, 4096, "nccl")
        table.add("allreduce", 16, 4 << 20, HIER)
        return table

    def test_auto_routes_hier_per_message_size(self):
        def fn(ctx, comm):
            comm.tuning_table = self._table()
            small = ctx.full(1024, 1.0)  # 4 KiB
            comm.all_reduce("auto", small)
            comm.synchronize()
            hier_after_small = bool(comm._phase_groups)
            big = ctx.full(1 << 20, 1.0)  # 4 MiB
            comm.all_reduce("auto", big)
            comm.synchronize()
            return (
                hier_after_small,
                bool(comm._phase_groups),
                float(small.data[0]),
                float(big.data[0]),
            )

        for used_small, used_big, small, big in spmd(16, fn):
            assert not used_small and used_big
            assert small == 16.0 and big == 16.0

    def test_auto_skips_hier_when_constituent_quarantined(self):
        faults = FaultSpec(
            backend_faults=(BackendFault(backend="nccl", kind="permanent", at_op=1),)
        )

        def fn(ctx, comm):
            comm.tuning_table = self._table()
            x = ctx.full(1 << 20, float(ctx.rank + 1))
            comm.all_reduce("auto", x)
            comm.synchronize()
            return float(x.data[0])

        assert spmd(16, fn, faults=faults) == [136.0] * 16

    def test_reinstalled_table_reroutes_every_rank(self):
        """Routing is plan state, so installing a table reroutes every
        rank — even when the new table reuses the freed one's ``id()``
        at the same generation, which a (table identity, generation)
        memo mistook for the old table and kept routing flat."""
        numel = 1 << 20  # 4 MiB fp32

        def fn(ctx, comm):
            first = TuningTable(system="lassen")
            first.add("allreduce", 16, numel * 4, "nccl")
            comm.tuning_table = first
            x = ctx.full(numel, float(ctx.rank))
            comm.all_reduce("auto", x)
            comm.synchronize()
            comm.tuning_table = None
            del first
            second = TuningTable(system="lassen")
            second.add("allreduce", 16, numel * 4, HIER)
            comm.tuning_table = second
            x.fill_(float(ctx.rank))
            comm.all_reduce("auto", x)
            comm.synchronize()
            return bool(comm._phase_groups), float(x.data[0]), float(x.data[-1])

        assert spmd(16, fn) == [(True, 120.0, 120.0)] * 16

    def test_named_synchronize_drains_phases(self):
        """Naming the constituents drains the composite's phase
        communicators too, exactly like a full ``synchronize()``."""
        config = MCRConfig(mpi_stream_mode="mpi-managed")

        def run(names):
            def fn(ctx, comm):
                x = ctx.virtual_tensor(1 << 20)  # 4 MiB fp32
                handle = comm.all_reduce("hier:mvapich2-gdr+nccl", x, async_op=True)
                comm.synchronize(names)
                return ctx.now, handle.completion_time

            return spmd(16, fn, config=config)

        named, full = run(["nccl", "mvapich2-gdr"]), run(None)
        for (now, done), (full_now, full_done) in zip(named, full):
            assert now == done == full_now == full_done


class TestResilience:
    def test_explicit_hier_survives_permanent_fault(self):
        faults = FaultSpec(
            backend_faults=(BackendFault(backend="nccl", kind="permanent", at_op=2),)
        )

        def fn(ctx, comm):
            x = ctx.full(16, float(ctx.rank + 1))
            for _ in range(4):
                comm.all_reduce(HIER, x)
                comm.synchronize()
            return float(x.data[0])

        results = spmd(8, fn, faults=faults)
        assert len(set(results)) == 1  # phases failed over symmetrically

    def test_parent_quarantines_bar_phase_groups_without_copies(self):
        """A phase group's health unions the parent's quarantines instead
        of copying them: no per-group rows are logged (walking the
        parent's quarantine *set* once logged those copies in
        string-hash order), and the log is the same under two hash
        seeds."""
        script = """
from repro.cluster import lassen
from repro.core import MCRCommunicator
from repro.ext.logging_ext import CommLogger
from repro.sim import Simulator
from repro.sim.faults import BackendFault, FaultSpec

DEAD = ("msccl", "ucc", "openmpi")

def main(ctx):
    comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr", *DEAD])
    x = ctx.virtual_tensor(1024)
    for name in DEAD:
        comm.all_reduce(name, x)
    comm.all_reduce("hier:nccl+mvapich2-gdr", x)
    groups = {
        cid: ([n for n in comm.backends if n in g.health.dead()], sorted(g.health.quarantined))
        for cid, g in comm._phase_groups.items()
    }
    comm.finalize()
    events = CommLogger.shared(ctx).events
    return [(e.family, e.backend, e.detail) for e in events], groups

faults = FaultSpec(backend_faults=tuple(
    BackendFault(backend=name, kind="permanent", at_op=1) for name in DEAD))
print(repr(Simulator(8, system=lassen(), faults=faults).run(main).rank_results[0]))
"""

        def run(hash_seed: str) -> str:
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO / "src")
            )
            return subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        out = run("0")
        assert out == run("3")
        events, groups = ast.literal_eval(out)
        # every row is the parent's own: three quarantines, then failovers
        assert not [e for e in events if e[2].startswith(("inherited", "parent:"))]
        assert {e[0] for e in events} == {"quarantine", "failover"}
        # rank 0's two phase groups (intra, inter), in the order they split
        dead = ["msccl", "ucc", "openmpi"]
        assert groups == {
            "world|hier-intra": (dead, []),
            "world|hier-inter0": (dead, []),
        }

    def test_healthy_phase_groups_skip_the_fault_gate(self, monkeypatch):
        """With no injector and nothing quarantined a phase post runs no
        admission; a parent quarantine turns its phase groups' gate on
        (``invalidate_plans`` re-derives it), and recovery turns it off."""
        from repro.core.health import Health

        admits = []
        admit = Health.admit
        monkeypatch.setattr(
            Health, "admit", lambda self, *a, **k: admits.append(a) or admit(self, *a, **k)
        )

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1 << 20)
            for _ in range(10):
                comm.all_reduce(HIER, x)
            comm.synchronize()
            comm.finalize()

        assert round(Simulator(8, system=lassen()).run(main).elapsed_us, 3) == 4813.221
        assert admits == []

        def toggle(ctx):
            comm = MCRCommunicator(ctx, [*BACKENDS, "msccl"])
            comm.all_reduce(HIER, ctx.virtual_tensor(1 << 20))
            gates = [[g.health.gate for g in comm._phase_groups.values()]]
            comm.health.quarantine("msccl", "test")
            gates.append([g.health.gate for g in comm._phase_groups.values()])
            comm.health.unquarantine("msccl", "test")
            gates.append([g.health.gate for g in comm._phase_groups.values()])
            comm.finalize()
            return gates

        for gates in Simulator(8, system=lassen()).run(toggle).rank_results:
            assert gates == [[False, False], [True, True], [False, False]]

    def test_plan_cache_byte_identity(self):
        def job(plan_cache):
            def fn(ctx, comm):
                x = ctx.full(1024, float(ctx.rank + 1))
                for _ in range(3):
                    comm.all_reduce(HIER, x)
                    comm.synchronize()
                return (ctx.now, x.data.tobytes())

            return spmd(16, fn, config=MCRConfig(plan_cache=plan_cache))

        assert job(True) == job(False)


class TestPhaseList:
    """One schedule: the phases a composite runs are the list
    :func:`hier_phases` returns, and a composite is one post."""

    @pytest.mark.parametrize("family", sorted(HIER_FAMILIES, key=lambda f: f.value))
    @pytest.mark.parametrize("world", [8, 12, 16, 32])
    @pytest.mark.parametrize("nbytes", [4 << 10, 1 << 20])
    def test_logged_phases_are_the_schedule(self, family, world, nbytes):
        """Rank 0's phase-tagged comm rows are the phases it takes part
        in, in order.  Each row's transfer time is that phase's price on
        its group size and path, as :func:`hier_cost_phases` prices it on
        the dense layout."""
        system = lassen()
        spec = parse_hier(HIER)
        numel = nbytes // 4 // world * world  # all_to_all_single splits by ws

        def fn(ctx, comm):
            x = ctx.virtual_tensor(numel)
            if family is OpFamily.ALLREDUCE:
                comm.all_reduce(HIER, x)
            elif family is OpFamily.BROADCAST:
                comm.bcast(HIER, x, root=0)
            elif family is OpFamily.ALLGATHER:
                comm.all_gather(HIER, ctx.virtual_tensor(numel * world), x)
            else:
                comm.all_to_all_single(HIER, ctx.virtual_tensor(numel), x)
            comm.synchronize()
            from repro.ext.logging_ext import CommLogger

            rows = CommLogger.shared(ctx).records
            return [
                (r.phase, r.backend, r.family, r.nbytes, r.end - r.start)
                for r in rows if r.rank == 0 and r.phase
            ]

        logged = spmd(world, fn, system, config=MCRConfig(enable_logging=True))[0]
        layout = derive_layout(system, range(world))
        phases = hier_phases(layout, spec, family, numel * 4)
        costs = hier_cost_phases(system, spec, family, numel * 4, world)
        expected = [
            (c.phase, c.backend, c.family, p.nbytes, pytest.approx(c.cost_us, rel=1e-12))
            for p, c in zip(phases, costs)
            if p.members is None or 0 in p.members
        ]
        assert len(phases) > 1 and logged == expected
        # the transfer prices above are taken at these group sizes: a
        # lassen node's four GPUs, and one rank per node
        sizes = [len(layout.group(p.group, 0)) for p in phases]
        assert sizes == [4 if p.group == "intra" else world // 4 for p in phases]

    def test_one_communicator_per_rank(self, monkeypatch):
        built = []
        init = MCRCommunicator.__init__

        def counting(self, ctx, *args, **kwargs):
            built.append(ctx.rank)
            init(self, ctx, *args, **kwargs)

        monkeypatch.setattr(MCRCommunicator, "__init__", counting)

        def fn(ctx, comm):
            x = ctx.full(64, 1.0)
            comm.all_reduce(HIER, x)
            comm.bcast(HIER, x, root=5)
            comm.all_gather(HIER, ctx.zeros(64 * 16), x)
            comm.all_to_all_single(HIER, ctx.zeros(64), x)
            comm.synchronize()
            return len(comm._phase_groups)

        # one node group and one shard group per rank; shard 0 is the
        # leaders' group
        assert spmd(16, fn) == [2] * 16
        assert sorted(built) == list(range(16))

    @pytest.mark.parametrize("world, op", [(4, "all_reduce"), (6, "all_gather")])
    def test_degenerate_composite_posts_once(self, world, op):
        """A single-node (ws 4) or uneven-fallback (ws 6) composite is one
        flat phase: the adaptive op count and the plan lookups see one
        post per call, not the composite and then its constituent."""
        from repro.core.config import AdaptiveConfig

        config = MCRConfig()
        config.adaptive = AdaptiveConfig(enabled=True)

        def fn(ctx, comm):
            for _ in range(3):
                if op == "all_reduce":
                    comm.all_reduce(HIER, ctx.full(64, 1.0))
                else:
                    comm.all_gather(HIER, ctx.zeros(4 * world), ctx.full(4, 1.0))
            stats = comm.plan_stats
            return comm.retuner.snapshot()["ops"], stats["hits"] + stats["misses"]

        assert spmd(world, fn, config=config) == [(3, 3)] * world


class TestObservability:
    def test_phase_tagged_comm_records(self):
        def fn(ctx, comm):
            x = ctx.full(1024, 1.0)
            comm.all_reduce(HIER, x)
            comm.synchronize()
            from repro.ext.logging_ext import CommLogger

            log = CommLogger.shared(ctx)
            return sorted({r.phase for r in log.records if r.phase})

        phases = spmd(16, fn, config=MCRConfig(enable_logging=True))[0]
        assert phases == ["inter", "intra"]

    def test_flat_ops_stay_untagged(self):
        def fn(ctx, comm):
            x = ctx.full(64, 1.0)
            comm.all_reduce("nccl", x)
            comm.synchronize()
            from repro.ext.logging_ext import CommLogger

            log = CommLogger.shared(ctx)
            return all(r.phase == "" for r in log.records)

        assert all(spmd(4, fn, config=MCRConfig(enable_logging=True)))


class TestAnalyticCost:
    def test_supported_families_finite_unsupported_inf(self):
        spec = parse_hier(HIER)
        for fam in HIER_FAMILIES:
            assert hier_collective_cost_us(lassen(), spec, fam, 1 << 20, 16) > 0
        assert hier_collective_cost_us(
            lassen(), spec, OpFamily.REDUCE_SCATTER, 1 << 20, 16
        ) == float("inf")

    @staticmethod
    def _flat_costs(system, nbytes, p):
        from repro.backends.base import create_backend

        return [
            create_backend(name, 0, p, system).collective_cost_us(
                OpFamily.ALLREDUCE, nbytes, p, system.comm_path(p)
            )
            for name in BACKENDS
        ]

    def test_crossover_composite_wins_large_messages(self):
        system = lassen()
        spec = parse_hier(HIER)
        big = 16 << 20
        hier_cost = hier_collective_cost_us(system, spec, OpFamily.ALLREDUCE, big, 16)
        assert hier_cost < min(self._flat_costs(system, big, 16))

    def test_tuner_sweep_emits_hier_cells(self):
        table = (
            Tuner(lassen(), BACKENDS + [HIER], mode="analytic")
            .build_table(
                world_sizes=[16],
                message_sizes=[4096, 4 << 20, 64 << 20],
                ops=[OpFamily.ALLREDUCE],
            )
            .table
        )
        assert table.lookup("allreduce", 16, 64 << 20) == HIER
        assert not str(table.lookup("allreduce", 16, 4096)).startswith("hier:")

    def test_single_gpu_nodes_never_prefer_hier(self):
        # ppn == 1: no intra level exists, the composite must not win
        system = generic_cluster(gpus_per_node=1, max_nodes=16)
        spec = parse_hier(HIER)
        cost = hier_collective_cost_us(system, spec, OpFamily.ALLREDUCE, 4 << 20, 8)
        assert cost >= min(self._flat_costs(system, 4 << 20, 8)) * 0.99


class TestSimulatedCrossover:
    def test_hier_beats_both_constituents_at_4mib(self):
        system = lassen()

        def timed(target):
            def main(ctx):
                comm = MCRCommunicator(ctx, list(BACKENDS))
                x = ctx.virtual_tensor(1 << 20)  # 4 MiB fp32
                comm.all_reduce(target, x)
                comm.synchronize()
                start = ctx.now
                for _ in range(4):
                    comm.all_reduce(target, x)
                comm.synchronize()
                elapsed = ctx.now - start
                comm.finalize()
                return elapsed

            return max(Simulator(16, system=system).run(main).rank_results)

        hier_us = timed(HIER)
        assert hier_us < timed("nccl")
        assert hier_us < timed("mvapich2-gdr")
