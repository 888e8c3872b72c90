"""Dispatch plan cache (core/comm.py CommPlan, paper §V-E).

The contract under test: compiled plans make steady-state dispatch a
dict lookup (hit rate ~1 in a training loop), invalidation
recompiles them on tuning-table installs, in-place table edits,
quarantines, and codec/synchronization changes, and — the load-bearing
property — a run with the cache force-disabled is byte-identical in
simulated time and data to the cached run, healthy or degraded.
"""

import gc
import sys

import numpy as np
import pytest

from repro.backends.ops import ReduceOp
from repro.core import MCRCommunicator, MCRConfig, op_table
from repro.core.config import CompressionConfig
from repro.core.exceptions import ValidationError
from repro.core.tuning import TuningTable
from repro.sim import Simulator
from repro.sim.faults import BackendFault, FaultSpec

BACKENDS = ["nccl", "mvapich2-gdr"]


def _run(main, world_size=2, **sim_kwargs):
    return Simulator(world_size, **sim_kwargs).run(main)


def _cfg(plan_cache=True, **kwargs):
    return MCRConfig(plan_cache=plan_cache, **kwargs)


def own_plans(comm):
    """This rank's plans: the entries of its group's plan index under
    its two plan-context tokens, in compile order."""
    tokens = (comm._token, comm._auto_token)
    return [plan for key, plan in comm._group.state.plans.items() if key[0] in tokens]


class TestSteadyState:
    def test_one_miss_then_hits(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            for _ in range(20):
                comm.all_reduce("nccl", x)
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats["misses"] == 1
        assert stats["hits"] == 19
        assert stats["plans"] == 1
        assert stats["hit_rate"] == pytest.approx(19 / 20)

    def test_distinct_signatures_get_distinct_plans(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            small, large = ctx.virtual_tensor(256), ctx.virtual_tensor(65536)
            for _ in range(4):
                comm.all_reduce("nccl", small)
                comm.all_reduce("nccl", large)
                comm.all_reduce("mvapich2-gdr", small)
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats["misses"] == 3
        assert stats["hits"] == 9
        assert stats["plans"] == 3

    def test_cached_and_uncached_identical(self):
        """The core claim: the cache never changes simulated results."""

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(plan_cache))
                x = ctx.full(64, float(ctx.rank + 1))
                for i in range(6):
                    comm.all_reduce(BACKENDS[i % 2], x)
                comm.synchronize()
                comm.finalize()
                return ctx.now, x.data.copy()

            return _run(main, world_size=4)

        cached, uncached = job(True), job(False)
        assert cached.elapsed_us == uncached.elapsed_us
        for (tc, dc), (tu, du) in zip(cached.rank_results, uncached.rank_results):
            assert tc == tu
            assert np.array_equal(dc, du)

    def test_cache_off_never_hits(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(False))
            x = ctx.virtual_tensor(1024)
            for _ in range(5):
                comm.all_reduce("nccl", x)
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["plans"] == 0


class TestAutoDispatch:
    def _table(self, backend, ws=2):
        table = TuningTable()
        table.add("allreduce", ws, 4096, backend)
        return table

    def test_auto_plans_cache_and_pin_the_choice(self):
        table = self._table("mvapich2-gdr")

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            x = ctx.virtual_tensor(1024)
            for _ in range(10):
                comm.all_reduce("auto", x)
            stats = comm.plan_stats
            plans = own_plans(comm)
            comm.finalize()
            return stats, [p.backend.name for p in plans]

        stats, resolved = _run(main).rank_results[0]
        assert stats == {
            "hits": 9, "misses": 1, "invalidations": 0,
            "plans": 1, "hit_rate": 0.9,
        }
        assert resolved == ["mvapich2-gdr"]

    def test_table_swap_recompiles(self):
        """Assigning a new table must re-resolve 'auto' plans."""
        first = self._table("nccl")
        second = self._table("mvapich2-gdr")

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(
                    ctx, BACKENDS, config=_cfg(plan_cache), tuning_table=first
                )
                x = ctx.virtual_tensor(1024)
                picked = []
                for i in range(6):
                    if i == 3:
                        comm.tuning_table = second
                    comm.all_reduce("auto", x)
                    # the rendezvous sequence number reveals which backend
                    # actually carried each op
                    picked.append(dict(comm._group.seq))
                comm.finalize()
                return ctx.now, picked[-1]

            return _run(main)

        cached, uncached = job(True), job(False)
        t, seqs = cached.rank_results[0]
        assert seqs == {"nccl": 3, "mvapich2-gdr": 3}
        assert t == uncached.rank_results[0][0]

    def test_inplace_table_edit_recompiles(self):
        """add()/merge() bump the table generation; plans pinned on the
        old generation recompile without an explicit reinstall."""

        def main(ctx):
            # rank-local table: each rank edits its own copy, exactly one
            # generation bump per rank
            table = TuningTable()
            table.add("allreduce", 2, 4096, "nccl")
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            x = ctx.virtual_tensor(1024)
            for _ in range(3):
                comm.all_reduce("auto", x)
            table.add("allreduce", 2, 4096, "mvapich2-gdr")
            for _ in range(3):
                comm.all_reduce("auto", x)
            seqs = dict(comm._group.seq)
            stats = comm.plan_stats
            comm.finalize()
            return seqs, stats

        seqs, stats = _run(main).rank_results[0]
        assert seqs == {"nccl": 3, "mvapich2-gdr": 3}
        assert stats["misses"] == 2  # recompiled once after the edit

    def test_explicit_plans_survive_table_edits(self):
        """Plans that never consulted the table are not generation-pinned."""
        table = self._table("nccl")

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            table.add("allreduce", 2, 8192, "mvapich2-gdr")
            comm.all_reduce("nccl", x)
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats == {
            "hits": 1, "misses": 1, "invalidations": 0,
            "plans": 1, "hit_rate": 0.5,
        }

    def test_a_swap_keeps_explicit_plans(self):
        """A table swap moves only the ``"auto"`` plans: an explicit post
        after it hits the plan it compiled before, and an ``"auto"`` post
        compiles against the swapped-in table."""
        first, second = self._table("nccl"), self._table("mvapich2-gdr")

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=first)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            comm.all_reduce("auto", x)
            before = own_plans(comm)[0]
            comm.tuning_table = second
            comm.all_reduce("nccl", x)
            served = comm.all_reduce("auto", x, async_op=True)
            served.synchronize()
            out = (
                before, own_plans(comm), served.backend_name,
                comm.plan_stats["invalidations"], comm.plan_compiles,
            )
            comm.finalize()
            return out

        for before, plans, served, invalidations, compiles in _run(main).rank_results:
            assert plans[0] is before and plans[0].table_generation == -1
            assert served == "mvapich2-gdr" and len(plans) == 2
            # the explicit plan and one "auto" plan per table
            assert (invalidations, compiles) == (0, 3)


class TestInvalidation:
    def test_quarantine_mid_run_identical_to_uncached(self):
        """A permanent fault quarantines mid-run; cached and uncached
        degraded runs must agree on timing and data."""
        spec = FaultSpec(
            backend_faults=(
                BackendFault(backend="nccl", kind="permanent", at_op=3),
            ),
        )

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(plan_cache))
                x = ctx.full(32, float(ctx.rank + 1))
                for _ in range(6):
                    comm.all_reduce("nccl", x)
                    comm.synchronize()
                stats = comm.plan_stats
                comm.finalize()
                return ctx.now, x.data.copy(), stats

            return _run(main, world_size=2, faults=spec)

        cached, uncached = job(True), job(False)
        (tc, dc, stats), (tu, du, _) = (
            cached.rank_results[0], uncached.rank_results[0],
        )
        assert tc == tu
        assert np.array_equal(dc, du)
        assert stats["invalidations"] >= 1  # the quarantine cleared the plans

    def test_codec_toggle_recompiles_and_matches_uncached(self):
        compression = CompressionConfig(enabled=True, rate_bits=8)

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(plan_cache))
                x = ctx.virtual_tensor(262_144)
                for _ in range(3):
                    comm.all_reduce("nccl", x)
                comm.set_compression(compression)
                for _ in range(3):
                    comm.all_reduce("nccl", x)
                comm.set_compression(CompressionConfig(enabled=False))
                for _ in range(3):
                    comm.all_reduce("nccl", x)
                comm.synchronize()
                stats = comm.plan_stats
                comm.finalize()
                return ctx.now, stats

            return _run(main)

        cached, uncached = job(True), job(False)
        t, stats = cached.rank_results[0]
        assert t == uncached.rank_results[0][0]
        assert stats["misses"] == 3  # one compile per codec regime
        assert stats["hits"] == 6
        assert stats["invalidations"] == 2

    def test_compression_still_shortens_wire_time(self):
        """The codec arithmetic cached in plans still takes effect."""

        def job(compression):
            def main(ctx):
                comm = MCRCommunicator(
                    ctx, BACKENDS,
                    config=MCRConfig(compression=compression),
                )
                x = ctx.virtual_tensor(1 << 20)
                for _ in range(4):
                    comm.all_reduce("nccl", x)
                comm.synchronize()
                comm.finalize()
                return ctx.now

            return _run(main).rank_results[0]

        plain = job(CompressionConfig(enabled=False))
        packed = job(CompressionConfig(enabled=True, rate_bits=8))
        assert packed < plain

    def test_synchronization_switch_recompiles(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            plan = own_plans(comm)[0]
            stream_plan = (plan.pool, plan.pinned, plan.on_default)
            comm.set_synchronization("naive")
            comm.all_reduce("nccl", x)
            plan = own_plans(comm)[0]
            naive_plan = (plan.pool, plan.pinned, plan.on_default)
            comm.synchronize()
            comm.finalize()
            return stream_plan, naive_plan

        stream_plan, naive_plan = _run(main).rank_results[0]
        # a small op round-robins over the nccl pool; naive mode pins
        # every op to the default stream, so the plan was recompiled
        assert stream_plan == ("nccl", False, False)
        assert naive_plan == ("", False, True)

    @pytest.mark.parametrize("switch", ["synchronization", "compression"])
    def test_switch_leaves_a_shared_config_alone(self, switch):
        """Ranks commonly share one ``MCRConfig``: a rank's switch is its
        own, so a peer's post that comes before the peer's own switch
        still compiles under the old settings."""
        shared = MCRConfig()

        def main(ctx, config):
            comm = MCRCommunicator(ctx, BACKENDS, config=config)
            if ctx.rank == 1:
                ctx.launch(2000.0)
            handle = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
            posted = ctx.now
            if switch == "synchronization":
                comm.set_synchronization("naive")
            else:
                comm.set_compression(CompressionConfig(enabled=True, rate_bits=8))
            handle.synchronize()
            comm.synchronize()
            comm.finalize()
            return posted, comm.config is config

        private = _run(lambda ctx: main(ctx, MCRConfig())).rank_results
        joint = _run(lambda ctx: main(ctx, shared)).rank_results
        assert joint == [(posted, False) for posted, _ in private]
        assert joint[1][0] < 2000.0  # the post did not wait for the kernel
        assert shared == MCRConfig()

    def test_manual_invalidate_clears_plans(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            before = len(own_plans(comm))
            comm.invalidate_plans("test")
            after = len(own_plans(comm))
            comm.all_reduce("nccl", x)
            stats = comm.plan_stats
            comm.finalize()
            return before, after, stats

        before, after, stats = _run(main).rank_results[0]
        assert (before, after) == (1, 0)
        assert stats["misses"] == 2
        assert stats["invalidations"] == 1


class TestRendezvousSequencing:
    def test_mixed_families_stay_matched(self):
        """Sequence numbers are keyed per backend only; an SPMD program
        mixing op families on one backend must rendezvous correctly."""

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            p = comm.world_size
            x = ctx.full(8, float(ctx.rank + 1))
            gathered = ctx.zeros(8 * p)
            for _ in range(3):
                comm.all_reduce("nccl", x)
                comm.all_gather("nccl", gathered, x)
                comm.bcast("nccl", x, root=1)
                comm.barrier("mvapich2-gdr")
            comm.synchronize()
            comm.finalize()
            return x.data.copy(), gathered.data.copy()

        results = _run(main, world_size=4).rank_results
        for x, gathered in results:
            assert np.array_equal(x, results[0][0])
            assert np.array_equal(gathered, results[0][1])

    def test_family_mismatch_still_detected(self):
        """Matching by backend sequence must still catch asymmetric
        programs through the rendezvous meta check."""
        from repro.core import ValidationError

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.zeros(8)
            if ctx.rank == 0:
                comm.all_reduce("nccl", x)
            else:
                comm.bcast("nccl", x)
            comm.finalize()

        with pytest.raises(ValidationError, match="collective mismatch"):
            _run(main)


class TestPlanHitPost:
    """A plan hit does only the per-call work: validate, register the
    arrival, enqueue, return.  Counted as Python calls on the posting
    thread (``sys.setprofile``; a count, not a clock) for one post at
    ws 16, taken on rank 0 (48 / 45 / 49 before stream placement
    compiled into the plan; ``"auto"`` took 38 while a separate memoized
    hierarchical-routing probe ran ahead of the plan lookup; 32 / 31 / 35
    before the plan fixed its yield test and the tensor metadata became
    plain attributes)."""

    POSTS = [("auto", True, 12), ("nccl", True, 12), ("mvapich2-gdr", False, 15)]
    LOOPS = [("nccl", True, 9.71), ("mvapich2-gdr", False, 13.75)]

    @staticmethod
    def calls_per_post(backend, async_op, logged=False):
        """The Python calls of rank 0's second post, one by name."""
        table = TuningTable()
        table.add("allreduce", 16, 4096, "nccl")

        def main(ctx):
            comm = MCRCommunicator(
                ctx, BACKENDS, tuning_table=table, config=MCRConfig(enable_logging=logged)
            )
            x = ctx.virtual_tensor(1024)

            def post():
                comm.all_reduce(backend, x, async_op=async_op)

            post()  # compiles the plan
            calls = []

            def profile(frame, event, arg):
                if event == "call":
                    calls.append(frame.f_code.co_name)

            if ctx.rank == 0:
                # a collection inside the count would add the gc.callbacks
                # other libraries install (hypothesis times its GC passes)
                gc.disable()
                sys.setprofile(profile)
            try:
                post()
            finally:
                sys.setprofile(None)
                if ctx.rank == 0:
                    gc.enable()
            stats = comm.plan_stats
            comm.finalize()
            return calls, stats

        calls, stats = _run(main, world_size=16).rank_results[0]
        assert (stats["hits"], stats["misses"]) == (1, 1)
        return calls

    @staticmethod
    def calls_per_rank_op(backend, async_op, logged=False):
        """Python calls per rank-op of a 100-post loop at ws 16."""
        calls, ops, world = [0], 100, 16

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1  # rank threads run one at a time

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, config=MCRConfig(enable_logging=logged))
            x = ctx.virtual_tensor(1 << 14)  # 64 KiB
            comm.all_reduce(backend, x, async_op=async_op)  # compiles the plan
            sys.setprofile(profile)  # per thread: installed in the rank body
            try:
                for _ in range(ops):
                    comm.all_reduce(backend, x, async_op=async_op)
            finally:
                sys.setprofile(None)
            comm.finalize()

        gc.disable()  # a collection would run the gc.callbacks others install
        try:
            res = _run(main, world_size=world)
        finally:
            gc.enable()
        if logged:
            assert len(res.shared["comm_logger"].records) == (ops + 1) * world
        return calls[0] / (ops * world)

    @pytest.mark.parametrize("backend, async_op, budget", POSTS)
    def test_python_calls_per_post(self, backend, async_op, budget):
        calls = self.calls_per_post(backend, async_op)
        assert len(calls) <= budget, calls

    @pytest.mark.parametrize("backend, async_op, budget", POSTS)
    def test_python_calls_per_logged_post(self, backend, async_op, budget):
        """Logging adds at most two calls to rank 0's post, which opens
        the collective's comm-log batch (``_log_on_flag`` and
        ``CommLogger.defer``); a later rank's post joins it with none.
        18 / 18 / 21 while each post deferred its own closure."""
        calls = self.calls_per_post(backend, async_op, logged=True)
        assert len(calls) <= budget + 2, calls

    @pytest.mark.parametrize("backend, async_op, budget", LOOPS)
    def test_python_calls_per_rank_op_of_a_loop(self, backend, async_op, budget):
        """The whole loop, every rank thread counted: the resolving
        rank's work (price, wire lane, ``graph.resolve``) and the waits
        are in it, which one post on rank 0 does not see.  20.09 / 24.13
        calls per rank-op while a timing-only post built its call's
        buffers and mover and an ``Arrival``, and ``graph.resolve`` made
        five calls per member."""
        per_op = self.calls_per_rank_op(backend, async_op)
        assert per_op <= budget, per_op

    @pytest.mark.parametrize("backend, async_op, budget", LOOPS)
    def test_python_calls_per_logged_rank_op_of_a_loop(self, backend, async_op, budget):
        """Logging adds at most 1.5 calls per rank-op: a row's
        ``ObsEvent`` and, per collective, its batch's open, deferral,
        emit and ``EventLog.extend`` (21.64 / 25.69 while every rank
        logged through its own closure and ``CommLogger.log``)."""
        per_op = self.calls_per_rank_op(backend, async_op, logged=True)
        assert per_op <= budget + 1.5, per_op

    def test_hier_routed_auto_post_is_a_hit(self):
        """Routing to the composite is plan state: the second hier-routed
        ``"auto"`` post hits the parent's plan and never consults the
        tuning table."""
        from repro.cluster import lassen

        def main(ctx):
            table = TuningTable(system="lassen")  # one per rank: it is spied on
            table.add("allreduce", 16, 4 << 20, "hier:nccl+mvapich2-gdr")
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            x = ctx.virtual_tensor(1 << 20)  # 4 MiB fp32
            comm.all_reduce("auto", x)
            comm.synchronize()
            lookups = []
            lookup = table.lookup
            table.lookup = lambda *a: lookups.append(a) or lookup(*a)
            comm.all_reduce("auto", x)
            comm.synchronize()
            stats = comm.plan_stats
            routed = bool(comm._phase_groups)
            comm.finalize()
            return lookups, stats, routed

        for lookups, stats, routed in _run(main, world_size=16, system=lassen()).rank_results:
            assert routed
            assert lookups == []
            assert (stats["hits"], stats["misses"], stats["plans"]) == (1, 1, 1)


class TestPlanSharing:
    """A plan names nothing of one rank, so the ranks of a group whose
    plan context matches share one compiled plan (INTERNALS §12);
    ``comm.plan_compiles`` counts the job's compiles."""

    @staticmethod
    def _table(ws):
        table = TuningTable()
        table.add("allreduce", ws, 4096, "nccl")
        table.add("allreduce", ws, 1 << 20, "mvapich2-gdr")
        table.add("allgather", ws, 4096, "mvapich2-gdr")
        return table

    def test_auto_program_compiles_each_plan_once_per_group(self):
        table = self._table(4)

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            for _ in range(3):
                for numel in (1024, 1 << 18):
                    comm.all_reduce("auto", ctx.virtual_tensor(numel), async_op=True)
                    comm.all_gather(
                        "auto", ctx.virtual_tensor(4 * numel), ctx.virtual_tensor(numel),
                        async_op=True,
                    )
                comm.all_reduce("nccl", ctx.virtual_tensor(64))
            comm.synchronize()
            out = comm.plan_stats, comm.plan_compiles, own_plans(comm)
            comm.finalize()
            return out

        results = _run(main, world_size=4).rank_results
        _, compiles, plans = results[0]
        # five distinct plans in the job, one compile each (not one per rank)
        assert compiles == 5 and len(plans) == 5
        # a miss is a compile: the ranks' misses add up to the job's
        assert sum(stats["misses"] for stats, _, _ in results) == compiles
        for rank_stats, rank_compiles, rank_plans in results:
            assert rank_stats["plans"] == 5 and rank_compiles == compiles
            assert rank_stats["hits"] + rank_stats["misses"] == 15
            assert all(p is q for p, q in zip(rank_plans, plans))

    def test_naive_switch_stops_sharing_for_that_rank_only(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            before = comm._plan(op_table._ALL_REDUCE, "nccl", op_table._key_all_reduce(
                comm, x, ReduceOp.SUM), count=False)
            if ctx.rank == 1:
                comm.set_synchronization("naive")
            for _ in range(3):
                comm.all_reduce("nccl", x)
            comm.synchronize()
            after = own_plans(comm)[0]
            out = before, after, comm.plan_compiles
            comm.finalize()
            return out

        results = _run(main, world_size=4).rank_results
        shared = results[0][0]
        assert all(before is shared for before, _, _ in results)
        # the switching rank compiled its own plan; its peers kept theirs
        assert results[1][1] is not shared and results[1][1].on_default
        assert all(results[r][1] is shared for r in (0, 2, 3))
        assert {compiles for _, _, compiles in results} == {2}

    @pytest.mark.parametrize("adaptive, compiles", [(False, 2), (True, 2)])
    def test_adaptive_ranks_share_only_explicit_plans(self, adaptive, compiles):
        """Adaptive ranks install the table as given and share it until
        an edit, so their ``"auto"`` plans are shared as their
        explicit-backend plans are: one compile each, adaptive or not."""
        from repro.core.config import AdaptiveConfig

        table = self._table(4)

        def main(ctx):
            config = MCRConfig(adaptive=AdaptiveConfig(enabled=adaptive))
            comm = MCRCommunicator(ctx, BACKENDS, config=config, tuning_table=table)
            x = ctx.virtual_tensor(1024)
            handles = []
            for _ in range(5):
                handles.append(comm.all_reduce("auto", x, async_op=True))
                handles.append(comm.all_reduce("nccl", x, async_op=True))
            for handle in handles:
                handle.synchronize()
            out = own_plans(comm), comm.plan_compiles, comm.plan_stats["misses"]
            comm.finalize()
            return out

        results = _run(main, world_size=4).rank_results
        assert {job for _, job, _ in results} == {compiles}
        assert sum(misses for _, _, misses in results) == compiles
        # an "auto" plan consulted the table, an explicit one did not
        auto, nccl = (
            {
                id(plan) for plans, _, _ in results for plan in plans
                if (plan.table_generation >= 0) is consulted
            }
            for consulted in (True, False)
        )
        assert len(auto) == 1 and len(nccl) == 1

    def test_swapped_and_freed_table_never_serves_a_stale_plan(self):
        import gc
        import weakref

        def main(ctx):
            first = TuningTable()
            first.add("allreduce", 2, 4096, "nccl")
            alive = weakref.ref(first)
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=first)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("auto", x)
            picks = [own_plans(comm)[0].backend.name]
            del first
            for backend in ("mvapich2-gdr", "nccl"):
                # a fresh table per swap: once the last one is freed its
                # id may come back, but not while a shared plan names it
                table = TuningTable()
                table.add("allreduce", 2, 4096, backend)
                comm.tuning_table = table
                del table
                gc.collect()
                comm.all_reduce("auto", x)
                picks.append(own_plans(comm)[0].backend.name)
            comm.synchronize()
            out = picks, alive() is not None, comm.plan_compiles
            comm.finalize()
            return out

        for picks, pinned, compiles in _run(main).rank_results:
            assert picks == ["nccl", "mvapich2-gdr", "nccl"]
            assert pinned  # the memo entry holds the table it was keyed on
            assert compiles == 2 * 3  # each rank installs tables of its own

    def test_inplace_edit_of_a_shared_table_recompiles_once(self):
        table = self._table(4)

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS, tuning_table=table)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("auto", x)
            comm.synchronize()
            if ctx.rank == 0:
                table.add("allreduce", 4, 4096, "mvapich2-gdr")
            ctx.sleep(10.0)  # every rank sees the edit before it posts again
            comm.all_reduce("auto", x)
            comm.synchronize()
            out = own_plans(comm)[0].backend.name, comm.plan_compiles
            comm.finalize()
            return out

        assert _run(main, world_size=4).rank_results == [("mvapich2-gdr", 2)] * 4


class TestObservability:
    def test_plan_counters_flow_into_registry(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            for _ in range(5):
                comm.all_reduce("nccl", x)
            comm.invalidate_plans("test")
            comm.all_reduce("nccl", x)
            comm.synchronize()
            comm.finalize()  # flushes plan stats into the registry
            return ctx.now

        world = 2
        sim = Simulator(world, observe=True)
        compiles = sim.run(main).shared["mcr_dl"].compiles
        counters = sim.metrics.counters
        # the ranks share each plan: a miss is a compile, every other
        # lookup a hit
        assert compiles == 2
        assert counters["comm.plan.miss"] == compiles
        assert counters["comm.plan.hit"] == 6 * world - compiles
        assert counters["comm.plan.invalidate"] == 1 * world

    def test_no_events_when_observability_off(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            x = ctx.virtual_tensor(1024)
            comm.all_reduce("nccl", x)
            comm.finalize()
            return ctx.now

        _run(main)  # must not raise: no registry installed


class TestVectoredCollectives:
    """Vectored ops (gatherv/scatterv/all_gatherv/all_to_allv) through
    the plan cache and fault failover — their plan keys carry the
    vector flag, count vectors change nbytes, and a quarantined backend
    reroutes them like any flat collective."""

    def _vectored_round(self, ctx, comm, backend):
        x = ctx.full(4, float(ctx.rank + 1))
        pair = ctx.zeros(8)
        comm.gatherv(backend, x, pair if ctx.rank == 0 else None, rcounts=[4, 4])
        comm.scatterv(backend, x, pair if ctx.rank == 0 else None, scounts=[4, 4])
        comm.all_gatherv(backend, pair, x, rcounts=[4, 4])
        comm.all_to_allv(backend, pair, pair, scounts=[4, 4], rcounts=[4, 4])
        comm.synchronize()
        return x, pair

    def test_steady_state_hits_per_family(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            for _ in range(5):
                self._vectored_round(ctx, comm, "nccl")
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats["misses"] == 4  # one plan per vectored family
        assert stats["hits"] == 16
        assert stats["plans"] == 4

    def test_count_vector_change_is_a_new_plan(self):
        """nbytes derives from the count vectors, so a resized gatherv
        must compile a fresh plan, not reuse the old one."""

        def main(ctx):
            comm = MCRCommunicator(ctx, BACKENDS)
            small = ctx.full(2, 1.0)
            big = ctx.full(6, 1.0)
            out_s = ctx.zeros(4) if ctx.rank == 0 else None
            out_b = ctx.zeros(12) if ctx.rank == 0 else None
            for _ in range(3):
                comm.gatherv("nccl", small, out_s, rcounts=[2, 2])
                comm.gatherv("nccl", big, out_b, rcounts=[6, 6])
            comm.synchronize()
            stats = comm.plan_stats
            comm.finalize()
            return stats

        stats = _run(main).rank_results[0]
        assert stats["plans"] == 2
        assert stats["misses"] == 2
        assert stats["hits"] == 4

    def test_cached_and_uncached_identical(self):
        """Byte identity for the vectored families: simulated time and
        real data must not move when the cache is disabled."""

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(plan_cache))
                data = []
                for i in range(3):
                    backend = BACKENDS[i % 2]
                    x, pair = self._vectored_round(ctx, comm, backend)
                    data.append((x.data.copy(), pair.data.copy()))
                stats = comm.plan_stats
                comm.finalize()
                return ctx.now, data, stats

            return _run(main, world_size=2)

        cached, uncached = job(True), job(False)
        assert cached.elapsed_us == uncached.elapsed_us
        for (tc, dc, stats), (tu, du, _) in zip(
            cached.rank_results, uncached.rank_results
        ):
            assert tc == tu
            for (xc, pc), (xu, pu) in zip(dc, du):
                assert np.array_equal(xc, xu)
                assert np.array_equal(pc, pu)
        assert cached.rank_results[0][2]["hits"] > 0
        assert uncached.rank_results[0][2]["hits"] == 0

    def test_permanent_fault_fails_over_with_correct_data(self):
        """A mid-run quarantine reroutes vectored ops to the survivor;
        the rerouted all_gatherv still delivers every rank's shard, and
        cached/uncached degraded runs agree."""
        spec = FaultSpec(
            backend_faults=(
                BackendFault(backend="nccl", kind="permanent", at_op=2),
            ),
        )

        def job(plan_cache):
            def main(ctx):
                comm = MCRCommunicator(ctx, BACKENDS, config=_cfg(plan_cache))
                out = None
                for _ in range(4):
                    x = ctx.full(2, float(ctx.rank + 1))
                    out = ctx.zeros(4)
                    comm.all_gatherv("nccl", out, x, rcounts=[2, 2])
                    comm.synchronize()
                stats = comm.plan_stats
                quarantined = sorted(comm.health.quarantined)
                comm.finalize()
                return ctx.now, out.data.copy(), stats, quarantined

            return _run(main, world_size=2, faults=spec)

        cached, uncached = job(True), job(False)
        for res in (cached, uncached):
            for _, data, _, quarantined in res.rank_results:
                assert np.array_equal(data, [1, 1, 2, 2])
                assert quarantined == ["nccl"]
        (tc, dc, stats, _), (tu, du, _, _) = (
            cached.rank_results[0], uncached.rank_results[0],
        )
        assert tc == tu
        assert np.array_equal(dc, du)
        assert stats["invalidations"] >= 1


#: world size of the plan-key symmetry job
KEY_WS = 4
#: per-rank element counts of the uneven v-ops: rank r's own count is
#: ``COUNTS[r]``; rank i sends ``PAIRS[i][j]`` elements to rank j
COUNTS = [1, 2, 3, 4]
PAIRS = [[(i + 1) * (j + 2) for j in range(KEY_WS)] for i in range(KEY_WS)]
#: every row of the op table, by name
ROWS = {
    row.name: row for row in vars(op_table).values() if isinstance(row, op_table.CollectiveSpec)
}


def _key_args(ctx, rank: int) -> dict:
    """Legal, rank-asymmetric arguments for every op-table row at
    ``KEY_WS``: root vs non-root (1 is the root), ``None`` outputs and
    inputs off the root, uneven v-counts and uneven all_to_all pairs."""
    z = ctx.zeros
    root = rank == 1
    return {
        "all_reduce": (z(8), ReduceOp.SUM),
        "reduce": (z(8), 1, ReduceOp.SUM),
        "bcast": (z(8), 1),
        "all_gather": (z(8 * KEY_WS), z(8)),
        "reduce_scatter": (z(8), z(8 * KEY_WS), ReduceOp.SUM),
        "all_to_all_single": (z(8 * KEY_WS), z(8 * KEY_WS)),
        "all_to_all": (
            [z(PAIRS[j][rank]) for j in range(KEY_WS)],
            [z(PAIRS[rank][j]) for j in range(KEY_WS)],
        ),
        "gather": (z(8), z(8 * KEY_WS) if root else None, 1),
        "scatter": (z(8), z(8 * KEY_WS) if root else None, 1),
        "gatherv": (z(COUNTS[rank]), z(sum(COUNTS)) if root else None, COUNTS, None, 1),
        "scatterv": (z(COUNTS[rank]), z(sum(COUNTS)) if root else None, COUNTS, None, 1),
        "all_gatherv": (z(sum(COUNTS)), z(COUNTS[rank]), COUNTS, None),
        "all_to_allv": (
            z(sum(row[rank] for row in PAIRS)), z(sum(PAIRS[rank])),
            PAIRS[rank], None, [row[rank] for row in PAIRS], None,
        ),
        "barrier": (),
    }


@pytest.fixture(scope="module")
def plan_keys():
    """Each rank's ``(meta, nbytes)`` for every op-table row: the part
    of the plan key, and of ``Health.choose``'s input, the call sets."""

    def main(ctx):
        comm = MCRCommunicator(ctx, BACKENDS)
        keys = {}
        for name, args in _key_args(ctx, comm.rank).items():
            keys[name] = ROWS[name].key(comm, *args)[:2]
        comm.finalize()
        return keys

    return _run(main, world_size=KEY_WS).rank_results


#: rows whose key still holds a quantity only the rank knows (ROADMAP 3)
_OWN_SEND_TOTAL = pytest.mark.xfail(
    strict=True,
    reason="nbytes is the rank's own send total, so ranks can pick different "
    "backends for one \"auto\" call (ROADMAP item 3)",
)


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(name, marks=_OWN_SEND_TOTAL)
        if name in ("all_to_all", "all_to_allv") else name
        for name in ROWS
    ],
)
def test_plan_keys_are_symmetric_across_ranks(plan_keys, row):
    """Every rank of one call builds the same plan key from its own
    legal arguments, so ``"auto"`` resolves it alike everywhere."""
    keys = [rank_keys[row] for rank_keys in plan_keys]
    assert keys == [keys[0]] * KEY_WS


def test_plan_key_cases_cover_every_row(plan_keys):
    assert sorted(plan_keys[0]) == sorted(ROWS)


#: world size and root of the validation-parity jobs
BAD_WS, BAD_ROOT = 4, 1
#: per non-vector row: a good call, a bad call of the same op (None: the
#: rank does not post it) and its ValidationError; ``t(n)`` makes a
#: tensor of n elements, virtual or real
BAD_CALLS = {
    "all_gather-numel": (
        lambda c, t: c.all_gather("nccl", t(4 * BAD_WS), t(4)),
        lambda c, t: c.all_gather("nccl", t(4 * BAD_WS + 1), t(4)),
        "all_gather: output numel 17 != 4 * 4",
    ),
    "reduce_scatter-numel": (
        lambda c, t: c.reduce_scatter("nccl", t(4), t(4 * BAD_WS)),
        lambda c, t: c.reduce_scatter("nccl", t(4), t(4 * BAD_WS + 2)),
        "reduce_scatter: input numel 18 != 4 * 4",
    ),
    "all_to_all_single-divisibility": (
        lambda c, t: c.all_to_all_single("nccl", t(8), t(8)),
        lambda c, t: c.all_to_all_single("nccl", t(6), t(6)),
        "all_to_all_single: numel 6 not divisible by world size 4",
    ),
    "bcast-root-range": (
        lambda c, t: c.bcast("nccl", t(4), root=BAD_ROOT),
        lambda c, t: c.bcast("nccl", t(4), root=BAD_WS),
        "root 4 out of range [0, 4)",
    ),
    "reduce-root-range": (
        lambda c, t: c.reduce("nccl", t(4), root=BAD_ROOT),
        lambda c, t: c.reduce("nccl", t(4), root=-1),
        "root -1 out of range [0, 4)",
    ),
    "gather-root-buffer": (
        lambda c, t: c.gather(
            "nccl", t(4), t(4 * BAD_WS) if c.rank == BAD_ROOT else None, root=BAD_ROOT
        ),
        lambda c, t: c.gather("nccl", t(4), None, root=BAD_ROOT) if c.rank == BAD_ROOT else None,
        "gather: root must pass an output tensor",
    ),
    "scatter-root-buffer": (
        lambda c, t: c.scatter(
            "nccl", t(4), t(4 * BAD_WS) if c.rank == BAD_ROOT else None, root=BAD_ROOT
        ),
        lambda c, t: c.scatter("nccl", t(4), None, root=BAD_ROOT) if c.rank == BAD_ROOT else None,
        "scatter: root must pass an input tensor",
    ),
    "all_to_all-length": (
        lambda c, t: c.all_to_all(
            "nccl", [t(2) for _ in range(BAD_WS)], [t(2) for _ in range(BAD_WS)]
        ),
        lambda c, t: c.all_to_all(
            "nccl", [t(2) for _ in range(BAD_WS)], [t(2) for _ in range(BAD_WS - 1)]
        ),
        "all_to_all: need 4 tensors per list, got 3/4",
    ),
}


@pytest.mark.parametrize("case", list(BAD_CALLS))
def test_bad_call_raises_alike_on_hit_and_miss(case):
    """Every check runs in the row's ``key``, ahead of the plan lookup: a
    bad call raises the same ValidationError on virtual and on real
    tensors, before any plan exists and after a good call of the same op
    compiled one (the timing-only hit builds no data plane, so no check
    may live there).  The vectored rows run both ways in
    ``test_comm_vectored.py``."""
    good, bad, message = BAD_CALLS[case]

    def main(ctx, virtual, warm):
        comm = MCRCommunicator(ctx, BACKENDS)
        make = ctx.virtual_tensor if virtual else ctx.zeros
        if warm:
            good(comm, make)
            assert comm.plan_compiles >= 1
        try:
            bad(comm, make)
        except ValidationError as err:
            return str(err)
        finally:
            comm.finalize()
        return None

    expected = [
        message if "root-buffer" not in case or rank == BAD_ROOT else None
        for rank in range(BAD_WS)
    ]
    for virtual in (True, False):
        for warm in (False, True):
            results = Simulator(BAD_WS).run(main, virtual, warm).rank_results
            assert results == expected, (virtual, warm)
