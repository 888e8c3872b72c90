"""The five benchmark workloads.

Each workload is a class whose constructor *generates* its inputs from a
seed (and does the set-up a user would pay once: system spec, tuning
table, payload pool, oracle) and whose :meth:`rep` runs one fixed
program through the public API of ``repro``.  The program under test
only ever sees the generated inputs, never the seed.

Every repetition is a closed loop with one generator: the next call is
issued only after the previous one returned.  ``rep`` returns a
:class:`Rep` carrying the *simulated* time of the program (the paper's
clock) and the number of operations that failed; the *wall* clock is
taken by the caller (``child.py``) around ``rep``.

Seeds move the simulated clock a little (message sizes, model shape) and
the host clock not at all: every seed issues the same number of calls,
moves the same number of bytes and compiles the same number of plans, so
``wall_ops_per_s`` is comparable across seeds.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.backends.base import clear_cost_caches
from repro.backends.ops import OpFamily, ReduceOp
from repro.bench.sweep import SweepCache
from repro.cluster import lassen
from repro.core import MCRCommunicator, MCRConfig, Tuner
from repro.models import BackendPlan, DSMoEModel, MoEConfig, Trainer
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

#: scratch space for sweep caches; inside the checkout, gitignored
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


@dataclass
class Rep:
    """Outcome of one repetition of a workload's program."""

    #: simulated µs of the program (what the modelled cluster would take)
    sim_us: float
    #: counts the operations whose output was wrong (oracle mismatch,
    #: recomputed warm cell); called after the clock has stopped, so
    #: checking is not timed.  A repetition that raises fails all its ops.
    check: "Callable[[], int] | None" = None
    #: ObsEvents recorded (only when run with ``observe=True``)
    obs_events: int = 0
    #: best single-backend simulated time over this program's, where the
    #: repetition itself knows it (``tune_sweep_ws8_16``)
    mix_gain: "float | None" = None


def _obs_events(result) -> int:
    """ObsEvents a run recorded; its registry is None unless observed."""
    return len(result.metrics.events) if result.metrics is not None else 0


class Workload:
    """What ``child.py`` needs from a workload."""

    name: str
    why: str
    ops_per_rep: int
    #: the single-backend plans the mix is compared with
    singles: tuple = ()

    def rep(self, single: "str | None" = None, observe: bool = False) -> Rep:
        raise NotImplementedError

    def mix_gain(self, mixed: Rep) -> float:
        """Best single-backend simulated time over the mix's (paper C4);
        the single-backend runs are untimed side runs of the same program."""
        if mixed.mix_gain is not None:
            return mixed.mix_gain
        return min(self.rep(single=b).sim_us for b in self.singles) / mixed.sim_us


class MoeTrain(Workload):
    """DS-MoE training steps at 64 ranks under the mixed plan (Fig. 8)."""

    name = "moe_train_ws64"
    why = (
        "the paper's headline (Fig. 8) and the full stack: models, core, "
        "backends, sim.streams, sim.engine and ext.logging_ext all work, none dominates"
    )
    world = 64
    steps, warmup = 2, 1
    #: op = one rank completing one training step (warm-up step included)
    ops_per_rep = world * (steps + warmup)
    singles = ("nccl", "mvapich2-gdr")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.system = lassen()
        # the seed nudges the sequence length: alltoall payload and GEMM
        # times move by < 0.5 %, the host executes the same calls
        self.model = DSMoEModel(MoEConfig(seq_len=2048 + rng.randrange(-8, 9)))

    def rep(self, single: "str | None" = None, observe: bool = False) -> Rep:
        plan = BackendPlan.pure(single) if single else BackendPlan.mixed()
        result = Trainer(
            self.system, steps=self.steps, warmup=self.warmup, metrics=observe
        ).run(self.model, self.world, plan)
        return Rep(sim_us=result.step_time_us, obs_events=_obs_events(result))


# op codes of the generated communicator programs
_AR, _AG, _RS, _A2A, _BC, _A2AV, _RING = range(7)


class AutoMix(Workload):
    """2000 seeded "auto" calls per rank at 16 ranks on virtual tensors."""

    name = "auto_mix_ws16"
    why = (
        "core (op surface, plan cache, tuning lookup, rendezvous) and backends.cost "
        "do the work; working set larger than the hot plan set, no data plane"
    )
    world = 16
    backends = ("nccl", "mvapich2-gdr", "msccl")
    singles = backends
    kinds = (_AR, _AG, _RS, _A2A, _BC)
    #: per collective kind: 16 hot sizes x 18 draws + 72 fresh sizes = 360
    hot_draws, fresh_draws, ring_exchanges = 18, 72, 100
    calls_per_rank = len(kinds) * (16 * hot_draws + fresh_draws) + 2 * ring_exchanges
    ops_per_rep = world * calls_per_rank

    def __init__(self, seed: int):
        self.system = lassen()
        families = [
            OpFamily.ALLREDUCE, OpFamily.ALLGATHER, OpFamily.REDUCE_SCATTER,
            OpFamily.ALLTOALL, OpFamily.BROADCAST,
        ]
        self.table = Tuner(self.system, list(self.backends), mode="analytic").build_table(
            world_sizes=[self.world],
            message_sizes=[1 << k for k in range(10, 23)],
            ops=families,
        ).table
        self.program = self._generate(random.Random(seed))

    def _generate(self, rng: random.Random) -> list:
        """Seeded calls over a fixed multiset, shuffled block by block.

        80 % of the collective calls draw from a 16-entry hot set of
        sizes (4 KiB .. 4 MiB, log-spaced), 20 % from fresh sizes within
        5 % of a hot size, each used once per op — the per-``nbytes`` plan
        cache misses on every one of them.  The program is ``hot_draws``
        blocks, each holding every (op, hot size) once plus its share of
        the fresh sizes and ring exchanges, shuffled inside the block.
        The layout is the same for every seed (the order of large and
        small messages alone moves the simulated time by 1.5 %); the
        seed draws the fresh sizes, so the host does the same work and
        the simulated time moves by about 0.1 %.
        """
        layout = random.Random(0)
        w = self.world
        hot = [int(1024 * 1024 ** (i / 15)) // w * w for i in range(16)]
        extras = [(_RING, hot[i % 16]) for i in range(self.ring_exchanges)]
        for kind in self.kinds:
            for j, base in enumerate(hot):
                reach = max(3, base // (20 * w))
                offsets = [k for k in range(-reach, reach + 1) if k]
                draws = self.fresh_draws // 16 + (j < self.fresh_draws % 16)
                extras += [(kind, base + w * k) for k in rng.sample(offsets, draws)]
        layout.shuffle(extras)
        program = []
        for b in range(self.hot_draws):
            block = [(kind, base) for kind in self.kinds for base in hot]
            block += extras[b :: self.hot_draws]
            layout.shuffle(block)
            program += block
        return program

    def rep(
        self, single: "str | None" = None, observe: bool = False,
        plan_cache: bool = True,
    ) -> Rep:
        program, table, w = self.program, self.table, self.world
        target = single or "auto"
        backends = [single] if single else list(self.backends)

        def main(ctx):
            comm = MCRCommunicator(
                ctx, backends, config=MCRConfig(plan_cache=plan_cache),
                tuning_table=table,
            )
            tensors: dict = {}

            def vt(numel: int):
                t = tensors.get(numel)
                if t is None:
                    t = tensors[numel] = ctx.virtual_tensor(numel)
                return t

            nxt, prv = (ctx.rank + 1) % w, (ctx.rank - 1) % w
            for kind, numel in program:
                if kind == _AR:
                    comm.all_reduce(target, vt(numel), async_op=True)
                elif kind == _AG:
                    comm.all_gather(target, vt(numel), vt(numel // w), async_op=True)
                elif kind == _RS:
                    comm.reduce_scatter(target, vt(numel // w), vt(numel), async_op=True)
                elif kind == _A2A:
                    comm.all_to_all_single(target, vt(numel), vt(numel), async_op=True)
                elif kind == _BC:
                    comm.bcast(target, vt(numel), root=numel // w % w, async_op=True)
                else:
                    comm.isend(target, vt(numel), nxt)
                    comm.irecv(target, vt(numel), prv)
            comm.synchronize()
            comm.finalize()

        result = Simulator(w, system=self.system, observe=observe).run(main)
        return Rep(sim_us=result.elapsed_us, obs_events=_obs_events(result))


@dataclass
class _DataOp:
    kind: int
    backend: str
    numel: int
    #: per-rank input views into the payload pool
    inputs: list
    root: int
    counts: "list | None" = None  # all_to_allv: counts[i][j], i -> j
    #: per-rank expected output (NumPy oracle, computed by the harness)
    expected: list = field(default_factory=list)


class Dataplane(Workload):
    """Real NumPy payloads at 8 ranks, every output checked against an oracle."""

    name = "dataplane_ws8"
    why = (
        "bytes really move: backends.datapath and tensor dominate, sim.engine idles; "
        "a gain for timing-only paths that costs the data path shows here"
    )
    world = 8
    singles = ("nccl", "mvapich2-gdr")
    kinds = (_AR, _AG, _RS, _A2A, _BC, _A2AV)
    #: fp32 elements: 64 KiB, 256 KiB, 1 MiB
    sizes = (1 << 14, 1 << 16, 1 << 18)
    ops_per_rep = world * len(kinds) * len(sizes)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.system = lassen()
        w = self.world
        # small integers: every fp32 sum is exact in any order, so the
        # oracle comparison is bit-for-bit
        pool = [
            rng.integers(-64, 64, size=2 * max(self.sizes)).astype(np.float32)
            for _ in range(w)
        ]
        # a fixed call list with alternating backends: every seed issues
        # the same (op, size, backend) sequence on different payloads,
        # slices, roots and all_to_allv splits
        calls = [(kind, numel) for kind in self.kinds for numel in self.sizes]
        self.program = []
        for i, (kind, numel) in enumerate(calls):
            in_numel = numel // w if kind == _AG else numel
            # page-aligned slices: copy speed must not depend on the seed
            offset = 1024 * int(rng.integers(0, (len(pool[0]) - in_numel) // 1024))
            chunk = numel // w
            op = _DataOp(
                kind=kind, backend=self.singles[i % 2], numel=numel,
                inputs=[p[offset : offset + in_numel] for p in pool],
                root=int(rng.integers(0, w)),
                counts=(
                    rng.integers(3 * chunk // 4, chunk + 1, size=(w, w)).tolist()
                    if kind == _A2AV else None
                ),
            )
            op.expected = _oracle(op, w)
            self.program.append(op)

    def rep(self, single: "str | None" = None, observe: bool = False) -> Rep:
        program, w = self.program, self.world

        def main(ctx):
            comm = MCRCommunicator(ctx, list(self.singles))
            r = ctx.rank
            outs = []
            for op in program:
                b = single or op.backend
                x = ctx.tensor(op.inputs[r].copy())
                kind = op.kind
                if kind == _AR:
                    comm.all_reduce(b, x)
                    out = x
                elif kind == _BC:
                    comm.bcast(b, x, root=op.root)
                    out = x
                elif kind == _AG:
                    out = ctx.zeros(op.numel)
                    comm.all_gather(b, out, x)
                elif kind == _RS:
                    out = ctx.zeros(op.numel // w)
                    comm.reduce_scatter(b, out, x, op=ReduceOp.SUM)
                elif kind == _A2A:
                    out = ctx.zeros(op.numel)
                    comm.all_to_all_single(b, out, x)
                else:
                    out = ctx.zeros(op.numel)
                    comm.all_to_allv(
                        b, out, x,
                        scounts=op.counts[r], sdispls=None,
                        rcounts=[row[r] for row in op.counts], rdispls=None,
                    )
                outs.append(out.data)
            comm.synchronize()
            comm.finalize()
            return outs

        result = Simulator(w, system=self.system, observe=observe).run(main)

        def mismatches() -> int:
            return sum(
                not np.array_equal(result.rank_results[r][i], op.expected[r])
                for i, op in enumerate(program)
                for r in range(w)
            )

        return Rep(
            sim_us=result.elapsed_us, check=mismatches, obs_events=_obs_events(result)
        )


def _oracle(op: _DataOp, w: int) -> list:
    """Expected per-rank outputs, NumPy only (no ``repro`` code)."""
    ins = op.inputs
    if op.kind == _AR:
        total = np.add.reduce(ins)
        return [total] * w
    if op.kind == _BC:
        return [ins[op.root]] * w
    if op.kind == _AG:
        return [np.concatenate(ins)] * w
    if op.kind == _RS:
        total = np.add.reduce(ins)
        chunk = op.numel // w
        return [total[r * chunk : (r + 1) * chunk] for r in range(w)]
    if op.kind == _A2A:
        chunk = op.numel // w
        return [
            np.concatenate([ins[i][j * chunk : (j + 1) * chunk] for i in range(w)])
            for j in range(w)
        ]
    counts = np.asarray(op.counts)
    sdispls = np.cumsum(counts, axis=1) - counts  # row i: offsets in rank i's input
    rdispls = np.cumsum(counts, axis=0) - counts  # column j: offsets in rank j's output
    expected = []
    for j in range(w):
        out = np.zeros(op.numel, dtype=np.float32)
        for i in range(w):
            c = counts[i][j]
            out[rdispls[i][j] : rdispls[i][j] + c] = ins[i][sdispls[i][j] : sdispls[i][j] + c]
        expected.append(out)
    return expected


class TuneSweep(Workload):
    """A cold simulated tuning sweep, its warm rerun, and analytic sweeps (C5)."""

    name = "tune_sweep_ws8_16"
    why = (
        "many short simulations: thread spawn/join, cold cost-model paths, core.tuner "
        "and bench.sweep dominate; the tuner's real buffers bring in backends.datapath"
    )
    backends = ("nccl", "mvapich2-gdr", "msccl")
    world_sizes = (8, 16)
    families = (OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER)
    #: six sizes, 1 KiB .. 128 KiB.  The tuner allocates real buffers of
    #: world_size x size, so cost grows with the square of the top size:
    #: the two 1 MiB alltoall/allgather cells at ws=16 alone take 6 s here
    size_exponents = (10, 12, 14, 15, 16, 17)
    analytic_world_sizes = (16, 64, 256, 1024)
    analytic_sweeps = 3
    #: op = one simulated sweep cell
    ops_per_rep = len(families) * len(world_sizes) * len(size_exponents) * len(backends)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.system = lassen()
        # the seed moves each size by < 1 %, inside its power-of-two bucket
        self.sizes = [
            (1 << k) + 4 * rng.randrange((1 << k) // 512 + 1)
            for k in self.size_exponents
        ]
        self._reps = 0

    def _sweep(self, cache_dir: str, metrics):
        tuner = Tuner(
            self.system, list(self.backends), mode="simulated",
            iterations=3, warmup=1, metrics=metrics,
        )
        return tuner.build_table(
            world_sizes=list(self.world_sizes),
            message_sizes=self.sizes,
            ops=list(self.families),
            cache=SweepCache(cache_dir),
        )

    def rep(self, single: "str | None" = None, observe: bool = False) -> Rep:
        metrics = MetricsRegistry() if observe else None
        self._reps += 1
        cache_dir = os.path.join(WORK_DIR, f"sweep-{os.getpid()}-{self._reps}")
        try:
            cold = self._sweep(cache_dir, metrics)
            warm = self._sweep(cache_dir, metrics)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        clear_cost_caches()
        for _ in range(self.analytic_sweeps):
            Tuner(
                self.system, list(self.backends), mode="analytic", metrics=metrics
            ).build_table(
                world_sizes=list(self.analytic_world_sizes), ops=list(self.families)
            )

        def wrong_cells() -> int:
            if warm.samples != cold.samples:
                return self.ops_per_rep
            return warm.sweep_stats.computed  # a warm rerun recomputes nothing

        # simulated clock: the sum of every sampled cell latency; the
        # tuned table's own mix gain is the best single backend's total
        # over the per-cell winners' total
        n = len(self.backends)
        totals = dict.fromkeys(self.backends, 0.0)
        winners = 0.0
        for i in range(0, len(cold.samples), n):
            cell = cold.samples[i : i + n]
            for sample in cell:
                totals[sample.backend] += sample.latency_us
            winners += min(sample.latency_us for sample in cell)
        return Rep(
            sim_us=sum(totals.values()),
            check=wrong_cells,
            obs_events=len(metrics.events) if observe else 0,
            mix_gain=min(totals.values()) / winners,
        )


class AllreduceScale(Workload):
    """40 virtual 1 MiB all-reduces at 512 ranks, alternating backends."""

    name = "allreduce_scale_ws512"
    why = (
        "the scale The Big Send-off asks for: sim.engine handoffs, heap and 512-thread "
        "spawn dominate, core per-op work as at ws=16, peak RSS set by thread count"
    )
    world = 512
    iters = 40
    ops_per_rep = world * iters
    singles = ("nccl", "mvapich2-gdr")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.system = lassen()
        # 1 MiB of fp32, moved by < 0.1 % by the seed
        self.numel = 262_144 + 16 * rng.randrange(-16, 17)

    def rep(self, single: "str | None" = None, observe: bool = False) -> Rep:
        numel, iters = self.numel, self.iters
        order = self.singles

        def main(ctx):
            comm = MCRCommunicator(ctx, list(order))
            x = ctx.virtual_tensor(numel)
            for i in range(iters):
                comm.all_reduce(single or order[i % 2], x)
            comm.synchronize()
            comm.finalize()

        result = Simulator(self.world, system=self.system, observe=observe).run(main)
        return Rep(sim_us=result.elapsed_us, obs_events=_obs_events(result))


WORKLOADS = {
    cls.name: cls for cls in (MoeTrain, AutoMix, Dataplane, TuneSweep, AllreduceScale)
}
