"""Direct layer timings: each a loop around one public function.

Workload-independent; run once per ``--trace 1`` invocation in a pinned
child.  Every timing is a median over a few rounds of a loop long enough
to dwarf the clock.  ``quick`` runs one round.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from repro.backends import datapath
from repro.backends.base import clear_cost_caches, create_backend
from repro.backends.ops import OpFamily, ReduceOp
from repro.bench.sweep import SweepCache
from repro.cluster import lassen
from repro.core import Tuner
from repro.models import BackendPlan, Trainer
from repro.obs.metrics import MetricsRegistry, ObsEvent
from repro.sim import Simulator
from repro.sim.engine import Engine

from workloads import WORK_DIR, AutoMix, MoeTrain

_FAMILIES = [OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER]
_BACKENDS = ["nccl", "mvapich2-gdr", "msccl"]


def _wall_s(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_s(fn, rounds: int) -> float:
    """Median wall seconds of ``fn()`` over ``rounds`` calls."""
    return statistics.median(_wall_s(fn) for _ in range(rounds))


def _paired_s(first, second, rounds: int, before=None) -> "tuple[float, float]":
    """Median wall seconds of two functions run alternately, so that
    host drift lands on both sides."""
    a, b = [], []
    for _ in range(rounds):
        if before is not None:
            before()
        a.append(_wall_s(first))
        b.append(_wall_s(second))
    return statistics.median(a), statistics.median(b)


def engine_handoff_us(sleeps: int = 20_000) -> float:
    """Two processes whose wake times interleave, so every sleep parks
    the caller and hands the baton to the other thread."""
    engine = Engine()

    def body(offset: float):
        def run():
            engine.sleep(offset)
            for _ in range(sleeps):
                engine.sleep(1.0)

        return run

    engine.add_process("a", body(0.0))
    engine.add_process("b", body(0.5))
    start = time.perf_counter()
    engine.run()
    return (time.perf_counter() - start) / (2 * sleeps) * 1e6


def engine_inline_us(sleeps: int = 200_000) -> float:
    """A solo process: every sleep takes the inline fast path."""
    engine = Engine()

    def run():
        for _ in range(sleeps):
            engine.sleep(1.0)

    engine.add_process("solo", run)
    start = time.perf_counter()
    engine.run()
    return (time.perf_counter() - start) / sleeps * 1e6


def measure(quick: bool = False) -> dict:
    rounds = 1 if quick else 3
    system = lassen()
    out = {
        "sim.engine.handoff_us": statistics.median(
            engine_handoff_us() for _ in range(rounds)
        ),
        "sim.engine.inline_us": statistics.median(
            engine_inline_us() for _ in range(rounds)
        ),
    }

    for ws in (64, 512):
        sim = Simulator(ws, system=system)
        sim.run(lambda ctx: None)  # the first run pays lazy imports
        out[f"sim.simulator.spawn_us_per_rank_ws{ws}"] = (
            _median_s(lambda: sim.run(lambda ctx: None), rounds) / ws * 1e6
        )

    # cost model: distinct sizes miss the memo, the second pass hits it
    sizes = [4096 + 64 * i for i in range(2000)]
    path = system.comm_path(64)

    def price_all():
        # a backend binds its memo table when built, so build it after
        # the caches were cleared
        backend = create_backend("nccl", 0, 64, system)
        for n in sizes:
            backend.collective_cost_us(OpFamily.ALLREDUCE, n, 64, path)

    cold, warm = _paired_s(price_all, price_all, rounds, before=clear_cost_caches)
    out["backends.cost.cold_us"] = cold / len(sizes) * 1e6
    out["backends.cost.warm_us"] = warm / len(sizes) * 1e6

    tuner = Tuner(system, _BACKENDS, mode="analytic")
    table = tuner.build_table(world_sizes=[16, 64], ops=_FAMILIES).table
    probes = [("allreduce", 16, 1 << k) for k in range(8, 24)]

    def lookups():
        for _ in range(2000):
            for op, ws, n in probes:
                table.lookup(op, ws, n)

    lookups()  # fill the memo: steady-state "auto" dispatch hits it
    out["core.tuning.lookup_ns"] = _median_s(lookups, rounds) / (2000 * len(probes)) * 1e9

    def analytic_sweeps() -> int:
        clear_cost_caches()
        return sum(
            len(
                Tuner(system, _BACKENDS, mode="analytic")
                .build_table(world_sizes=[16, 64, 256], ops=_FAMILIES).samples
            )
            for _ in range(3)
        )

    cells = analytic_sweeps()
    out["core.tuner.analytic_cells_per_s"] = cells / _median_s(analytic_sweeps, rounds)

    # the auto_mix program with the plan cache force-disabled, minus cached
    mix = AutoMix(seed=0)
    mix.rep()
    cached, uncached = _paired_s(mix.rep, lambda: mix.rep(plan_cache=False), rounds)
    out["core.dispatch.uncached_extra_us_per_op"] = (
        (uncached - cached) / mix.ops_per_rep * 1e6
    )

    # data plane: 8 ranks x 4 MiB, bytes read + written per call
    rng = np.random.default_rng(0)
    ins = [rng.integers(-64, 64, size=1 << 20).astype(np.float32) for _ in range(8)]
    outs = [np.empty_like(a) for a in ins]
    moved = sum(a.nbytes for a in ins) + sum(a.nbytes for a in outs)
    out["backends.datapath.allreduce_gb_per_s"] = moved / 1e9 / _median_s(
        lambda: datapath.all_reduce(ins, outs, ReduceOp.SUM), 5 * rounds
    )
    out["backends.datapath.alltoall_gb_per_s"] = moved / 1e9 / _median_s(
        lambda: datapath.all_to_all_single(ins, outs), 5 * rounds
    )

    # sweep cache: per-cell read cost, and a warm rerun recomputes nothing
    cache_dir = os.path.join(WORK_DIR, f"layers-{os.getpid()}")
    try:
        cache = SweepCache(cache_dir)
        keys = [f"{i:064x}" for i in range(200)]
        for key in keys:
            cache.put(key, {"cell": key}, 1.5)
        out["bench.sweep.cache_get_us"] = (
            _median_s(lambda: [cache.get(k) for k in keys], 5 * rounds) / len(keys) * 1e6
        )
        grid = dict(world_sizes=[8], message_sizes=[1 << 10, 1 << 14], ops=_FAMILIES[:1])
        sim_tuner = Tuner(system, _BACKENDS[:2], mode="simulated", iterations=2, warmup=1)
        sim_tuner.build_table(**grid, cache=cache)
        warm_report = sim_tuner.build_table(**grid, cache=cache)
        out["bench.sweep.warm_recomputed"] = warm_report.sweep_stats.computed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    registry = MetricsRegistry()
    event = ObsEvent("comm", 0, "s", "nccl", "allreduce", 1 << 20, 0, 0.0, 10.0, "auto")

    def observes():
        for _ in range(20_000):
            registry.observe(event)

    out["obs.observe_us"] = _median_s(observes, rounds) / 20_000 * 1e6

    # observability cost in wall time: moe repetition with tracing and
    # metrics on, over plain
    moe = MoeTrain(seed=0)
    plan = BackendPlan.mixed()

    def train(**kwargs):
        Trainer(moe.system, steps=moe.steps, warmup=moe.warmup, **kwargs).run(
            moe.model, moe.world, plan
        )

    train()
    plain, observed = _paired_s(train, lambda: train(trace=True, metrics=True), rounds)
    out["obs.wall_overhead_frac"] = observed / plain - 1.0
    return out
