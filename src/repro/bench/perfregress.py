"""Fingerprint ledger for the simulator's canonical scenarios.

The simulator is the instrument every figure in this reproduction is
measured with, so a change that is supposed to leave timing semantics
alone has to be *shown* to.  This module pins down a small set of
scenarios that exercise each hot path and records what each one
simulates: virtual timestamps, tuned picks, identity verdicts and
dispatch counts.  Every recorded value is deterministic — the same on
any host, at any load, under any hash seed — because no scenario reads
the host clock or the CPU count (``scripts/check_tests_hostfree.py``
enforces it).  How *fast* the simulator runs is ``perfbench/``'s
question, not this module's.

Scenarios
---------

Each scenario's docstring says what it pins and what
``scripts/perfgate.py`` holds it to.

``engine_events``             raw discrete-event dispatch, no communicator
``allreduce_ws{16,64,128}``   an all-reduce loop through the full runtime
``dispatch_cache``            the same loop, plan cache on and force-disabled
``tuner_sweep``               an analytic ``Tuner.build_table`` sweep's picks
``tune_sweep``                a simulated sweep: serial == pool == warm cache
``hier_allreduce``            the ``hier:*`` composite crossover (Fig. 2-style)
``adaptive_degraded_link``    online retuning under a mid-run slow link
``dsmoe_step``                one DS-MoE training step, mixed plan, 64 ranks
``tuned_step``                a 16-rank step on the ``"auto"`` (tuned) path
``obs_overhead``              a 16-rank step with tracing + metrics off and on

Usage
-----

``python -m repro perf --out BENCH_simulator.json`` runs the scenarios
and records them in the ledger.  ``scripts/perfgate.py`` (and through
it tier-1) runs them fresh and fails when any ``sim_*`` value differs
from the committed ledger or a scenario's contract floor is missed.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.core import MCRCommunicator

#: 2 = ``{"schema", "scenarios"}``; 1 was the before/after timing file
SCHEMA_VERSION = 2

#: scenario registry: name -> zero-arg callable returning a metrics dict
#: of deterministic facts.  Keys starting with ``sim_`` are *simulated*
#: results and form the fingerprint the gate compares against the
#: ledger; the rest are counts and ratios the gate holds to floors.
SCENARIOS: dict[str, Callable[[], dict]] = {}


def scenario(name: str) -> Callable:
    def register(fn: Callable[[], dict]) -> Callable[[], dict]:
        SCENARIOS[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------


@scenario("engine_events")
def engine_events() -> dict:
    """Raw engine dispatch: processes ping-pong through ``sleep`` /
    ``wait_flag`` with interleaved wake times (cross-thread handoffs),
    then a run-ahead phase hits the direct-handoff fast path.  Pins the
    final virtual time and the number of events dispatched."""
    from repro.sim.engine import Engine

    procs = 4
    rounds = 4_000
    engine = Engine()
    flags = [engine.new_flag(f"round-{i}") for i in range(rounds)]

    def body(idx: int):
        def run():
            for i in range(rounds):
                # interleaved wake times force real baton handoffs ...
                engine.sleep(0.5 + idx * 0.1, "spin")
                if idx == 0:
                    flags[i].fire(engine.now)
                else:
                    engine.wait_flag(flags[i])
            # ... and a solo tail exercises the run-ahead fast path
            for _ in range(rounds):
                engine.sleep(0.25, "tail")
            return engine.now

        return run

    for idx in range(procs):
        engine.add_process(f"p{idx}", body(idx))
    final = engine.run()
    return {
        "events": engine.stats()["events_dispatched"],
        "sim_final_us": final,
    }


def _allreduce_loop(world_size: int, iters: int) -> dict:
    """A tight all-reduce loop through communicator, rendezvous, streams
    and cost model on virtual tensors."""
    from repro.cluster import lassen
    from repro.sim import Simulator

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        x = ctx.virtual_tensor(262_144)  # 1 MiB fp32
        for i in range(iters):
            comm.all_reduce("nccl" if i % 2 else "mvapich2-gdr", x)
        comm.synchronize()
        comm.finalize()
        return ctx.now

    result = Simulator(world_size, system=lassen()).run(main)
    return {
        "ops": world_size * iters,
        "sim_final_us": result.rank_results[0],
    }


@scenario("allreduce_ws16")
def allreduce_ws16() -> dict:
    return _allreduce_loop(16, 60)


@scenario("allreduce_ws64")
def allreduce_ws64() -> dict:
    return _allreduce_loop(64, 30)


@scenario("allreduce_ws128")
def allreduce_ws128() -> dict:
    return _allreduce_loop(128, 15)


@scenario("dispatch_cache")
def dispatch_cache() -> dict:
    """Steady-state dispatch through the plan cache (paper §V-E).

    Runs the same alternating-backend allreduce loop twice — plans
    cached (the default) and force-disabled — and reports the plan hit
    rate and whether the two runs produced the same simulated completion
    time.  The identity is part of the simulated fingerprint: the cache
    may only skip re-derivation, never change a timing.
    ``scripts/perfgate.py`` gates the hit rate (steady state must be
    >= 0.95).
    """
    from repro.cluster import lassen
    from repro.core.config import MCRConfig
    from repro.sim import Simulator

    world_size, iters = 16, 80
    stats: dict = {}

    def loop(plan_cache: bool) -> float:
        def main(ctx):
            comm = MCRCommunicator(
                ctx,
                ["nccl", "mvapich2-gdr"],
                config=MCRConfig(plan_cache=plan_cache),
            )
            x = ctx.virtual_tensor(262_144)  # 1 MiB fp32
            for i in range(iters):
                comm.all_reduce("nccl" if i % 2 else "mvapich2-gdr", x)
            comm.synchronize()
            if plan_cache and ctx.rank == 0:
                stats.update(comm.plan_stats)
            comm.finalize()
            return ctx.now

        return Simulator(world_size, system=lassen()).run(main).rank_results[0]

    cached_us = loop(True)
    uncached_us = loop(False)
    total = stats.get("hits", 0) + stats.get("misses", 0)
    return {
        "ops": world_size * iters,
        "plan_hits": stats.get("hits", 0),
        "plan_misses": stats.get("misses", 0),
        "plan_hit_rate": round(stats.get("hits", 0) / total, 6) if total else 0.0,
        "sim_final_us": cached_us,
        "sim_cached_equals_uncached": cached_us == uncached_us,
    }


@scenario("tuner_sweep")
def tuner_sweep() -> dict:
    """One analytic sweep over three backends, collectives and scales."""
    from repro.backends.ops import OpFamily
    from repro.cluster import lassen
    from repro.core import Tuner

    ops = [OpFamily.ALLREDUCE, OpFamily.ALLTOALL, OpFamily.ALLGATHER]
    world_sizes = [16, 64, 256]
    tuner = Tuner(lassen(), ["nccl", "mvapich2-gdr", "msccl"], mode="analytic")
    table = tuner.build_table(world_sizes=world_sizes, ops=ops).table
    return {
        "cells": table.num_entries(),
        # fingerprint: the winning backend per (op, ws) at one probe size
        "sim_table_picks": {
            f"{op.value}@{ws}": table.lookup(op.value, ws, 1 << 20)
            for op in ops
            for ws in world_sizes
        },
    }


@scenario("tune_sweep")
def tune_sweep() -> dict:
    """The sweep engine on a simulated-mode tuning sweep (paper C5).

    Runs the same sweep three ways — serial cold, 4-worker-pool cold,
    and warm from the on-disk sweep cache.  The simulated fingerprint
    pins the table picks and the byte-identity of all three runs: the
    engine may only reschedule and cache work, never change a
    measurement.  ``scripts/perfgate.py`` requires the identity and a
    warm run that recomputes zero cells.
    """
    import shutil
    import tempfile

    from repro.backends.ops import OpFamily
    from repro.bench.sweep import SweepCache
    from repro.cluster import lassen
    from repro.core import Tuner

    system = lassen()
    backends = ["nccl", "mvapich2-gdr"]
    grid = dict(
        world_sizes=[8],
        message_sizes=[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
        ops=[OpFamily.ALLREDUCE, OpFamily.ALLTOALL],
    )
    jobs = 4

    def sweep(**kwargs):
        tuner = Tuner(system, backends, mode="simulated", iterations=3, warmup=1)
        return tuner.build_table(**grid, **kwargs)

    cache_dir = tempfile.mkdtemp(prefix="tune_sweep_cache_")
    try:
        serial = sweep()
        parallel = sweep(jobs=jobs, cache=SweepCache(cache_dir))
        warm = sweep(jobs=jobs, cache=SweepCache(cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    tables_identical = (
        json.dumps(serial.table.entries, sort_keys=True)
        == json.dumps(parallel.table.entries, sort_keys=True)
        == json.dumps(warm.table.entries, sort_keys=True)
    )
    samples_identical = serial.samples == parallel.samples == warm.samples
    picks = {
        f"{op.value}@8": serial.table.lookup(op.value, 8, 1 << 16)
        for op in grid["ops"]
    }
    return {
        "jobs": jobs,
        "cells": serial.sweep_stats.units,
        "cold_misses": parallel.sweep_stats.cache_misses,
        "warm_hits": warm.sweep_stats.cache_hits,
        "warm_recomputed": warm.sweep_stats.computed,
        "sim_table_picks": picks,
        "sim_tables_identical": tables_identical,
        "sim_samples_identical": samples_identical,
    }


@scenario("hier_allreduce")
def hier_allreduce() -> dict:
    """Hierarchical mixed-backend crossover (Fig. 2-style sweep).

    Simulates a steady-state 4 MiB all-reduce at 16 ranks (4 lassen nodes)
    on NCCL, on MVAPICH2-GDR, and on the two-level
    ``hier:nccl+mvapich2-gdr`` composite, then runs an analytic tuner
    sweep over all three.  Past the crossover the composite must beat
    both constituents (its inter-node phase moves 1/ppn of the vector
    with the full NIC per node leader); below it the flat backends win
    on latency.  ``scripts/perfgate.py`` gates ``hier_speedup``.
    """
    from repro.backends.ops import OpFamily
    from repro.cluster import lassen
    from repro.core import Tuner
    from repro.sim import Simulator

    system = lassen()
    world_size, iters = 16, 10
    # 4 MiB fp32: past the *simulated* crossover (wire-lane contention
    # between the ppn concurrent shard groups pushes it above the
    # analytic one, which assumes each leader gets the NIC to itself)
    numel = 1_048_576
    targets = ("nccl", "mvapich2-gdr", "hier:nccl+mvapich2-gdr")

    def per_op_us(target: str) -> float:
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            x = ctx.virtual_tensor(numel)
            comm.all_reduce(target, x)  # warmup builds the phase groups
            comm.synchronize()
            start = ctx.now
            for _ in range(iters):
                comm.all_reduce(target, x)
            comm.synchronize()
            elapsed = ctx.now - start
            comm.finalize()
            return elapsed / iters

        return max(Simulator(world_size, system=system).run(main).rank_results)

    per_op = {t: per_op_us(t) for t in targets}
    table = Tuner(system, list(targets), mode="analytic").build_table(
        world_sizes=[world_size],
        message_sizes=[4096, numel * 4],
        ops=[OpFamily.ALLREDUCE],
    ).table
    flat_best = min(per_op["nccl"], per_op["mvapich2-gdr"])
    hier_us = per_op["hier:nccl+mvapich2-gdr"]
    return {
        "hier_speedup": round(flat_best / hier_us, 6) if hier_us > 0 else 0.0,
        "sim_nccl_us": per_op["nccl"],
        "sim_mvapich_us": per_op["mvapich2-gdr"],
        "sim_hier_us": hier_us,
        "sim_pick_small": table.lookup("allreduce", world_size, 4096),
        "sim_pick_large": table.lookup("allreduce", world_size, numel * 4),
    }


@scenario("adaptive_degraded_link")
def adaptive_degraded_link() -> dict:
    """Feedback-driven retuning beats a stale table on a degraded link.

    A 1 MiB all-reduce loop at 16 ranks starts on its tuned backend
    (NCCL); at t=20 ms a fault quadruples NCCL's inter-node link time
    for the rest of the run.  The static table keeps dispatching into
    the slow link; the adaptive retuner must detect the drift, sweep the
    alternatives, and commit a faster pick so the tail of the run
    recovers.  The loop blocks on each op (``async_op=True`` +
    ``synchronize``) so the host clock tracks completions — a free-run
    post loop would outrun the fault window.  ``scripts/perfgate.py``
    gates ``adapt_recovery``.
    """
    from repro.cluster import lassen
    from repro.core import MCRConfig, TuningTable
    from repro.core.config import AdaptiveConfig
    from repro.sim import Simulator
    from repro.sim.faults import FaultSpec

    system = lassen()
    world_size, ops, tail_ops = 16, 150, 40
    nbytes = 1 << 20

    def tail_us(adaptive: bool):
        table = TuningTable(system=system.name)
        table.add("allreduce", world_size, nbytes, "nccl")
        faults = FaultSpec.parse("link=20000:inf:4.0:backend=nccl")

        def main(ctx):
            config = MCRConfig()
            if adaptive:
                config.adaptive = AdaptiveConfig(
                    enabled=True, min_samples=5, explore_ops=3, drift_ratio=1.5
                )
            comm = MCRCommunicator(
                ctx,
                ["nccl", "mvapich2-gdr"],
                config=config,
                tuning_table=table,
                comm_id="adapt-bench",
            )
            x = ctx.virtual_tensor(nbytes // 4)
            t_tail = 0.0
            for i in range(ops):
                if i == ops - tail_ops:
                    t_tail = ctx.now
                comm.all_reduce("auto", x, async_op=True).synchronize()
            tail = ctx.now - t_tail
            snap = comm.retuner.snapshot() if comm.retuner is not None else None
            comm.finalize()
            return tail, snap

        result = Simulator(world_size, system=system, faults=faults).run(main)
        return (
            max(r[0] for r in result.rank_results),
            result.rank_results[0][1],
        )

    static_us, _ = tail_us(adaptive=False)
    adaptive_us, snap = tail_us(adaptive=True)
    cell = snap["cells"]["allreduce/%d" % nbytes]
    return {
        "adapt_recovery": (
            round(static_us / adaptive_us, 6) if adaptive_us > 0 else 0.0
        ),
        "sim_static_us": round(static_us, 3),
        "sim_adaptive_us": round(adaptive_us, 3),
        "sim_final_pick": cell["current"],
        "sim_retunes": snap["stats"]["retune"],
        "sim_drifts": snap["stats"]["drift"],
    }


@scenario("dsmoe_step")
def dsmoe_step() -> dict:
    """One measured DS-MoE step at 64 ranks under a mixed plan: the
    end-to-end composition (model, plan dispatch, rendezvous, wire-lane
    contention) that Figure 8 runs dozens of times."""
    from repro.cluster import lassen
    from repro.models import BackendPlan, DSMoEModel, Trainer

    trainer = Trainer(lassen(), steps=2, warmup=1)
    result = trainer.run(DSMoEModel(), 64, BackendPlan.mixed(label="MCR-DL"))
    return {
        "sim_step_us": result.step_time_us,
        "sim_samples_per_sec": result.samples_per_sec,
    }


@scenario("tuned_step")
def tuned_step() -> dict:
    """One DS-MoE step on the ``"auto"`` path (Fig. 8/9's MCR-DL-T).

    ``sim_backends`` is the order the plan hands the communicator, which
    default-backend ops follow: building it from a set once made the
    step time depend on ``PYTHONHASHSEED``.
    """
    from repro.cluster import lassen
    from repro.core import Tuner
    from repro.models import BackendPlan, DSMoEModel, Trainer

    system = lassen()
    tuner = Tuner(system, ["nccl", "mvapich2-gdr", "msccl"], mode="analytic")
    plan = BackendPlan.tuned(tuner.build_table(world_sizes=[16]).table)
    result = Trainer(system, steps=2, warmup=1).run(DSMoEModel(), 16, plan)
    return {
        "sim_step_us": result.step_time_us,
        "sim_backends": plan.backends(),
    }


@scenario("obs_overhead")
def obs_overhead() -> dict:
    """Observability cost on the timed path (paper C3's overhead budget).

    Runs the same training measurement twice — plain, then with tracing
    and metrics both on — and reports the *simulated* step-time delta.
    Observers only record, they never sleep, so the delta must be zero;
    ``scripts/perfgate.py`` gates it at <= 5%.
    """
    from repro.cluster import lassen
    from repro.models import BackendPlan, DSMoEModel, Trainer

    plain = Trainer(lassen(), steps=2, warmup=1).run(
        DSMoEModel(), 16, BackendPlan.mixed(label="MCR-DL")
    )
    instrumented = Trainer(lassen(), steps=2, warmup=1, trace=True, metrics=True).run(
        DSMoEModel(), 16, BackendPlan.mixed(label="MCR-DL")
    )
    overhead_pct = (
        (instrumented.step_time_us - plain.step_time_us) / plain.step_time_us * 100.0
        if plain.step_time_us > 0
        else 0.0
    )
    recorded = len(instrumented.metrics.events) if instrumented.metrics else 0
    return {
        "events_recorded": recorded,
        "sim_step_us": plain.step_time_us,
        "sim_instrumented_step_us": instrumented.step_time_us,
        "sim_overhead_pct": round(overhead_pct, 6),
    }


# ----------------------------------------------------------------------
# running and recording
# ----------------------------------------------------------------------


def run_scenarios(
    names: Optional[list[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the requested scenarios (default: all) once each, in process.

    Returns ``{name: metrics}``.  Once is enough: every value is
    deterministic, and the gate compares against the committed ledger.
    """
    chosen = list(SCENARIOS) if names is None else list(names)
    unknown = [n for n in chosen if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s) {unknown}; have {sorted(SCENARIOS)}")
    out: dict[str, dict] = {}
    for name in chosen:
        out[name] = SCENARIOS[name]()
        if progress is not None:
            sims = json.dumps(fingerprint(out[name]), sort_keys=True)
            progress(f"{name:<24} {sims}")
    return out


def fingerprint(metrics: dict) -> dict:
    """The simulated part of a metrics dict: what must never move."""
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


def load(path: str) -> dict:
    """The ``{name: metrics}`` rows of the ledger at ``path``."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data["scenarios"]


def save(path: str, scenarios: dict) -> None:
    """Record ``scenarios`` in the ledger at ``path``, keeping the rows
    of scenarios that were not re-run."""
    try:
        rows = load(path)
    except FileNotFoundError:
        rows = {}
    rows.update(scenarios)
    data = {"schema": SCHEMA_VERSION, "scenarios": rows}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
