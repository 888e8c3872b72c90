"""SPMD simulation entry point.

:class:`Simulator` runs the same user function on every simulated rank —
the analogue of ``mpiexec -n <world_size> python script.py`` — on top of
the discrete-event engine, and returns per-rank results together with the
simulated elapsed time and (optionally) the full stream trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.metrics import EventLog, MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.process import RankContext
from repro.sim.streams import GPU
from repro.sim.trace import Tracer


@dataclass
class SimResult:
    """Outcome of one simulated SPMD run."""

    #: simulated wall time of the whole job in microseconds
    elapsed_us: float
    #: each rank's return value, indexed by rank
    rank_results: list[Any]
    #: the timeline trace (None unless tracing was enabled)
    tracer: Optional[Tracer] = None
    #: free-form counters populated by the runtime
    stats: dict = field(default_factory=dict)
    #: the full cross-rank shared dictionary (comm logger, rendezvous
    #: tables, ...) as it stood at job end
    shared: dict = field(default_factory=dict)
    #: the unified :class:`repro.obs.MetricsRegistry` (None unless
    #: observability was enabled via ``observe=``)
    metrics: Optional[Any] = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1e3

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6


class Simulator:
    """Runs an SPMD function across ``world_size`` simulated ranks.

    Args:
        world_size: number of ranks (one GPU each, densely packed onto
            the system's nodes).
        system: a :class:`repro.cluster.SystemSpec`; defaults to a small
            generic V100 cluster.
        trace: collect a full per-stream timeline (needed for the overlap
            tests and the breakdown figures; costs memory).
        seed: base RNG seed, combined with the rank for per-rank streams.
        kernel_launch_overhead_us: host cost of each kernel launch.
        max_events: engine safety valve against runaway simulations.
        stragglers: explicit {rank: compute slowdown factor} map.
        faults: a :class:`repro.sim.faults.FaultSpec`; its stragglers
            merge with the explicit map (explicit wins), its backend and
            link faults are injected deterministically via a
            :class:`~repro.sim.faults.FaultInjector` installed into the
            job's shared state.  None (the default) adds no fault
            machinery at all — simulated timings are bit-identical to a
            Simulator built without the argument.
        observe: enable the unified observability pipeline.  ``True``
            creates a fresh :class:`repro.obs.MetricsRegistry`; a
            registry instance can also be passed directly (to accumulate
            across runs).  The registry is installed into the job's
            shared state under ``"obs"``, where the job's event log,
            the communicators and the fusion engine find it.  Observers
            never sleep or alter dispatch, so simulated timings are
            bit-identical with and without this flag (perfgate-enforced).
    """

    def __init__(
        self,
        world_size: int,
        system: Any = None,
        trace: bool = False,
        seed: int = 0,
        kernel_launch_overhead_us: float = 4.0,
        max_events: int = 200_000_000,
        stragglers: "dict[int, float] | None" = None,
        faults: Any = None,
        observe: Any = False,
    ):
        if system is None:
            from repro.cluster import generic_cluster

            system = generic_cluster(max_nodes=max(64, (world_size + 3) // 4))
        system.validate_world_size(world_size)
        self.world_size = world_size
        self.system = system
        self.trace = trace
        self.seed = seed
        self.kernel_launch_overhead_us = kernel_launch_overhead_us
        self.max_events = max_events
        self.faults = faults
        self.metrics: Optional[MetricsRegistry] = None
        if observe:
            self.metrics = observe if isinstance(observe, MetricsRegistry) else MetricsRegistry()
        #: {rank: compute slowdown factor}; ranks not listed run at 1.0
        self.stragglers = dict(stragglers or {})
        if faults is not None:
            faults.validate()
            for rank, factor in faults.straggler_map(world_size).items():
                self.stragglers.setdefault(rank, factor)
        for rank, factor in self.stragglers.items():
            if not 0 <= rank < world_size:
                raise ValueError(f"straggler rank {rank} out of range")
            if not factor > 0:  # NaN too
                raise ValueError(f"straggler factor must be positive, got {factor}")

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``fn(ctx, *args, **kwargs)`` on every rank.

        Raises whatever any rank raised (first failure aborts the job),
        or :class:`repro.sim.DeadlockError` if all ranks block forever.
        """
        engine = Engine(max_events=self.max_events)
        shared: dict = {"stats": {}}
        if self.metrics is not None:
            shared["obs"] = self.metrics
        tracer = Tracer(EventLog.shared(shared)) if self.trace else None
        injector = None
        if self.faults is not None and (
            self.faults.backend_faults or self.faults.link_faults
        ):
            from repro.sim.faults import FaultInjector

            injector = FaultInjector(self.faults)
            shared["injector"] = injector
        contexts = []
        for rank in range(self.world_size):
            gpu = GPU(
                engine,
                rank,
                tracer=tracer,
                kernel_launch_overhead_us=self.kernel_launch_overhead_us,
            )
            ctx = RankContext(
                engine,
                rank,
                self.world_size,
                gpu,
                self.system,
                shared,
                seed=self.seed,
                compute_scale=self.stragglers.get(rank, 1.0),
            )
            contexts.append(ctx)

        results: list[Any] = [None] * self.world_size

        def make_body(ctx: RankContext) -> Callable[[], Any]:
            def body() -> Any:
                # bind the functional mcr_dl API (Listing 1) to this rank
                from repro.core import api as _mcr_api

                _mcr_api._bind_context(ctx)
                try:
                    results[ctx.rank] = fn(ctx, *args, **kwargs)
                    # a real job joins its device before exiting; this also
                    # surfaces dangling (never-matched) collectives as
                    # deadlocks instead of silently dropping them.
                    ctx.device_synchronize()
                finally:
                    _mcr_api._unbind_context()
                return results[ctx.rank]

            return body

        for ctx in contexts:
            engine.add_process(f"rank{ctx.rank}", make_body(ctx))
        if injector is not None and injector.link_schedule is not None:
            # hook the degradation window onto the topology for the run;
            # restored afterwards so a shared SystemSpec stays clean
            prior = getattr(self.system, "link_degradation", None)
            self.system.link_degradation = injector.link_schedule
            try:
                elapsed = engine.run()
            finally:
                self.system.link_degradation = prior
        else:
            elapsed = engine.run()
        if self.metrics is not None:
            for name, value in engine.stats().items():
                self.metrics.set_gauge(f"engine.{name}", value)
            self.metrics.set_gauge("sim.elapsed_us", elapsed)
            self.metrics.set_gauge("sim.world_size", self.world_size)
        return SimResult(
            elapsed_us=elapsed,
            rank_results=results,
            tracer=tracer,
            stats=shared["stats"],
            shared=shared,
            metrics=self.metrics,
        )
