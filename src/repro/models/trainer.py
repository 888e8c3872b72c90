"""Training-run harness: steps, timing, and communication breakdowns.

Runs a workload model under a backend plan + framework profile on a
simulated system and reports the numbers the paper's figures plot:
throughput (samples/s), step time, and per-op / per-backend
communication time from the logging extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ext.fusion import FusionConfig
from repro.models.plan import BackendPlan, CommDriver, FrameworkProfile, PROFILES
from repro.sim.simulator import SimResult, Simulator


@dataclass
class TrainResult:
    """Measured outcome of one training configuration."""

    model: str
    plan_label: str
    framework: str
    world_size: int
    steps: int
    step_time_us: float
    samples_per_sec: float
    #: average per-rank communication time per step, by op family (µs)
    comm_by_family: dict = field(default_factory=dict)
    #: average per-rank communication time per step, by backend (µs)
    comm_by_backend: dict = field(default_factory=dict)
    #: average per-rank GPU busy time per step by tracer category (µs);
    #: empty unless tracing was enabled
    busy_by_category: dict = field(default_factory=dict)
    #: fault-handling events during the measured steps, by kind
    #: (retry/failover/quarantine); empty for a healthy run
    fault_events: dict = field(default_factory=dict)
    #: the run's Tracer (None unless ``trace=True``)
    tracer: Optional[object] = None
    #: the run's :class:`repro.obs.MetricsRegistry` (None unless
    #: ``metrics=True``)
    metrics: Optional[object] = None
    #: the run's shared :class:`repro.ext.logging_ext.CommLogger`
    comm_log: Optional[object] = None
    #: dispatch plans compiled in the run, by every rank (a plan the
    #: ranks of a group share counts once; ``comm.plan_compiles``)
    plan_compiles: int = 0

    @property
    def comm_time_us(self) -> float:
        return sum(self.comm_by_family.values())

    @property
    def comm_fraction(self) -> float:
        """Exposed communication share of the step (union busy time when
        a trace is available, summed log durations otherwise)."""
        if self.busy_by_category:
            comm = self.busy_by_category.get("comm", 0.0)
            return min(1.0, comm / self.step_time_us) if self.step_time_us else 0.0
        return (
            min(1.0, self.comm_time_us / self.step_time_us) if self.step_time_us else 0.0
        )


class Trainer:
    """Runs N measured training steps of a model on a simulated system."""

    def __init__(
        self,
        system,
        steps: int = 3,
        warmup: int = 1,
        fusion: Optional[FusionConfig] = None,
        trace: bool = False,
        faults=None,
        metrics: bool = False,
        adaptive=None,
    ):
        if steps < 1:
            raise ValueError("need at least one measured step")
        self.system = system
        self.steps = steps
        self.warmup = warmup
        self.fusion = fusion
        self.trace = trace
        #: optional repro.sim.faults.FaultSpec injected into the run
        self.faults = faults
        #: enable the unified observability registry (repro.obs) with
        #: per-step attribution of every comm interval
        self.metrics = metrics
        #: optional repro.core.config.AdaptiveConfig enabling online
        #: adaptive dispatch (feedback-driven retuning + probation)
        self.adaptive = adaptive

    def run(
        self,
        model,
        world_size: int,
        plan: BackendPlan,
        profile: FrameworkProfile = PROFILES["mcr-dl"],
    ) -> TrainResult:
        steps, warmup = self.steps, self.warmup
        fusion = self.fusion
        adaptive = self.adaptive

        def rank_main(ctx):
            driver = CommDriver(
                ctx, plan, profile=profile, fusion=fusion, enable_logging=True,
                adaptive=adaptive,
            )
            logger = driver.comm.logger
            # step attribution (repro.obs): steps are numbered globally
            # 0..warmup+steps-1 across warmup and measured phases; the
            # "train.first_measured_step" gauge marks the boundary
            obs = ctx.shared.get("obs")
            for i in range(warmup):
                if obs is not None:
                    obs.begin_step(ctx.rank, i, ctx.now)
                model.run_step(ctx, driver)
                driver.step_sync()
                if obs is not None:
                    obs.end_step(ctx.rank, ctx.now)
            driver.barrier()
            if ctx.rank == 0 and logger is not None:
                logger.clear()  # measure steady state only
            t0 = ctx.now
            for i in range(steps):
                if obs is not None:
                    obs.begin_step(ctx.rank, warmup + i, ctx.now)
                model.run_step(ctx, driver)
                driver.step_sync()
                if obs is not None:
                    obs.end_step(ctx.rank, ctx.now)
            driver.barrier()
            elapsed = ctx.now - t0
            driver.finalize()
            return elapsed

        sim = Simulator(
            world_size,
            system=self.system,
            trace=self.trace,
            faults=self.faults,
            observe=self.metrics,
        )
        result: SimResult = sim.run(rank_main)
        if result.metrics is not None:
            result.metrics.set_gauge("train.first_measured_step", warmup)
            result.metrics.set_gauge("train.measured_steps", steps)
        elapsed_us = max(result.rank_results)
        step_time = elapsed_us / steps
        samples_per_sec = model.samples_per_step(world_size) / (step_time / 1e6)

        comm_by_family: dict = {}
        comm_by_backend: dict = {}
        fault_events: dict = {}
        shared_logger = result.shared.get("comm_logger")
        if shared_logger is not None:
            comm_by_family = {
                k: v / steps for k, v in shared_logger.total_time_by_family().items()
            }
            comm_by_backend = {
                k: v / steps for k, v in shared_logger.total_time_by_backend().items()
            }
            fault_events = shared_logger.event_counts()

        busy: dict = {}
        if result.tracer is not None:
            per_rank = result.tracer.category_totals(rank=0)
            busy = {k: v / (steps + warmup) for k, v in per_rank.items()}

        return TrainResult(
            model=model.name,
            plan_label=plan.label,
            framework=profile.name,
            world_size=world_size,
            steps=steps,
            step_time_us=step_time,
            samples_per_sec=samples_per_sec,
            comm_by_family=comm_by_family,
            comm_by_backend=comm_by_backend,
            busy_by_category=busy,
            fault_events=fault_events,
            tracer=result.tracer,
            metrics=result.metrics,
            comm_log=shared_logger,
            plan_compiles=result.shared["mcr_dl"].compiles,
        )


def scaling_efficiency(results: "list[TrainResult]") -> dict[int, float]:
    """Efficiency vs the smallest scale: T(p) / (T(p0) * p / p0)."""
    if not results:
        return {}
    ordered = sorted(results, key=lambda r: r.world_size)
    base = ordered[0]
    out = {}
    for r in ordered:
        ideal = base.samples_per_sec * (r.world_size / base.world_size)
        out[r.world_size] = r.samples_per_sec / ideal
    return out
