"""Backend plans, framework profiles, and the model-facing comm driver.

A :class:`BackendPlan` is the experiment axis of Figures 8-10: which
backend serves which operation.

* ``pure("nccl")`` / ``pure("mvapich2-gdr")`` — the single-backend
  baselines;
* ``mixed(...)`` — coarse-grained mix-and-match (one backend per
  collective), plotted as **MCR-DL**;
* ``tuned(table)`` — fine-grained mix-and-match (one backend per
  (collective, message size) pair via the tuning table), plotted as
  **MCR-DL-T**.

A :class:`FrameworkProfile` is the experiment axis of Figure 11: the
overhead/capability profile of the communication layer issuing the ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.ops import OpFamily, ReduceOp
from repro.core.comm import MCRCommunicator
from repro.core.config import AdaptiveConfig, MCRConfig
from repro.core.handles import WorkHandle
from repro.core.tuning import TuningTable
from repro.ext.fusion import FusionConfig, TensorFusion
from repro.sim.process import RankContext
from repro.tensor import SimTensor


@dataclass(frozen=True)
class BackendPlan:
    """Maps operation families to backend names."""

    label: str
    default: str
    per_op: dict = field(default_factory=dict)
    tuning_table: Optional[TuningTable] = None

    @classmethod
    def pure(cls, backend: str, label: Optional[str] = None) -> "BackendPlan":
        return cls(label=label or backend, default=backend)

    @classmethod
    def mixed(
        cls,
        allreduce: str = "nccl",
        alltoall: str = "mvapich2-gdr",
        label: str = "MCR-DL",
        **other_ops: str,
    ) -> "BackendPlan":
        per_op = {"allreduce": allreduce, "alltoall": alltoall, **other_ops}
        return cls(label=label, default=allreduce, per_op=per_op)

    @classmethod
    def tuned(cls, table: TuningTable, label: str = "MCR-DL-T") -> "BackendPlan":
        return cls(label=label, default="auto", tuning_table=table)

    def backend_for(self, family: "OpFamily | str") -> str:
        return self.per_op.get(str(family), self.default)

    def backends(self) -> list[str]:
        """Every concrete backend the plan can dispatch to."""
        names = [self.default, *self.per_op.values()]
        if self.default == "auto":
            # a tuned plan may route to anything in its table; table
            # order, not a set: this becomes the communicator's backend
            # insertion order, which default-backend ops follow
            tuned = [
                b
                for scales in (self.tuning_table.entries if self.tuning_table else {}).values()
                for buckets in scales.values()
                for b in buckets.values()
            ]
            names = [*tuned, *self.per_op.values()]
            if not names:
                raise ValueError("tuned plan has an empty tuning table")
        return list(dict.fromkeys(n for n in names if n != "auto"))


@dataclass(frozen=True)
class FrameworkProfile:
    """Overhead/capability profile of one communication layer (Fig. 11)."""

    name: str
    dispatch_overhead_us: float
    dispatch_fraction: float
    supports_mixing: bool
    supports_fusion: bool
    host_staging: bool

    def to_config(self) -> MCRConfig:
        config = MCRConfig()
        config.dispatch_overhead_us = self.dispatch_overhead_us
        config.dispatch_fraction = self.dispatch_fraction
        config.force_host_staging = self.host_staging
        return config


PROFILES: dict[str, FrameworkProfile] = {
    "mcr-dl": FrameworkProfile(
        name="MCR-DL",
        dispatch_overhead_us=1.2,
        dispatch_fraction=0.01,
        supports_mixing=True,
        supports_fusion=True,
        host_staging=False,
    ),
    "torch-distributed": FrameworkProfile(
        name="PyTorch Distributed",
        dispatch_overhead_us=9.0,
        dispatch_fraction=0.035,
        supports_mixing=False,
        supports_fusion=True,
        host_staging=False,
    ),
    "horovod": FrameworkProfile(
        name="Horovod",
        dispatch_overhead_us=4.5,
        dispatch_fraction=0.02,
        supports_mixing=False,
        supports_fusion=True,
        host_staging=False,
    ),
    "mpi4py": FrameworkProfile(
        name="mpi4py",
        dispatch_overhead_us=5.0,
        dispatch_fraction=0.03,
        supports_mixing=False,
        supports_fusion=False,
        host_staging=True,
    ),
}


class CommDriver:
    """What a workload model talks to: a plan- and profile-aware wrapper
    over one MCR communicator, with optional gradient fusion."""

    def __init__(
        self,
        ctx: RankContext,
        plan: BackendPlan,
        profile: FrameworkProfile = PROFILES["mcr-dl"],
        fusion: Optional[FusionConfig] = None,
        enable_logging: bool = False,
        ranks: Optional[Sequence[int]] = None,
        comm_id: Optional[str] = None,
        adaptive: "Optional[AdaptiveConfig]" = None,
    ):
        self.ctx = ctx
        self.plan = plan
        self.profile = profile
        self._enable_logging = enable_logging
        self._fusion_config = fusion
        self._adaptive = adaptive
        config = profile.to_config()
        config.enable_logging = enable_logging
        if adaptive is not None:
            # online adaptive dispatch (repro.core.adaptive); the
            # communicator clones the plan's table so retuning never
            # mutates the shared BackendPlan artifact
            config.adaptive = adaptive
        backends = plan.backends()
        if not profile.supports_mixing and len(backends) > 1:
            # single-backend frameworks run everything on the plan default
            backends = [plan.backend_for("allreduce")]
        self.comm = MCRCommunicator(
            ctx,
            backends,
            config=config,
            tuning_table=plan.tuning_table,
            comm_id=comm_id or f"driver:{profile.name}:{plan.label}",
            ranks=ranks,
        )
        self._single_backend = backends[0] if len(backends) == 1 else None
        self.fusion = (
            TensorFusion(self.comm, fusion) if profile.supports_fusion and fusion else None
        )
        self._subgroups: dict[tuple, "CommDriver"] = {}

    def subgroup(self, ranks: Sequence[int], comm_id: str) -> "CommDriver":
        """A driver over a process group (TP pair, DP slice, ...), sharing
        this driver's plan/profile; drained by this driver's step_sync."""
        key = (comm_id, tuple(ranks))
        if key not in self._subgroups:
            self._subgroups[key] = CommDriver(
                self.ctx,
                self.plan,
                profile=self.profile,
                fusion=self._fusion_config,
                enable_logging=self._enable_logging,
                ranks=ranks,
                comm_id=comm_id,
                adaptive=self._adaptive,
            )
        return self._subgroups[key]

    def _backend(self, family: str) -> str:
        if self._single_backend is not None:
            return self._single_backend
        return self.plan.backend_for(family)

    # -- operations models use -------------------------------------------------

    def grad_all_reduce(self, tensor: SimTensor) -> "WorkHandle":
        """Gradient allreduce: fused when the framework supports it."""
        backend = self._backend("allreduce")
        if self.fusion is not None:
            return self.fusion.all_reduce(backend, tensor, op=ReduceOp.SUM)
        return self.comm.all_reduce(backend, tensor, op=ReduceOp.SUM, async_op=True)

    def all_reduce(self, tensor: SimTensor, async_op: bool = False):
        return self.comm.all_reduce(self._backend("allreduce"), tensor, async_op=async_op)

    def all_to_all_single(self, output: SimTensor, input: SimTensor, async_op: bool = False):
        return self.comm.all_to_all_single(
            self._backend("alltoall"), output, input, async_op=async_op
        )

    def all_to_allv(self, output, input, scounts, sdispls, rcounts, rdispls, async_op=False):
        return self.comm.all_to_allv(
            self._backend("alltoall"), output, input, scounts, sdispls, rcounts, rdispls,
            async_op=async_op,
        )

    def reduce_scatter(self, output: SimTensor, input: SimTensor, async_op: bool = False):
        return self.comm.reduce_scatter(
            self._backend("reduce_scatter"), output, input, async_op=async_op
        )

    def all_gather(self, output: SimTensor, input: SimTensor, async_op: bool = False):
        return self.comm.all_gather(self._backend("allgather"), output, input, async_op=async_op)

    def bcast(self, tensor: SimTensor, root: int = 0):
        return self.comm.bcast(self._backend("broadcast"), tensor, root)

    def barrier(self) -> None:
        self.comm.barrier(self._backend("barrier"))

    def step_sync(self) -> None:
        """End-of-step: flush fusion, drain all backends, join the GPU."""
        if self.fusion is not None:
            self.fusion.flush_all()
        for child in self._subgroups.values():
            child.step_sync()
        self.comm.synchronize()
        self.ctx.device_synchronize()

    def finalize(self) -> None:
        if self.fusion is not None:
            self.fusion.flush_all()
        for child in self._subgroups.values():
            child.finalize()
        self.comm.finalize()
