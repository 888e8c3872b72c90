"""Horovod-like baseline.

Data-parallel focus (paper §III-B): Allreduce / Allgather / Broadcast
only, with built-in tensor fusion, and an *experimental* mixed-backend
mode without deadlock avoidance (Table I) — modeled by running mixed
traffic under the naive synchronization scheme, so misordered
cross-backend programs genuinely deadlock.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.ops import ReduceOp
from repro.core.api import create_communicator
from repro.core.exceptions import MCRError
from repro.core.handles import WorkHandle
from repro.ext.fusion import FusionConfig, TensorFusion
from repro.models.plan import PROFILES
from repro.sim.process import RankContext
from repro.tensor import SimTensor


class UnsupportedOpError(MCRError):
    """Operation outside Horovod's data-parallel surface (Table I)."""


class HorovodLike:
    """Horovod: allreduce-centric data-parallel communication."""

    def __init__(
        self,
        ctx: RankContext,
        backend: str = "nccl",
        fusion: Optional[FusionConfig] = None,
        experimental_mixed: Optional[list[str]] = None,
    ):
        # Horovod's dispatch is C++-backed like MCR-DL but adds a
        # coordination round (its background-thread negotiation protocol)
        config = PROFILES["horovod"].to_config()
        backends = [backend]
        if experimental_mixed:
            backends = list(dict.fromkeys([backend, *experimental_mixed]))
            # "experimentally supports mixed communications without
            # deadlock-avoidance support" (§II-A): naive synchronization
            config.synchronization = "naive"
        self.backend = backend
        self._comm = create_communicator(ctx, backends, config=config, comm_id="horovod")
        self._fusion = TensorFusion(self._comm, fusion or FusionConfig())

    def allreduce(
        self, tensor: SimTensor, op: ReduceOp = ReduceOp.AVG, backend: Optional[str] = None
    ):
        """Fused allreduce (Horovod averages gradients by default)."""
        return self._fusion.all_reduce(backend or self.backend, tensor, op=op)

    def allgather(self, output: SimTensor, input: SimTensor) -> None:
        self._comm.all_gather(self.backend, output, input)

    def broadcast(self, tensor: SimTensor, root: int = 0) -> None:
        self._comm.bcast(self.backend, tensor, root)

    def barrier(self) -> None:
        self._comm.barrier(self.backend)

    def flush(self) -> None:
        """Flush pending fusion buffers (Horovod's cycle end)."""
        self._fusion.flush_all()

    def synchronize(self) -> None:
        self._fusion.flush_all()
        self._comm.synchronize()

    def finalize(self) -> None:
        self._fusion.flush_all()
        self._comm.finalize()

    @property
    def fusion_stats(self) -> dict:
        return dict(self._fusion.stats)

    # -- Table I gaps --------------------------------------------------------

    def send(self, *args, **kwargs):
        raise UnsupportedOpError("Horovod has no point-to-point operations (Table I)")

    recv = send

    def alltoall(self, *args, **kwargs):
        raise UnsupportedOpError(
            "Horovod's collective surface is allreduce/allgather/broadcast (Table I)"
        )

    all_to_all_single = alltoall

    def gatherv(self, *args, **kwargs):
        raise UnsupportedOpError("Horovod has no vectored collectives (Table I)")

    scatterv = gatherv
