"""PyTorch-distributed-like baseline.

Models ``torch.distributed``'s communication layer as the paper
characterizes it (Table I, Fig. 7):

* exactly **one** backend per process group — no mixing;
* **no vectored collectives** (the productivity gap motivating MCR-DL's
  Option-1/Option-2 discussion in §I-A);
* non-blocking operations for the **NCCL backend only**;
* a heavier Python dispatch path: ~18% overhead over OMB for small
  messages, converging to ~4% for large ones (Fig. 7), modeled as a
  larger fixed per-call cost plus a larger proportional term.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.backends.base import backend_class, canonical_name
from repro.backends.ops import ReduceOp
from repro.core.api import create_communicator
from repro.core.config import MCRConfig
from repro.core.exceptions import MCRError
from repro.core.handles import WorkHandle
from repro.models.plan import PROFILES
from repro.sim.process import RankContext
from repro.tensor import SimTensor


class UnsupportedOpError(MCRError):
    """The framework does not offer this operation (Table I gap)."""


class TorchDistributed:
    """``torch.distributed`` built against a single backend."""

    def __init__(
        self,
        ctx: RankContext,
        backend: str,
        config: Optional[MCRConfig] = None,
    ):
        self.backend = canonical_name(backend)
        self._nccl_like = backend_class(self.backend).properties.stream_aware
        # a copy: the caller's config stays as the caller built it; the
        # Fig. 7 overhead profile over MVAPICH2-GDR
        profile = PROFILES["torch-distributed"]
        config = replace(
            config or MCRConfig(),
            dispatch_overhead_us=profile.dispatch_overhead_us,
            dispatch_fraction=profile.dispatch_fraction,
        )
        self._comm = create_communicator(ctx, [self.backend], config=config, comm_id="torch")

    # -- capability gates ----------------------------------------------------

    def _check_async(self, async_op: bool) -> None:
        if async_op and not self._nccl_like:
            raise UnsupportedOpError(
                "torch.distributed supports non-blocking collectives for the "
                "NCCL backend only (Table I)"
            )

    # -- supported surface ------------------------------------------------------

    def all_reduce(self, tensor: SimTensor, op: ReduceOp = ReduceOp.SUM, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.all_reduce(self.backend, tensor, op, async_op)

    def broadcast(self, tensor: SimTensor, root: int = 0, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.bcast(self.backend, tensor, root, async_op)

    def all_gather(self, output: SimTensor, input: SimTensor, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.all_gather(self.backend, output, input, async_op)

    def reduce_scatter(self, output: SimTensor, input: SimTensor, op: ReduceOp = ReduceOp.SUM, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.reduce_scatter(self.backend, output, input, op, async_op)

    def all_to_all_single(self, output: SimTensor, input: SimTensor, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.all_to_all_single(self.backend, output, input, async_op)

    def all_to_all(self, output: Sequence[SimTensor], input: Sequence[SimTensor], async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.all_to_all(self.backend, output, input, async_op)

    def reduce(self, tensor: SimTensor, root: int = 0, op: ReduceOp = ReduceOp.SUM, async_op: bool = False) -> Optional[WorkHandle]:
        self._check_async(async_op)
        return self._comm.reduce(self.backend, tensor, root, op, async_op)

    def send(self, tensor: SimTensor, dst: int, tag: int = 0) -> None:
        self._comm.send(self.backend, tensor, dst, tag)

    def recv(self, tensor: SimTensor, src: int, tag: int = 0) -> None:
        self._comm.recv(self.backend, tensor, src, tag)

    def barrier(self) -> None:
        self._comm.barrier(self.backend)

    def synchronize(self) -> None:
        self._comm.synchronize()

    def finalize(self) -> None:
        self._comm.finalize()

    # -- Table I gaps -----------------------------------------------------------

    def gather(self, *args, **kwargs):
        raise UnsupportedOpError("torch.distributed: gather on GPU tensors is not supported by the NCCL backend (Table I)")

    def gatherv(self, *args, **kwargs):
        raise UnsupportedOpError("torch.distributed has no vectored collectives (Table I)")

    scatterv = gatherv
    all_gatherv = gatherv
    all_to_allv = gatherv
