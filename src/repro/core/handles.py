"""Work handles for non-blocking operations.

A :class:`WorkHandle` is what every ``async_op=True`` call returns.  Its
``wait()`` follows the paper's semantics (§V-C/V-D):

* **stream-aware backends** (NCCL, MSCCL): ``wait()`` makes the *PyTorch
  default stream* wait on the CUDA event MCR-DL recorded after the
  communication kernel.  The host does **not** block — this is the
  property that makes mixed-backend programs deadlock-free.
* **host-synchronized backends** (MPI): ``wait()`` is an ``MPI_Wait`` —
  the host blocks until the request completes.

``synchronize()`` always blocks the host (the analogue of
``cudaEventSynchronize`` / ``MPI_Wait``); use it before reading tensor
*values* from the host side, exactly as with real CUDA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backends.base import canonical_name
from repro.core.exceptions import CommTimeoutError, MCRError
from repro.sim.engine import Flag
from repro.sim.graph import GpuOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RankContext


def host_block(
    ctx: "RankContext", flag: Flag, label: str, verb: str,
    deadline_us: Optional[float] = None, timeout_info=None,
) -> None:
    """Block the host until ``flag`` fires — the one rule behind
    :meth:`WorkHandle.wait`/:meth:`~WorkHandle.synchronize` and
    synchronous host-path ops.

    A wait that can park is tagged ``"<verb>(<label>)"``; with no
    deadline, an already-fired flag is a bare-label time advance.  A wait
    past the per-op deadline raises :class:`CommTimeoutError`, detailed
    by ``timeout_info()`` (rendezvous diagnostics) when given.
    """
    engine = ctx.engine
    if deadline_us is None:
        if flag.ready_time is None:
            engine.wait_flag(flag, reason=f"{verb}({label})")
        else:
            engine.wait_flag(flag, reason=label)
    elif not engine.wait_flag_deadline(
        flag, ctx.now + deadline_us, reason=f"{verb}({label})"
    ):
        detail = timeout_info() if timeout_info is not None else "operation still pending"
        raise CommTimeoutError(
            f"{label} exceeded the {deadline_us:.0f}us deadline on rank "
            f"{ctx.rank}: {detail}",
            label=label,
            rank=ctx.rank,
            deadline_us=deadline_us,
            detail=detail,
        )


class WorkHandle:
    """Completion handle for one posted communication operation."""

    __slots__ = (
        "ctx",
        "backend_name",
        "flag",
        "member_node",
        "stream_semantics",
        "label",
        "deadline_us",
        "timeout_info",
    )

    def __init__(
        self,
        ctx: "RankContext",
        backend_name: str,
        flag: Flag,
        member_node: Optional[GpuOp],
        stream_semantics: bool,
        label: str,
        *,
        deadline_us: Optional[float] = None,
        timeout_info=None,
    ):
        self.ctx = ctx
        self.backend_name = backend_name
        self.flag = flag
        self.member_node = member_node
        self.stream_semantics = stream_semantics
        self.label = label
        #: per-op deadline (MCRConfig.op_deadline_us): host-blocking waits
        #: that exceed it raise CommTimeoutError instead of hanging
        self.deadline_us = deadline_us
        #: zero-arg callable producing rendezvous diagnostics at timeout
        self.timeout_info = timeout_info

    def wait(self, backend: Optional[str] = None) -> None:
        """Order the caller's subsequent work after this operation.

        ``backend`` is accepted for paper-API compatibility
        (``h.wait('nccl')``) and validated if given: any spelling of the
        flat backend that ran the op (``"NCCL"``, ``"mvapich2"``).  A
        dispatch spelling (``"auto"``, ``hier:*``) names no backend and
        raises :class:`MCRError`.
        """
        if backend is not None and canonical_name(backend) != self.backend_name:
            raise MCRError(
                f"handle belongs to backend {self.backend_name!r}, "
                f"wait called with {backend!r}"
            )
        if self.stream_semantics and self.member_node is not None:
            # fine-grained CUDA-event sync: the default stream waits on
            # the event recorded after the comm kernel (Fig. 4b step 4);
            # the host continues immediately.
            self.ctx.gpu.default_stream.gate_on(self.member_node)
            return
        # host-synchronized (MPI_Wait)
        host_block(self.ctx, self.flag, self.label, "wait", self.deadline_us, self.timeout_info)

    def synchronize(self) -> None:
        """Block the *host* until the operation completes."""
        host_block(
            self.ctx, self.flag, self.label, "synchronize", self.deadline_us, self.timeout_info
        )

    def is_completed(self) -> bool:
        """Non-blocking completion test (MPI_Test analogue)."""
        self.ctx.engine.settle()
        return self.flag.is_set and self.flag.ready_time <= self.ctx.now

    @property
    def completion_time(self) -> Optional[float]:
        """Completion timestamp if already resolved, else None."""
        return self.flag.ready_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkHandle({self.label!r} on {self.backend_name})"


class CompletedHandle(WorkHandle):
    """Handle for a trivially complete op (world_size == 1 fast path)."""

    def __init__(self, ctx: "RankContext", backend_name: str, label: str):
        flag = ctx.engine.new_flag(label)
        flag.fire(ctx.now)
        super().__init__(ctx, backend_name, flag, None, False, label)
