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

from repro.core.exceptions import CommTimeoutError, MCRError
from repro.sim.engine import Flag
from repro.sim.graph import GpuOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RankContext


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
        "_waited",
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
        self._waited = False

    def wait(self, backend: Optional[str] = None) -> None:
        """Order the caller's subsequent work after this operation.

        ``backend`` is accepted for paper-API compatibility
        (``h.wait('nccl')``) and validated if given.
        """
        if backend is not None and backend != self.backend_name:
            raise MCRError(
                f"handle belongs to backend {self.backend_name!r}, "
                f"wait called with {backend!r}"
            )
        self._waited = True
        if self.stream_semantics and self.member_node is not None:
            # fine-grained CUDA-event sync: the default stream waits on
            # the event recorded after the comm kernel (Fig. 4b step 4);
            # the host continues immediately.
            self.ctx.gpu.default_stream.gate_on(self.member_node)
            return
        # host-synchronized (MPI_Wait); the decorated reason is only worth
        # building when the flag is still pending (it can actually park)
        self._host_block("wait")

    def synchronize(self) -> None:
        """Block the *host* until the operation completes."""
        self._waited = True
        self._host_block("synchronize")

    def _host_block(self, verb: str) -> None:
        flag = self.flag
        if flag.ready_time is None:
            if self.deadline_us is not None:
                ctx = self.ctx
                if not ctx.engine.wait_flag_deadline(
                    flag, ctx.now + self.deadline_us, reason=f"{verb}({self.label})"
                ):
                    detail = (
                        self.timeout_info()
                        if self.timeout_info is not None
                        else "operation still pending"
                    )
                    raise CommTimeoutError(
                        f"{self.label} on {self.backend_name} exceeded the "
                        f"{self.deadline_us:.0f}us deadline on rank {ctx.rank}: "
                        f"{detail}",
                        label=self.label,
                        rank=ctx.rank,
                        deadline_us=self.deadline_us,
                        detail=detail,
                    )
                return
            self.ctx.engine.wait_flag(flag, reason=f"{verb}({self.label})")
        else:
            self.ctx.engine.wait_flag(flag, reason=self.label)

    def is_completed(self) -> bool:
        """Non-blocking completion test (MPI_Test analogue)."""
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
