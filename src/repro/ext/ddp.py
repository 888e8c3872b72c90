"""DDP-style gradient synchronization over MCR-DL.

What `torch.nn.parallel.DistributedDataParallel` does for PyTorch,
packaged over the MCR-DL communicator: parameters are registered once,
assigned to fixed buckets in reverse registration order (gradients
become ready back-to-front during backward), and each bucket's
averaged allreduce is posted the moment its last gradient arrives —
overlapping communication with the rest of backward.

Because it sits on MCR-DL rather than one library, the reduction
backend can be an explicit name or ``"auto"`` for tuned selection, and
different buckets can land on different backends.

Usage::

    ddp = DistributedDataParallel(comm, backend="auto")
    for name, tensor in params:
        ddp.register_parameter(name, tensor)
    ddp.finalize_buckets()

    for step in range(steps):
        ...backward produces gradients back-to-front...
        for name in reversed(param_names):
            ddp.grad_ready(name)
        ddp.wait_all()   # gradients now averaged across ranks
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.backends.ops import ReduceOp
from repro.core.exceptions import MCRError
from repro.core.protocols import CommCore
from repro.ext.fusion import fused_all_reduce
from repro.tensor import SimTensor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.handles import WorkHandle

DEFAULT_BUCKET_BYTES = 25 * 1024 * 1024  # torch DDP's default


@dataclass
class _Bucket:
    names: list[str] = field(default_factory=list)
    tensors: list[SimTensor] = field(default_factory=list)
    nbytes: int = 0
    pending: set = field(default_factory=set)
    handle: Optional["WorkHandle"] = None


class DistributedDataParallel:
    """Bucketed, overlapped gradient averaging."""

    def __init__(
        self,
        comm: CommCore,
        backend: str = "auto",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        op: ReduceOp = ReduceOp.AVG,
    ):
        if bucket_bytes <= 0:
            raise MCRError("bucket_bytes must be positive")
        self.comm = comm
        self.backend = backend
        self.bucket_bytes = bucket_bytes
        self.op = op
        self._params: dict[str, SimTensor] = {}
        self._order: list[str] = []
        self._buckets: list[_Bucket] = []
        self._bucket_of: dict[str, int] = {}
        self._finalized = False

    # -- setup -----------------------------------------------------------

    def register_parameter(self, name: str, grad: SimTensor) -> None:
        """Register one parameter's gradient tensor (once, before
        finalize_buckets)."""
        if self._finalized:
            raise MCRError("cannot register parameters after finalize_buckets()")
        if name in self._params:
            raise MCRError(f"parameter {name!r} registered twice")
        self._params[name] = grad
        self._order.append(name)

    def finalize_buckets(self) -> None:
        """Freeze bucket assignment (reverse registration order, greedy
        fill up to bucket_bytes — torch DDP's scheme)."""
        if self._finalized:
            raise MCRError("finalize_buckets() called twice")
        if not self._params:
            raise MCRError("no parameters registered")
        current = _Bucket()
        for name in reversed(self._order):
            grad = self._params[name]
            if current.nbytes and current.nbytes + grad.nbytes() > self.bucket_bytes:
                self._buckets.append(current)
                current = _Bucket()
            current.names.append(name)
            current.tensors.append(grad)
            current.nbytes += grad.nbytes()
        self._buckets.append(current)
        for i, bucket in enumerate(self._buckets):
            for name in bucket.names:
                self._bucket_of[name] = i
        self._finalized = True
        self._reset_pending()

    def _reset_pending(self) -> None:
        for bucket in self._buckets:
            bucket.pending = set(bucket.names)
            bucket.handle = None

    def reset(self) -> None:
        """Abandon the current step after an error and rearm for a retry.

        A step that raises between :meth:`grad_ready` and
        :meth:`wait_all` leaves buckets half-drained and possibly holding
        posted handles; without this, the retried step's ``grad_ready``
        raises "marked ready twice" on every gradient the failed step
        already produced.  Any allreduce already in flight is completed
        first (SPMD: every rank posted it) so the retried step cannot
        race against the abandoned one, then the ready-tracking and
        handles are cleared.
        """
        if not self._finalized:
            raise MCRError("finalize_buckets() before reset()")
        for bucket in self._buckets:
            if bucket.handle is not None:
                bucket.handle.synchronize()
        self._reset_pending()

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def bucket_layout(self) -> list[list[str]]:
        """Parameter names per bucket, in reduction order."""
        return [list(b.names) for b in self._buckets]

    # -- per-step protocol --------------------------------------------------

    def grad_ready(self, name: str) -> None:
        """Mark one gradient produced; posts the bucket's allreduce when
        it was the last one missing."""
        if not self._finalized:
            raise MCRError("finalize_buckets() before grad_ready()")
        try:
            bucket = self._buckets[self._bucket_of[name]]
        except KeyError:
            raise MCRError(f"unknown parameter {name!r}") from None
        if name not in bucket.pending:
            raise MCRError(f"gradient {name!r} marked ready twice this step")
        bucket.pending.discard(name)
        if not bucket.pending:
            bucket.handle = fused_all_reduce(self.comm, self.backend, bucket.tensors, self.op)

    def wait_all(self) -> None:
        """Block until every bucket's reduction completed; resets the
        ready-tracking for the next step."""
        for bucket in self._buckets:
            if bucket.pending:
                raise MCRError(
                    f"wait_all() with gradients still missing: {sorted(bucket.pending)}"
                )
            if bucket.handle is not None:
                bucket.handle.synchronize()
        self._reset_pending()
