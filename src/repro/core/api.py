"""The module-level MCR-DL API (paper Listing 1).

Because each simulated rank runs on its own thread, the functional API
binds to "this process" through a thread-local — so user code inside a
:class:`~repro.sim.Simulator` SPMD function reads exactly like the
paper's examples (Listings 3 and 4)::

    import repro.core.api as mcr_dl

    def main(ctx):
        mcr_dl.init(["nccl", "mvapich2-gdr"])
        x = ctx.rand(1024)
        y = ctx.rand(1024)
        h1 = mcr_dl.all_reduce("nccl", x, async_op=True)
        h2 = mcr_dl.all_reduce("mvapich2-gdr", y, async_op=True)
        h1.wait(); h2.wait()
        mcr_dl.finalize()

Every function takes the backend name first — a registered backend
string (``"nccl"``, ``"mvapich2-gdr"``, ``"msccl"``, ...) or ``"auto"``
to dispatch through the tuning table (§V-F).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.backends.base import available_backends as _available_backends
from repro.backends.ops import ReduceOp
from repro.core.comm import MCRCommunicator
from repro.core.config import MCRConfig
from repro.core.exceptions import MCRError
from repro.core.handles import WorkHandle
from repro.core.protocols import CommCore
from repro.core.tuning import TuningTable
from repro.sim.process import RankContext
from repro.tensor import SimTensor

_tls = threading.local()


def _bind_context(ctx: RankContext) -> None:
    """Attach the current rank's context to this thread (the Simulator
    calls this before invoking the user function)."""
    _tls.ctx = ctx
    _tls.comm = None


def _unbind_context() -> None:
    _tls.ctx = None
    _tls.comm = None


def current_context() -> RankContext:
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise MCRError(
            "no rank context bound to this thread — the functional API can "
            "only be used inside a Simulator-run SPMD function"
        )
    return ctx


def _comm() -> MCRCommunicator:
    comm = getattr(_tls, "comm", None)
    if comm is None:
        raise MCRError("mcr_dl.init() has not been called on this rank")
    return comm


# ----------------------------------------------------------------------
# lifecycle (Listing 1 head)
# ----------------------------------------------------------------------


def available() -> list[str]:
    """Canonical names of all registered backend classes."""
    return _available_backends()


def create_communicator(
    ctx: RankContext,
    backends: "str | Sequence[str]",
    config: Optional[MCRConfig] = None,
    tuning_table: Optional[TuningTable] = None,
    comm_id: str = "world",
    ranks: Optional[Sequence[int]] = None,
) -> CommCore:
    """Construct a concrete communicator for an explicit rank context.

    This is the object-API entry point for framework shims and
    benchmarks: they never import the concrete
    :class:`~repro.core.comm.MCRCommunicator` class (enforced by
    ``scripts/lint.py``).  The return type,
    :class:`~repro.core.protocols.CommCore`, covers identity, lifecycle
    and the extension hooks; the ops its holders call are
    ``MCRCommunicator``'s methods.
    """
    return MCRCommunicator(
        ctx,
        backends,
        config=config,
        tuning_table=tuning_table,
        comm_id=comm_id,
        ranks=ranks,
    )


def init(
    backends: "str | Sequence[str]",
    config: Optional[MCRConfig] = None,
    tuning_table: Optional[TuningTable] = None,
) -> MCRCommunicator:
    """Initialize MCR-DL on this rank with one or more backends."""
    ctx = current_context()
    if getattr(_tls, "comm", None) is not None:
        raise MCRError("mcr_dl.init() called twice on this rank")
    _tls.comm = MCRCommunicator(
        ctx, backends, config=config, tuning_table=tuning_table
    )
    return _tls.comm


def finalize(backends: "str | Sequence[str] | None" = None) -> None:
    _comm().finalize(backends)
    _tls.comm = None


def synchronize(backends: "str | Sequence[str] | None" = None) -> None:
    _comm().synchronize(backends)


def get_backends() -> list[str]:
    return _comm().get_backends()


def get_size(backend: Optional[str] = None) -> int:
    return _comm().get_size(backend)


def get_rank(backend: Optional[str] = None) -> int:
    return _comm().get_rank(backend)


def set_tuning_table(table: TuningTable) -> None:
    """Install/replace the tuning table consulted by the "auto" backend.

    Every "auto" dispatch plan recompiles against the new table on its
    next use; explicit-backend plans never read the table and stay.
    """
    _comm().tuning_table = table


def invalidate_plans(reason: str = "") -> None:
    """Force recompilation of this rank's compiled dispatch plans.

    Rarely needed — tuning-table installs, in-place table edits,
    quarantines, and codec/synchronization changes invalidate
    automatically — but required after out-of-band mutations the
    communicator snapshots at compile time (e.g. editing
    ``comm.config`` in place).
    """
    _comm().invalidate_plans(reason)


def new_group(ranks, comm_id: str) -> MCRCommunicator:
    """Create a process group over a rank subset (``torch.distributed
    new_group`` analogue).  Only members may call; all members must pass
    the same ``ranks`` and ``comm_id``.  Returns an
    :class:`MCRCommunicator` with group-local rank/size semantics."""
    parent = _comm()
    return MCRCommunicator(
        current_context(),
        list(parent.backends),
        config=parent.config,
        tuning_table=parent.tuning_table,
        comm_id=comm_id,
        ranks=ranks,
    )


# ----------------------------------------------------------------------
# point-to-point
# ----------------------------------------------------------------------


def send(backend: str, tensor: SimTensor, dst: int, tag: int = 0, async_op: bool = False):
    return _comm().send(backend, tensor, dst, tag, async_op)


def recv(backend: str, tensor: SimTensor, src: int, tag: int = 0, async_op: bool = False):
    return _comm().recv(backend, tensor, src, tag, async_op)


def isend(backend: str, tensor: SimTensor, dst: int, tag: int = 0) -> WorkHandle:
    return _comm().isend(backend, tensor, dst, tag)


def irecv(backend: str, tensor: SimTensor, src: int, tag: int = 0) -> WorkHandle:
    return _comm().irecv(backend, tensor, src, tag)


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------


def all_reduce(backend: str, tensor: SimTensor, op: ReduceOp = ReduceOp.SUM, async_op: bool = False):
    return _comm().all_reduce(backend, tensor, op, async_op)


def reduce(backend: str, tensor: SimTensor, root: int = 0, op: ReduceOp = ReduceOp.SUM, async_op: bool = False):
    return _comm().reduce(backend, tensor, root, op, async_op)


def bcast(backend: str, tensor: SimTensor, root: int = 0, async_op: bool = False):
    return _comm().bcast(backend, tensor, root, async_op)


broadcast = bcast


def all_gather(backend: str, output: SimTensor, input: SimTensor, async_op: bool = False):
    return _comm().all_gather(backend, output, input, async_op)


def all_gather_base(backend: str, output: SimTensor, input: SimTensor, async_op: bool = False):
    return _comm().all_gather_base(backend, output, input, async_op)


def reduce_scatter(backend: str, output: SimTensor, input: SimTensor, op: ReduceOp = ReduceOp.SUM, async_op: bool = False):
    return _comm().reduce_scatter(backend, output, input, op, async_op)


def all_to_all_single(backend: str, output: SimTensor, input: SimTensor, async_op: bool = False):
    return _comm().all_to_all_single(backend, output, input, async_op)


def all_to_all(backend: str, output: Sequence[SimTensor], input: Sequence[SimTensor], async_op: bool = False):
    return _comm().all_to_all(backend, output, input, async_op)


def gather(backend: str, input: SimTensor, output: Optional[SimTensor] = None, root: int = 0, async_op: bool = False):
    return _comm().gather(backend, input, output, root, async_op)


def scatter(backend: str, output: SimTensor, input: Optional[SimTensor] = None, root: int = 0, async_op: bool = False):
    return _comm().scatter(backend, output, input, root, async_op)


def gatherv(backend: str, input: SimTensor, output: Optional[SimTensor] = None, rcounts=None, displs=None, root: int = 0, async_op: bool = False):
    return _comm().gatherv(backend, input, output, rcounts, displs, root, async_op)


def scatterv(backend: str, output: SimTensor, input: Optional[SimTensor] = None, scounts=None, displs=None, root: int = 0, async_op: bool = False):
    return _comm().scatterv(backend, output, input, scounts, displs, root, async_op)


def all_gatherv(backend: str, output: SimTensor, input: SimTensor, rcounts=None, displs=None, async_op: bool = False):
    return _comm().all_gatherv(backend, output, input, rcounts, displs, async_op)


def all_to_allv(backend: str, output: SimTensor, input: SimTensor, scounts=None, sdispls=None, rcounts=None, rdispls=None, async_op: bool = False):
    return _comm().all_to_allv(backend, output, input, scounts, sdispls, rcounts, rdispls, async_op)


def barrier(backend: Optional[str] = None, async_op: bool = False):
    return _comm().barrier(backend, async_op)
