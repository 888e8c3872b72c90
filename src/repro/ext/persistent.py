"""Persistent collectives (paper §V-E's named future optimization).

MPI-4 style persistent operations: the argument list is validated and
the dispatch plan negotiated **once** at initialization, then each
``start()`` re-posts the same operation with most of the per-call
dispatch cost amortized away.  For DL training — the same gradient
buckets reduced every step — this removes the host-side setup from the
steady state.

Implementation: initialization runs the public op with the
communicator's ``_post`` intercepted, capturing the op-table row and
arguments, prepares the call once (validated buffers, rendezvous meta,
datapath mover) and pre-compiles its
:class:`~repro.core.dispatch.CommPlan` in the communicator's dispatch
plan cache.  ``start()`` replays the prepared call through ``_post``, so
each start runs the same hook chain as a public call: it counts as one
adaptive op, and an ``"auto"`` or ``hier:*`` name whose plan routes to a
hierarchical composite (``plan.hier``) posts that composite at full
dispatch cost.  A flat start passes
``dispatch_scale=PERSISTENT_DISPATCH_SCALE`` — a per-call argument, so
a start that raises (quarantined backend, fault storm) cannot leak a
discount into unrelated operations.  Plan invalidation (tuning-table
swaps, quarantines, codec changes) is handled by the cache itself: the
next start recompiles transparently.

Usage::

    op = PersistentCollective(comm, "all_reduce", "nccl", grad_bucket)
    for _ in range(steps):
        handle = op.start()
        ...
        handle.wait()
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.exceptions import MCRError
from repro.core.handles import WorkHandle
from repro.core.protocols import CommCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dispatch import CommPlan

#: fraction of the normal dispatch cost a persistent start still pays
#: (the request-start syscall; argument marshalling is gone)
PERSISTENT_DISPATCH_SCALE = 0.25

#: operations that may be made persistent (collectives with stable
#: argument lists; rooted/vectored ops qualify too)
_ALLOWED = {
    "all_reduce",
    "all_gather",
    "all_gather_base",
    "reduce_scatter",
    "all_to_all_single",
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "gatherv",
    "scatterv",
    "all_gatherv",
    "all_to_allv",
}


class PersistentCollective:
    """A pre-negotiated collective that can be started repeatedly."""

    def __init__(self, comm: CommCore, op_name: str, backend: str, *args, **kwargs):
        if op_name not in _ALLOWED:
            raise MCRError(
                f"{op_name!r} cannot be made persistent; allowed: {sorted(_ALLOWED)}"
            )
        if kwargs.pop("async_op", None) is not None:
            raise MCRError("persistent collectives are always started async")
        self.comm = comm
        self.op_name = op_name
        self.backend = backend
        self.starts = 0
        # run the public op with dispatch intercepted: arguments are
        # validated here (bad shapes/roots fail at init) and the prepared
        # call is kept for replay
        self._spec, self._args, self._prep = comm._capture_collective(
            getattr(comm, op_name), backend, *args, **kwargs
        )
        # resolve and pre-compile the plan once, so bad backend names fail
        # here, not at step N, and the first start() is steady-state
        comm._plan(self._spec, backend, self._prep.key, count=False)

    @property
    def plan(self) -> "CommPlan":
        """The currently pinned dispatch plan — the one the next
        :meth:`start` posts with (recompiled transparently after an
        invalidation).  Its ``hier`` is set while the name routes to a
        hierarchical composite."""
        return self.comm._plan(self._spec, self.backend, self._prep.key, count=False)

    def start(self) -> WorkHandle:
        """Post one instance of the operation; returns its handle."""
        self.starts += 1
        return self.comm._post(
            self._spec, self.backend, self._args, True, self._prep,
            PERSISTENT_DISPATCH_SCALE,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentCollective({self.op_name} on {self.backend}, "
            f"starts={self.starts})"
        )
