"""The ``CommCore`` protocol: the narrow contract extensions program to.

``repro.core.comm`` is layered (see ``docs/INTERNALS.md`` §15):

* **op surface** (`repro.core.comm`) — the 16 public collectives as
  declarative :class:`~repro.core.comm.CollectiveSpec` table rows plus
  the shared pre-dispatch hook chain;
* **dispatch** (`repro.core.dispatch`) — backend resolution and the
  compiled :class:`~repro.core.dispatch.CommPlan` cache, with backend
  health (`repro.core.health`) beneath it;
* **execution** (`repro.core.rendezvous`) — rendezvous matching and the
  collective/p2p spines over the simulation engine.

Everything *outside* the core — ``ext/`` extensions, ``frameworks/``
baselines, the tuner and the adaptive retuner — consumes this
:class:`CommCore` protocol instead of importing
the concrete :class:`~repro.core.comm.MCRCommunicator`, which removes
the historical import cycle (six-plus deferred ``if TYPE_CHECKING`` /
function-local imports) and is enforced by
``scripts/lint.py``.

The protocol has two sections:

* the **public surface** — Listing 1 of the paper: lifecycle,
  introspection, collectives, point-to-point;
* the **extension hooks** — a small, explicitly documented set of
  internal attributes that in-tree extensions legitimately reach into
  (the communicator's rendezvous ``Group``, the persistent-collective
  capture/plan/replay hooks, the communicator's ``health``).  They are underscored because
  user code must not touch them, but they are part of the stable
  contract for extension authors; anything not listed here is private
  to one layer and may change without notice (``scripts/lint.py``'s
  ``hooks`` rule fails CI on an undeclared one, and on a declared one
  that nothing outside the core uses).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.backends.ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import Backend
    from repro.core.config import CompressionConfig, MCRConfig
    from repro.core.handles import WorkHandle
    from repro.core.sync import SyncManager
    from repro.core.tuning import TuningTable
    from repro.sim.process import RankContext
    from repro.tensor import SimTensor


@runtime_checkable
class CommCore(Protocol):
    """Structural type of a per-rank MCR-DL communicator."""

    # -- identity / wiring (read-only for consumers) -----------------------

    ctx: "RankContext"
    config: "MCRConfig"
    comm_id: str
    backends: dict[str, "Backend"]
    group_ranks: list[int]
    #: group-local rank (``rank`` is the MPI-style alias)
    group_rank: int
    rank: int
    sync: "SyncManager"

    @property
    def world_size(self) -> int: ...

    @property
    def tuning_table(self) -> Optional["TuningTable"]: ...

    @property
    def retuner(self) -> Any: ...

    @property
    def plan_stats(self) -> dict: ...

    # -- lifecycle ---------------------------------------------------------

    def get_backends(self) -> list[str]: ...

    def get_size(self, backend: Optional[str] = None) -> int: ...

    def get_rank(self, backend: Optional[str] = None) -> int: ...

    def synchronize(self, backends: "str | Sequence[str] | None" = None) -> None: ...

    def finalize(self, backends: "str | Sequence[str] | None" = None) -> None: ...

    def invalidate_plans(self, reason: str = "") -> None: ...

    def set_compression(self, compression: "CompressionConfig") -> None: ...

    def set_synchronization(self, mode: str) -> None: ...

    # -- collectives (Listing 1) -------------------------------------------

    def all_reduce(
        self,
        backend: str,
        tensor: "SimTensor",
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def reduce(
        self,
        backend: str,
        tensor: "SimTensor",
        root: int = 0,
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def bcast(
        self, backend: str, tensor: "SimTensor", root: int = 0, async_op: bool = False
    ) -> Optional["WorkHandle"]: ...

    def all_gather(
        self,
        backend: str,
        output: "SimTensor",
        input: "SimTensor",
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def reduce_scatter(
        self,
        backend: str,
        output: "SimTensor",
        input: "SimTensor",
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def all_to_all_single(
        self,
        backend: str,
        output: "SimTensor",
        input: "SimTensor",
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def all_to_all(
        self,
        backend: str,
        output: Sequence["SimTensor"],
        input: Sequence["SimTensor"],
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def gather(
        self,
        backend: str,
        input: "SimTensor",
        output: Optional["SimTensor"] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def scatter(
        self,
        backend: str,
        output: "SimTensor",
        input: Optional["SimTensor"] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def gatherv(
        self,
        backend: str,
        input: "SimTensor",
        output: Optional["SimTensor"] = None,
        rcounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def scatterv(
        self,
        backend: str,
        output: "SimTensor",
        input: Optional["SimTensor"] = None,
        scounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def all_gatherv(
        self,
        backend: str,
        output: "SimTensor",
        input: "SimTensor",
        rcounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def all_to_allv(
        self,
        backend: str,
        output: "SimTensor",
        input: "SimTensor",
        scounts: Optional[Sequence[int]] = None,
        sdispls: Optional[Sequence[int]] = None,
        rcounts: Optional[Sequence[int]] = None,
        rdispls: Optional[Sequence[int]] = None,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def barrier(
        self, backend: Optional[str] = None, async_op: bool = False
    ) -> Optional["WorkHandle"]: ...

    # -- point-to-point ----------------------------------------------------

    def send(
        self,
        backend: str,
        tensor: "SimTensor",
        dst: int,
        tag: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def recv(
        self,
        backend: str,
        tensor: "SimTensor",
        src: int,
        tag: int = 0,
        async_op: bool = False,
    ) -> Optional["WorkHandle"]: ...

    def isend(
        self, backend: str, tensor: "SimTensor", dst: int, tag: int = 0
    ) -> "WorkHandle": ...

    def irecv(
        self, backend: str, tensor: "SimTensor", src: int, tag: int = 0
    ) -> "WorkHandle": ...

    # -- extension hooks (stable contract for in-tree extensions) ----------
    #
    # ext/persistent: init-time capture, the uncounted plan pin, then
    # replay through the op surface's hook chain
    def _capture_collective(
        self, post: Callable, backend_name: str, *args, **kwargs
    ) -> tuple: ...

    def _plan(self, spec: Any, backend_name: str, prep: Any, count: bool = True) -> Any: ...

    def _post(self, *args, **kwargs) -> Optional["WorkHandle"]: ...

    # ext/fusion (route table, stream-pressure probe, obs events) and
    # adaptive (shared state, pricing path, obs events): the
    # communicator's repro.core.rendezvous.Group and the obs registry
    _group: Any
    _obs: Any
    #: a repro.core.health.Health: quarantine, fault counters, failover
    health: Any
