"""The ``CommCore`` protocol: what extensions may reach on a communicator
beyond its op surface.

``repro.core.comm`` is layered (``docs/INTERNALS.md`` §15): the op
surface (`repro.core.comm`, the :class:`~repro.core.comm.CollectiveSpec`
rows plus the pre-dispatch hook chain), dispatch (`repro.core.dispatch`,
backend choice and the compiled-plan cache, with `repro.core.health`
beneath it) and execution (`repro.core.rendezvous`).

Everything *outside* the core — ``ext/`` extensions, ``frameworks/``
baselines, the tuner and the adaptive retuner — types its communicator
as :class:`CommCore` instead of importing the concrete
:class:`~repro.core.comm.MCRCommunicator`, which keeps the import graph
acyclic (``scripts/lint.py`` enforces it).

The protocol declares identity, lifecycle and the **extension hooks**:
the underscored members in-tree extensions legitimately reach (the
rendezvous ``Group``, the persistent-collective capture/plan/replay
hooks, the obs registry) and ``health``.  User code must not touch
them; anything not listed here is private to one layer
(``scripts/lint.py``'s ``hooks`` rule fails CI on an undeclared one,
and on a declared one that nothing outside the core uses).  The op
surface of the paper's Listing 1 is not repeated here: its one
spelling is the ``MCRCommunicator`` methods, which every communicator a
holder can have provides, so holders call the ops all the same
(``tests/test_op_surface.py`` checks ``repro.core.api`` and this
protocol against those methods).
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import Backend
    from repro.core.config import CompressionConfig, MCRConfig
    from repro.core.handles import WorkHandle
    from repro.core.sync import SyncManager
    from repro.core.tuning import TuningTable
    from repro.sim.process import RankContext


@runtime_checkable
class CommCore(Protocol):
    """Structural type of a per-rank MCR-DL communicator: identity,
    lifecycle and the extension hooks.  Its op surface (Listing 1) is
    :class:`~repro.core.comm.MCRCommunicator`'s."""

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
    world_size: int

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

    # -- extension hooks (stable contract for in-tree extensions) ----------
    #
    # ext/persistent: init-time capture, the uncounted plan pin, then
    # replay through the op surface's hook chain
    def _capture_collective(
        self, post: Callable, backend_name: str, *args, **kwargs
    ) -> tuple: ...

    def _plan(
        self, spec: Any, backend_name: str, call: tuple, group: Any = None, count=True
    ) -> Any: ...

    def _post(
        self, spec: Any, backend_name: str, args: tuple, async_op: bool,
        prep: Any = None, dispatch_scale: float = 1.0,
    ) -> Optional["WorkHandle"]: ...

    # ext/fusion (route table, stream-pressure probe, obs events) and
    # adaptive (shared state, pricing path, obs events): the
    # communicator's repro.core.rendezvous.Group and the obs registry
    _group: Any
    _obs: Any
    #: a repro.core.health.Health: quarantine, fault counters, failover
    health: Any
