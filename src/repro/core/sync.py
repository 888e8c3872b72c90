"""Per-backend communication-stream pools and synchronization strategy.

MCR-DL creates a pool of communication streams for *each* backend
(paper §V-C): multiple streams let small-message operations run
concurrently, while each backend owning its own streams is what enables
overlap *across* backends (§V-D).  Host-synchronized MPI backends are
handled according to the configured stream mode:

* ``mpi-managed`` — MPI owns its streams; MCR-DL synchronizes the
  default stream on the host before posting (safe, less overlap);
* ``mcr-managed`` — MCR-DL intercepts stream creation and runs MPI
  traffic on its own comm streams (full overlap, invalid if the MPI
  build uses internal multi-stream logic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backends.base import Backend
from repro.core.config import LARGE_MESSAGE_THRESHOLD, MCRConfig
from repro.core.exceptions import ConfigurationError
from repro.sim.streams import Stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RankContext


class SyncManager:
    """Owns every backend's stream pool and the global sync policy: one
    per communicator, shared by its composites' phase groups (each keeps
    only its round-robin position, ``Group.turns``)."""

    def __init__(self, ctx: "RankContext", backends: dict[str, Backend], config: MCRConfig):
        self.ctx = ctx
        self.config = config
        #: per backend riding MCR-managed streams, its pool of comm streams
        self.pools: dict[str, tuple[Stream, ...]] = {
            name: tuple(
                ctx.stream(f"{name}:comm{i}") for i in range(config.streams_per_backend)
            )
            for name, backend in backends.items()
            if self._uses_mcr_streams(backend)
        }
        if (
            config.mpi_stream_mode == "mcr-managed"
            and config.mpi_internal_multistream
            and any(not b.properties.stream_aware for b in backends.values())
        ):
            raise ConfigurationError(
                "mcr-managed stream interception is unsafe for an MPI build "
                "with internal multi-stream logic (paper §V-D); use "
                "mpi_stream_mode='mpi-managed'"
            )

    def _uses_mcr_streams(self, backend: Backend) -> bool:
        """Whether this backend's traffic rides MCR-managed comm streams."""
        if backend.properties.stream_aware:
            return True
        return (
            self.config.mpi_stream_mode == "mcr-managed"
            and backend.properties.cuda_aware
        )

    def placement(
        self, backend: Backend, force_host: bool, wire_bytes: int
    ) -> tuple[str, bool, bool, bool, bool]:
        """Where one op runs and how its completion is observed, compiled
        once per plan as a rule any rank of the group applies to its own
        streams: ``(pool, pinned, on_default, host_sync, stream_semantics)``.

        * ``pool`` — the backend whose stream pool the op rides ("" =
          none), round-robin, or stream 0 when ``pinned`` (bandwidth-bound,
          §V-C); ``on_default`` — the default stream (naive mode, Fig. 4a);
          neither: the op completes on the host;
        * ``host_sync`` — synchronize the default stream before posting:
          naive mode, and MPI under ``mpi-managed`` (CUDA-aware MPI gives
          no stream-ordering guarantees; §V-D option 1);
        * ``stream_semantics`` — ``wait()`` gates the default stream on a
          CUDA event.  MPI completes through ``MPI_Wait`` on the host even
          on MCR-managed streams, which only move where it overlaps.
        """
        if self.config.synchronization == "naive":
            return "", False, not force_host, True, False
        pooled = backend.name in self.pools
        if force_host or not pooled:
            return "", False, False, not pooled, False
        return (
            backend.name, wire_bytes >= LARGE_MESSAGE_THRESHOLD, False, False,
            backend.properties.stream_aware,
        )

    def least_busy_backend(
        self, names: list[str], outstanding: Optional[dict] = None
    ) -> str:
        """Pick the backend whose pending work is least loaded — used by
        the tensor-fusion timeout flush (§V-E) to overlap across
        backends' fusion buffers.

        Stream-pool backends are measured by their streams' remaining
        tail time.  Host-synchronized backends have no pool; their load
        comes from the communicator's ``outstanding`` handle lists (the
        un-waited ``MPI_Request``s) — without that term they would always
        report 0.0 and soak up every flush.
        """
        self.ctx.engine.settle()
        now = self.ctx.now

        def load(name: str) -> float:
            total = 0.0
            pool = self.pools.get(name)
            if pool is not None:
                for stream in pool:
                    node = stream.last
                    if node is not None and node.resolved:
                        total += max(0.0, node.end - now)
                    elif node is not None:
                        total += 1e9  # unresolved: effectively busy
            elif outstanding:
                for handle in outstanding.get(name, ()):
                    ready = handle.flag.ready_time
                    if ready is None:
                        total += 1e9  # pending request, completion unknown
                    else:
                        total += max(0.0, ready - now)
            return total

        return min(names, key=load)
