"""The MCR-DL communicator: the op-surface layer of the comm core.

One :class:`MCRCommunicator` per rank binds any number of communication
backends under the unified API of the paper's Listing 1: every
point-to-point and collective operation — including vectored and
non-blocking variants — dispatched per call to an explicit backend, or
to ``"auto"`` for tuning-table selection (§V-F).

The communicator is composed of three layers with one-directional
dependencies (``docs/INTERNALS.md`` §15):

* **op surface** (this module) — each public collective is one
  :class:`CollectiveSpec` table row: op family, the call's ``key``
  (argument checks, meta, wire size) and ``build`` (buffers, datapath
  mover), hierarchical capability, and the
  ``force_host``/``compressible``/``vector`` flags.  The shared pre-dispatch hook chain (``retuner.before_op`` →
  ``_plan``, whose plan routes flat or hierarchical) runs uniformly for
  every family from :meth:`MCRCommunicator._post`;
* **dispatch** (:mod:`repro.core.dispatch`) — backend resolution and
  the compiled :class:`~repro.core.dispatch.CommPlan`, with
  backend health (quarantine, failover) owned by ``comm.health``
  (:mod:`repro.core.health`);
* **execution** (:mod:`repro.core.rendezvous`) — rendezvous matching
  and the collective/p2p spines over the simulation engine.

The methods below are the one spelling of Listing 1; code outside
``repro.core`` holds the narrower :class:`~repro.core.protocols.CommCore`
(enforced by ``scripts/lint.py``; ``tests/test_op_surface.py`` binds
both it and :mod:`repro.core.api` to these methods).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.backends.base import Backend, canonical_name, cost_backend
from repro.backends.ops import OpFamily, ReduceOp
from repro.core.config import BACKEND_INIT_US, MCRConfig
from repro.core.dispatch import CommPlan, DispatchLayer
from repro.core.exceptions import BackendError, MCRError, ValidationError
from repro.core.handles import CompletedHandle, WorkHandle
from repro.core.health import Health
from repro.core.op_table import (
    _ALL_GATHER,
    _ALL_GATHERV,
    _ALL_REDUCE,
    _ALL_TO_ALL,
    _ALL_TO_ALL_SINGLE,
    _ALL_TO_ALLV,
    _BARRIER,
    _BCAST,
    _GATHER,
    _GATHERV,
    _REDUCE,
    _REDUCE_SCATTER,
    _SCATTER,
    _SCATTERV,
    PHASE_OPS,
    CollectiveSpec,
    _Prepared,
)
from repro.core.rendezvous import CommShared, ExecutionLayer, Group
from repro.core.sync import SyncManager
from repro.core.tuning import TuningTable
from repro.sim.process import RankContext
from repro.tensor import SimTensor

__all__ = ["CollectiveSpec", "CommPlan", "MCRCommunicator"]


class MCRCommunicator(DispatchLayer, ExecutionLayer):
    """Per-rank MCR-DL instance over a set of backends.

    Construct one on every rank (same backend list everywhere), usually
    through :func:`repro.core.api.init`.
    """

    def __init__(
        self,
        ctx: RankContext,
        backends: "str | Sequence[str]",
        config: Optional[MCRConfig] = None,
        tuning_table: Optional[TuningTable] = None,
        comm_id: str = "world",
        ranks: Optional[Sequence[int]] = None,
    ):
        if isinstance(backends, str):
            backends = [backends]
        if not backends:
            raise BackendError("MCR-DL needs at least one backend")
        self.ctx = ctx
        job = self._job = ctx.shared.setdefault("mcr_dl", CommShared(ctx.system))
        if config is None:
            config = MCRConfig()  # the defaults are valid
        elif job.configs.get(id(config)) is not config:
            config.validate()
            job.configs[id(config)] = config
        self.config = config
        self.comm_id = comm_id
        self._plan_hits = self._plan_misses = self._plan_invalidations = self._plan_clears = 0
        self._tuning_table = tuning_table

        # process group: the rank subset this communicator spans (like an
        # MPI sub-communicator / torch.distributed process group)
        record = job.group(ctx.world_size, ranks)
        self.group_ranks = record.ranks
        if ctx.rank not in record.index:
            raise BackendError(
                f"rank {ctx.rank} constructing a communicator for group "
                f"{self.group_ranks} it does not belong to"
            )
        #: group-local rank (MPI communicator semantics) and group size
        self.rank = self.group_rank = record.index[ctx.rank]
        self.world_size = len(record.ranks)

        names = [canonical_name(b) for b in backends]
        if len(set(names)) != len(names):
            raise BackendError(f"duplicate backends in {list(backends)}")
        # a backend holds no per-rank state: every rank shares the job's
        # one instance per (library, group size), as cost queries do
        self.backends: dict[str, Backend] = {}
        for name in names:
            self.backends[name] = cost_backend(name, len(self.group_ranks), ctx.system)
            self.ctx.sleep(BACKEND_INIT_US, reason=f"init({name})")

        non_stream = [n for n, b in self.backends.items() if not b.properties.stream_aware]
        #: footnote 4: mixing more than one non-stream-aware backend is
        #: suboptimal for overlap; recorded so callers/tests can assert.
        self.mixing_warning: Optional[str] = None
        if len(non_stream) > 1:
            self.mixing_warning = (
                f"multiple non-stream-aware backends {non_stream}: at most "
                "one is optimal for overlap (paper §V-D footnote 4)"
            )

        self.sync = SyncManager(ctx, self.backends, config)
        #: fault injection / graceful degradation (repro.sim.faults): the
        #: quarantine set, fault counters, retry and failover
        self.health = Health(self)
        #: the rendezvous scope of every flat op and p2p call
        self._group = Group(record, comm_id, "", self.health)
        self._finalized = False
        # the phase groups of hierarchical composites
        # (``hier:<intra>+<inter>``) in the order they split, on first use
        # (INTERNALS §13)
        self._phase_groups: dict[str, Group] = {}

        self.logger = None
        if self.config.enable_logging:
            from repro.ext.logging_ext import CommLogger

            self.logger = CommLogger.shared(ctx)
        #: unified observability registry (repro.obs), installed into the
        #: job's shared state by the Simulator; None = observability off,
        #: and every use below is guarded so the healthy path pays one
        #: attribute load
        self._obs = ctx.shared.get("obs")

        # online adaptive dispatch (repro.core.adaptive): a retuner per
        # rank, a CellBook per group.  None keeps every adaptive hook at
        # a single is-None check (zero cost when off).
        if self.config.adaptive.enabled:
            from repro.core.adaptive import AdaptiveRetuner

            self._group.retuner = AdaptiveRetuner(self)
        self._snapshot()

    # ------------------------------------------------------------------
    # introspection (Listing 1 head)
    # ------------------------------------------------------------------

    def get_backends(self) -> list[str]:
        """Names of the initialized backends, in init order."""
        return list(self.backends)

    def get_size(self, backend: Optional[str] = None) -> int:
        self._backend(backend or next(iter(self.backends)))
        return len(self.group_ranks)

    def get_rank(self, backend: Optional[str] = None) -> int:
        """This process's rank *within the communicator's group*."""
        self._backend(backend or next(iter(self.backends)))
        return self.group_rank

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def synchronize(self, backends: "str | Sequence[str] | None" = None) -> None:
        """Synchronize one, several, or all backends (§V-D): loop over
        each backend and apply its native completion semantics."""
        if backends is None:
            backends = list(self.backends)
        elif isinstance(backends, str):
            backends = [backends]
        resolved = [self._backend(name) for name in backends]
        # composites' phase groups drain first, in the order they split
        # (they post on this communicator's pools): a pool op ends at or
        # before its stream's tail, so the pools keep no handle; host-path
        # ops complete at their handles
        for group in (*self._phase_groups.values(), self._group):
            for backend in resolved:
                for stream in self.sync.pools.get(backend.name, ()):
                    stream.synchronize()
                for handle in group.outstanding.pop(backend.name, ()):
                    handle.synchronize()

    def finalize(self, backends: "str | Sequence[str] | None" = None) -> None:
        """Drain outstanding work and close the communicator."""
        if self._finalized:
            return
        self.synchronize(backends)
        if self._obs is not None:
            self._flush_plan_stats()
        self._finalized = True

    # ------------------------------------------------------------------
    # the shared pre-dispatch driver
    # ------------------------------------------------------------------

    def _post(
        self, spec: CollectiveSpec, backend_name: str, args: tuple, async_op: bool,
        prep: Optional[_Prepared] = None, dispatch_scale: float = 1.0,
    ) -> Optional[WorkHandle]:
        """Run one table row: check the call through its ``key`` (a
        persistent start hands in its call, prepared once), then the
        uniform pre-dispatch hook chain, then one plan lookup decides
        where the op runs.  Only an arrival that needs a data plane
        builds one (``_Prepared``): a real-data call and an alltoallv,
        whose resolver reads every rank's counts; any other timing-only
        post goes key → plan → post.

        The chain runs identically for *every* family and start:

        1. ``retuner.before_op`` — adaptive pre-op accounting (pending
           table edits apply to the op being posted, so its plan
           recompiles against them);
        2. ``_plan`` — the compiled plan either names a hierarchical
           composite (``plan.hier``) with its phase list for
           ``_run_phases``, or a flat backend for ``_post_collective``;
           ``dispatch_scale`` discounts only a flat post.  An epsilon
           trial's ``"auto"`` post instead takes the indexed plan of the
           trial's alternate, uncounted.
        """
        call = spec.key(self, *args) if prep is None else prep.key
        retuner, trial = self._group.retuner, None
        if retuner is not None and not retuner.quiet:
            retuner.before_op(spec.family, call[1], backend_name == "auto")
            trial = retuner.trial
        if self._finalized:
            raise MCRError("communicator already finalized")
        plan = self._plan(spec, trial or backend_name, call, count=trial is None)
        if plan.hier is not None:
            return self._run_phases(spec, args, call, plan, async_op)
        if call[2] and spec is not _ALL_TO_ALLV:
            prep = None  # a timing-only arrival is its host time
        elif prep is None:
            prep = spec.build(self, call, *args)
        return self._post_collective(
            self._group, spec, backend_name, call, plan, async_op, prep, dispatch_scale
        )

    def _run_phases(
        self, spec: CollectiveSpec, args: tuple, call: tuple, plan: CommPlan, async_op: bool
    ) -> Optional[WorkHandle]:
        """Run a composite's compiled phase list (INTERNALS §13): each
        phase this rank takes part in is one ``_post_collective`` on its
        phase group, posted non-blocking and host-synchronized before the next
        (collective data moves when the rendezvous resolves, so a later
        phase posted early could read a buffer the earlier one has not
        produced yet).  The caller's async contract applies to the last."""
        phases = plan.phases
        virtual = plan.timing_only
        if phases[0].group == "flat":
            # a degenerate composite is the call itself, on this group
            name = phases[0].backend
            flat = self._plan(spec, name, call, count=False)
            prep = None if virtual else spec.build(self, call, *args)
            return self._post_collective(self._group, spec, name, call, flat, async_op, prep)
        rank = self.ctx.rank
        mine = [i for i, p in enumerate(phases) if p.members is None or rank in p.members]
        # the communicator split: this rank's node group and every group
        # all ranks use split before the first phase, a leaders-only
        # group when its phase posts
        for i in mine:
            if phases[i].group == "intra" or phases[i].members is None:
                self._phase_group(phases[i])
        # the caller's tensors, then each scratch buffer once this call
        # first names it (fresh per call: in-flight composites never alias)
        tensors = spec.build(self, call, *args).tensors
        tensors = {"in": tensors[0], "out": tensors[-1]}

        def buffer(role) -> SimTensor:
            if role not in tensors:
                like = tensors["in"]
                make = self.ctx.virtual_tensor if virtual else self.ctx.zeros
                tensors[role] = make(role.nbytes // like.element_size(), like.dtype)
            return tensors[role]

        def shuffle(step) -> None:
            src, dst = (buffer(role).contiguous().view_flat() for role in step[:2])
            dst.reshape(len(step.perm), -1)[:] = src.reshape(len(step.perm), -1)[step.perm]

        op = args[1] if spec.family is OpFamily.ALLREDUCE else None
        handle = None
        for i in mine:
            phase = phases[i]
            if handle is not None:
                handle.synchronize()
            group = self._phase_group(phase)
            if phase.before is not None and not virtual:
                shuffle(phase.before)
            row, build = PHASE_OPS[phase.family]
            phase_args = build(buffer(phase.out), buffer(phase.src), phase.root, op)
            phase_call = row.key(group, *phase_args)
            # compiled once per phase group: uneven node groups never share
            flat = self._plan(row, phase.backend, phase_call, group, count=False)
            phase_prep = None if virtual else row.build(group, phase_call, *phase_args)
            handle = self._post_collective(
                group, row, phase.backend, phase_call, flat, True, phase_prep
            )
            if phase.after is not None and not virtual:
                # the rendezvous may already have resolved
                if handle.flag.is_set:
                    shuffle(phase.after)
                else:
                    handle.flag.callbacks.append(partial(shuffle, phase.after))
        if async_op and mine[-1] == len(phases) - 1:
            return handle
        handle.synchronize()
        if async_op:
            # this rank's part ended early: a bcast root's node already
            # holds the payload
            return CompletedHandle(self.ctx, phases[-1].backend, f"{spec.name}:{plan.hier.name}")
        return None

    def _phase_group(self, phase) -> Group:
        """This rank's group for ``phase``, split on first use: one
        ``BACKEND_INIT_US`` per backend, in init order, as constructing a
        sub-communicator would charge."""
        layout = self._hier_layout()
        if phase.group == "intra":
            comm_id = f"{self.comm_id}|hier-intra"
        else:
            local = 0 if phase.group == "leaders" else layout.locate(self.ctx.rank)[1]
            comm_id = f"{self.comm_id}|hier-inter{local}"
        group = self._phase_groups.get(comm_id)
        if group is None:
            ctx = self.ctx
            record = self._job.group(ctx.world_size, layout.group(phase.group, ctx.rank))
            # its own round-robin over this communicator's pools, and a
            # fault scope under the communicator's quarantines
            group = self._phase_groups[comm_id] = Group(
                record, comm_id, phase.tag, Health(self, parent=self.health, comm_id=comm_id)
            )
            for name in self.backends:
                self.ctx.sleep(BACKEND_INIT_US, reason=f"init({name})")
        return group

    # ------------------------------------------------------------------
    # collectives (Listing 1): thin table-driven wrappers
    # ------------------------------------------------------------------

    def all_reduce(
        self,
        backend: str,
        tensor: SimTensor,
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """In-place allreduce of ``tensor`` across all ranks."""
        return self._post(_ALL_REDUCE, backend, (tensor, op), async_op)

    def reduce(
        self,
        backend: str,
        tensor: SimTensor,
        root: int = 0,
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Reduce into ``tensor`` on ``root`` (other ranks' tensors are inputs)."""
        return self._post(_REDUCE, backend, (tensor, root, op), async_op)

    def bcast(
        self, backend: str, tensor: SimTensor, root: int = 0, async_op: bool = False
    ) -> Optional[WorkHandle]:
        """Broadcast ``root``'s tensor into everyone's tensor (in place)."""
        return self._post(_BCAST, backend, (tensor, root), async_op)

    broadcast = bcast

    def all_gather(
        self, backend: str, output: SimTensor, input: SimTensor, async_op: bool = False
    ) -> Optional[WorkHandle]:
        """Gather every rank's ``input`` into every rank's ``output``
        (rank-major order); output numel must be world_size * input numel."""
        return self._post(_ALL_GATHER, backend, (output, input), async_op)

    #: PyTorch spelling used in the paper's Listing 2
    all_gather_base = all_gather

    def reduce_scatter(
        self,
        backend: str,
        output: SimTensor,
        input: SimTensor,
        op: ReduceOp = ReduceOp.SUM,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Reduce full ``input`` vectors and scatter 1/p chunks into ``output``."""
        return self._post(_REDUCE_SCATTER, backend, (output, input, op), async_op)

    def all_to_all_single(
        self, backend: str, output: SimTensor, input: SimTensor, async_op: bool = False
    ) -> Optional[WorkHandle]:
        """Shuffle equal chunks of ``input`` elements across ranks
        (PyTorch's all_to_all_single)."""
        return self._post(_ALL_TO_ALL_SINGLE, backend, (output, input), async_op)

    def all_to_all(
        self,
        backend: str,
        output: Sequence[SimTensor],
        input: Sequence[SimTensor],
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """List-of-tensors alltoall (PyTorch convention, §V-A): rank i's
        ``input[j]`` lands in rank j's ``output[i]``.  Per-pair sizes may
        vary but must agree pairwise."""
        return self._post(_ALL_TO_ALL, backend, (output, input), async_op)

    def gather(
        self,
        backend: str,
        input: SimTensor,
        output: Optional[SimTensor] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Gather every rank's ``input`` into ``output`` on ``root``."""
        return self._post(_GATHER, backend, (input, output, root), async_op)

    def scatter(
        self,
        backend: str,
        output: SimTensor,
        input: Optional[SimTensor] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Scatter ``root``'s ``input`` in equal chunks into each ``output``."""
        return self._post(_SCATTER, backend, (output, input, root), async_op)

    # -- vectored collectives (§V-A: supported for all backends) ----------

    def gatherv(
        self,
        backend: str,
        input: SimTensor,
        output: Optional[SimTensor] = None,
        rcounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """MPI_Gatherv: rank i contributes ``rcounts[i]`` elements, landing
        at ``displs[i]`` in the root's ``output``."""
        return self._post(
            _GATHERV, backend, (input, output, rcounts, displs, root), async_op
        )

    def scatterv(
        self,
        backend: str,
        output: SimTensor,
        input: Optional[SimTensor] = None,
        scounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """MPI_Scatterv: root sends ``scounts[i]`` elements from offset
        ``displs[i]`` to rank i."""
        return self._post(
            _SCATTERV, backend, (output, input, scounts, displs, root), async_op
        )

    def all_gatherv(
        self,
        backend: str,
        output: SimTensor,
        input: SimTensor,
        rcounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """MPI_Allgatherv: like gatherv but every rank gets the result."""
        return self._post(
            _ALL_GATHERV, backend, (output, input, rcounts, displs), async_op
        )

    def all_to_allv(
        self,
        backend: str,
        output: SimTensor,
        input: SimTensor,
        scounts: Optional[Sequence[int]] = None,
        sdispls: Optional[Sequence[int]] = None,
        rcounts: Optional[Sequence[int]] = None,
        rdispls: Optional[Sequence[int]] = None,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """MPI_Alltoallv: each rank passes its own send/recv count and
        displacement rows (lengths = world size)."""
        return self._post(
            _ALL_TO_ALLV, backend,
            (output, input, scounts, sdispls, rcounts, rdispls), async_op,
        )

    def barrier(self, backend: Optional[str] = None, async_op: bool = False) -> Optional[WorkHandle]:
        """Block until every rank arrives (host-blocking on all backends).

        ``backend=None`` picks the *first initialized* backend —
        deterministic dict insertion order, i.e. the order of the
        backend list every rank passed at construction — so SPMD
        programs rendezvous on the same library without naming it.
        """
        backend = backend or next(iter(self.backends))
        return self._post(_BARRIER, backend, (), async_op)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def send(
        self,
        backend: str,
        tensor: SimTensor,
        dst: int,
        tag: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Send ``tensor`` to rank ``dst`` (rendezvous-protocol semantics:
        a blocking send completes when the transfer does)."""
        return self._p2p(backend, tensor, peer=dst, tag=tag, is_send=True, async_op=async_op)

    def recv(
        self,
        backend: str,
        tensor: SimTensor,
        src: int,
        tag: int = 0,
        async_op: bool = False,
    ) -> Optional[WorkHandle]:
        """Receive into ``tensor`` from rank ``src``."""
        return self._p2p(backend, tensor, peer=src, tag=tag, is_send=False, async_op=async_op)

    def isend(self, backend: str, tensor: SimTensor, dst: int, tag: int = 0) -> WorkHandle:
        return self.send(backend, tensor, dst, tag, async_op=True)

    def irecv(self, backend: str, tensor: SimTensor, src: int, tag: int = 0) -> WorkHandle:
        return self.recv(backend, tensor, src, tag, async_op=True)

    # ------------------------------------------------------------------
    # argument validation helpers (used by the op-table keys)
    # ------------------------------------------------------------------

    def _check_v_args(
        self, counts: Optional[Sequence[int]], displs: Optional[Sequence[int]],
        numel: Optional[int] = None, buffer: str = "",
    ) -> tuple[list[int], list[int]]:
        """Counts and displacements of one vectored call, checked at the
        call for real and virtual tensors alike; ``numel`` bounds the
        ``buffer`` they index when this rank holds it."""
        if counts is None:
            raise ValidationError("vectored collective requires counts")
        counts = [int(c) for c in counts]
        if len(counts) != self.world_size:
            raise ValidationError(
                f"counts length {len(counts)} != world size {self.world_size}"
            )
        if any(c < 0 for c in counts):
            raise ValidationError(f"negative count in {counts}")
        if displs is None:
            displs = list(np.cumsum([0] + counts[:-1]))
        displs = [int(d) for d in displs]
        if len(displs) != self.world_size:
            raise ValidationError(
                f"displs length {len(displs)} != world size {self.world_size}"
            )
        if any(d < 0 for d in displs):
            raise ValidationError(f"negative displacement in {displs}")
        if numel is not None and any(d + c > numel for c, d in zip(counts, displs)):
            raise ValidationError(
                f"displacements {displs} with counts {counts} run past the {buffer} "
                f"end ({numel} elements)"
            )
        return counts, displs
