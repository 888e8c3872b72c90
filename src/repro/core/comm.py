"""The MCR-DL communicator: the op-surface layer of the comm core.

One :class:`MCRCommunicator` per rank binds any number of communication
backends under the unified API of the paper's Listing 1: every
point-to-point and collective operation — including vectored and
non-blocking variants — dispatched per call to an explicit backend, or
to ``"auto"`` for tuning-table selection (§V-F).

The communicator is composed of three layers with one-directional
dependencies (``docs/INTERNALS.md`` §15):

* **op surface** (this module) — each public collective is one
  :class:`CollectiveSpec` table row: op family, argument
  validation/meta builder (``prepare``), datapath mover, hierarchical
  capability, and the ``force_host``/``compressible``/``vector``
  flags.  The shared pre-dispatch hook chain (``retuner.before_op`` →
  ``_plan``, whose plan routes flat or hierarchical) runs uniformly for
  every family from :meth:`MCRCommunicator._post`;
* **dispatch** (:mod:`repro.core.dispatch`) — backend resolution and
  the compiled :class:`~repro.core.dispatch.CommPlan` cache, with
  backend health (quarantine, failover) owned by ``comm.health``
  (:mod:`repro.core.health`);
* **execution** (:mod:`repro.core.rendezvous`) — rendezvous matching
  and the collective/p2p spines over the simulation engine.

Code outside ``repro.core`` programs against the narrow
:class:`~repro.core.protocols.CommCore` protocol instead of this
concrete class (enforced by ``scripts/lint.py``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.backends.base import Backend, canonical_name, create_backend
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
from repro.core.rendezvous import ExecutionLayer
from repro.core.sync import SyncManager
from repro.core.tuning import TuningTable
from repro.sim.process import RankContext
from repro.tensor import SimTensor

__all__ = ["CollectiveSpec", "CommPlan", "MCRCommunicator"]


def _shared_group(state: dict, world_size: int, ranks: Optional[Sequence[int]]) -> tuple:
    """The job-wide record of one process group: ``(group_ranks, {global
    rank: group rank}, {comm_id: rendezvous state})``, validated and built
    by the first rank that names the group (``None`` = the world)."""
    groups = state.setdefault("__groups__", {})
    named = None if ranks is None else tuple(ranks)
    record = groups.get(named)
    if record is None:
        spelled = range(world_size) if named is None else named
        group = list(dict.fromkeys(int(r) for r in spelled))
        if len(group) != len(spelled):
            raise BackendError(f"duplicate ranks in group {list(spelled)}")
        for r in group:
            if not 0 <= r < world_size:
                raise BackendError(f"group rank {r} out of range")
        record = (group, {r: i for i, r in enumerate(group)}, {})
        # one record per rank set, however it was spelled
        record = groups[named] = groups.setdefault(tuple(group), record)
    return record


class PhaseGroup:
    """One process group that a communicator's ``hier:*`` phases run on
    (INTERNALS §13): this rank's node (``{comm_id}|hier-intra``) or one
    shard (``{comm_id}|hier-inter{l}``).

    It keeps what a sub-communicator did that the simulation observes,
    under the names ``_collective`` reads: the group and its own
    rendezvous table and per-backend sequence, its pools' round-robin
    positions over the communicator's streams, its fault scope and
    quarantines (:class:`~repro.core.health.Health` with the
    communicator's as parent), and its outstanding host-path handles.
    It has no retuner, plans or backends of its own.
    """

    def __init__(self, comm: "MCRCommunicator", ranks: Sequence[int], comm_id: str, tag: str):
        ctx = comm.ctx
        self.group_ranks, _, comm_states = _shared_group(
            ctx.shared["mcr_dl"], ctx.world_size, ranks
        )
        self.world_size = self._ws = len(self.group_ranks)
        self.comm_id = comm_id
        #: the phase tag of its labels and comm records
        self.tag = tag
        self._shared = comm_states.setdefault(comm_id, {"rdv": {}})
        self._seq: dict[str, int] = defaultdict(int)
        self._outstanding: dict[str, list[WorkHandle]] = defaultdict(list)
        self._comm_path = ctx.system.comm_path_for_ranks(self.group_ranks)
        self._retuner = None
        self.sync = SyncManager(ctx, comm.backends, comm.config)
        self.health = Health(comm, parent=comm.health, comm_id=comm_id)


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
        # job-wide comm state: what construction derives independently of
        # the rank (validated configs and groups) is built by the first
        # rank that needs it and shared by the rest
        state = ctx.shared.setdefault("mcr_dl", {})
        if config is None:
            config = MCRConfig()  # the defaults are valid
        elif state.setdefault("__configs__", {}).get(id(config)) is not config:
            config.validate()
            state["__configs__"][id(config)] = config
        self.config = config
        self.comm_id = comm_id

        # dispatch plan cache: compiled plans keyed by call signature,
        # cleared as a whole on invalidation (see CommPlan)
        self._plans: dict[tuple, CommPlan] = {}
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_invalidations = 0
        self._plan_cache_on = self.config.plan_cache
        self._tuning_table = tuning_table

        # process group: the rank subset this communicator spans (like an
        # MPI sub-communicator / torch.distributed process group)
        self.group_ranks, index, comm_states = _shared_group(state, ctx.world_size, ranks)
        if ctx.rank not in index:
            raise BackendError(
                f"rank {ctx.rank} constructing a communicator for group "
                f"{self.group_ranks} it does not belong to"
            )
        #: group-local rank (MPI communicator semantics)
        self.rank = self.group_rank = index[ctx.rank]
        #: group size, cached — group_ranks is immutable after init and
        #: the property is read several times per operation
        self._ws = len(self.group_ranks)

        names = [canonical_name(b) for b in backends]
        if len(set(names)) != len(names):
            raise BackendError(f"duplicate backends in {list(backends)}")
        self.backends: dict[str, Backend] = {}
        for name in names:
            backend = create_backend(name, ctx.rank, len(self.group_ranks), ctx.system)
            backend.init()
            self.ctx.sleep(BACKEND_INIT_US, reason=f"init({name})")
            self.backends[name] = backend

        non_stream = [n for n, b in self.backends.items() if not b.properties.stream_aware]
        #: footnote 4: mixing more than one non-stream-aware backend is
        #: suboptimal for overlap; recorded so callers/tests can assert.
        self.mixing_warning: Optional[str] = None
        if len(non_stream) > 1:
            self.mixing_warning = (
                f"multiple non-stream-aware backends {non_stream}: at most "
                "one is optimal for overlap (paper §V-D footnote 4)"
            )

        self.sync = SyncManager(ctx, self.backends, self.config)
        self._seq: dict[str, int] = defaultdict(int)
        self._outstanding: dict[str, list[WorkHandle]] = defaultdict(list)
        self._finalized = False
        #: interned (label, dispatch reason) per (op, backend) — these
        #: strings sit on the per-op hot path and never change
        self._op_labels: dict[tuple, tuple[str, str]] = {}

        # hierarchical composites (``hier:<intra>+<inter>``): the node
        # placement and the phase groups in the order they split, both
        # built on first use (INTERNALS §13)
        self._layout = None
        self._phase_groups: dict[str, PhaseGroup] = {}

        #: fault injection / graceful degradation (repro.sim.faults): the
        #: quarantine set, fault counters, retry and failover
        self.health = Health(self)

        self.logger = None
        if self.config.enable_logging:
            from repro.ext.logging_ext import CommLogger

            self.logger = CommLogger.shared(ctx)
        #: unified observability registry (repro.obs), installed into the
        #: job's shared state by the Simulator; None = observability off,
        #: and every use below is guarded so the healthy path pays one
        #: attribute load
        self._obs = ctx.shared.get("obs")

        self._codec = None
        if self.config.compression.enabled:
            from repro.ext.compression import FixedRateCodec

            self._codec = FixedRateCodec(self.config.compression.rate_bits)

        self._shared = comm_states.get(comm_id)
        if self._shared is None:
            self._shared = comm_states[comm_id] = {
                "rdv": {},
                "p2p": defaultdict(lambda: {"sends": deque(), "recvs": deque()}),
            }
        # wire lanes are a property of the *fabric*, shared by every
        # communicator/process group in the job
        self._channel = state.setdefault("__channel__", defaultdict(float))
        if len(self.group_ranks) == ctx.world_size:
            self._comm_path = ctx.system.comm_path(ctx.world_size)
        else:
            self._comm_path = ctx.system.comm_path_for_ranks(self.group_ranks)
        #: link-degradation gate, bound once (the Simulator installs the
        #: schedule on the SystemSpec before any rank runs); False keeps
        #: the healthy hot path free of extra float ops
        self._link_faults = getattr(ctx.system, "link_degradation", None) is not None

        # online adaptive dispatch (repro.core.adaptive): one retuner
        # per rank per communicator.  None keeps every adaptive hook
        # below at a single is-None check (zero cost when off).
        self._retuner = None
        if self.config.adaptive.enabled:
            from repro.core.adaptive import AdaptiveRetuner

            if self._tuning_table is not None:
                # ranks are usually handed one shared table object;
                # online edits happen at rank-local points in execution,
                # so each rank retunes a private clone (edits still stay
                # symmetric — they apply at matched op indexes)
                self._tuning_table = self._tuning_table.clone()
            else:
                self._tuning_table = TuningTable(system=ctx.system.name)
            self._retuner = AdaptiveRetuner(self)

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

    @property
    def world_size(self) -> int:
        """Size of this communicator's group."""
        return self._ws

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
        # (their pools wrap this communicator's streams)
        for scope in (*self._phase_groups.values(), self):
            for backend in resolved:
                scope.sync.synchronize_backend(backend)
                for handle in scope._outstanding.pop(backend.name, []):
                    handle.synchronize()

    def finalize(self, backends: "str | Sequence[str] | None" = None) -> None:
        """Drain outstanding work and shut backends down."""
        if self._finalized:
            return
        self.synchronize(backends)
        self._flush_plan_stats()
        for backend in self.backends.values():
            backend.finalize()
        self._finalized = True

    # ------------------------------------------------------------------
    # the shared pre-dispatch driver
    # ------------------------------------------------------------------

    def _post(
        self, spec: CollectiveSpec, backend_name: str, args: tuple, async_op: bool,
        prep: Optional[_Prepared] = None, dispatch_scale: float = 1.0,
    ) -> Optional[WorkHandle]:
        """Run one table row: validate/prepare (a persistent start hands
        in its call, prepared once), then the uniform pre-dispatch hook
        chain, then one plan lookup decides where the op runs.

        The chain runs identically for *every* family and start:

        1. ``retuner.before_op`` — adaptive pre-op accounting (pending
           table edits apply to the op being posted, so its plan
           recompiles against them);
        2. ``_plan`` — the compiled plan either names a hierarchical
           composite (``plan.hier``) with its phase list for
           ``_run_phases``, or a flat backend for ``_collective``;
           ``dispatch_scale`` discounts only a flat post.
        """
        if prep is None:
            prep = spec.prepare(self, *args)
        retuner = self._retuner
        if retuner is not None and not retuner.quiet:
            retuner.before_op(spec.family, prep.nbytes)
        if self._finalized:
            raise MCRError("communicator already finalized")
        plan = self._plan(spec, backend_name, prep)
        if plan.hier is not None:
            return self._run_phases(spec, args, prep, plan, async_op)
        return self._collective(spec, backend_name, prep, plan, async_op, dispatch_scale)

    def _run_phases(
        self, spec: CollectiveSpec, args: tuple, prep: _Prepared, plan: CommPlan, async_op: bool
    ) -> Optional[WorkHandle]:
        """Run a composite's compiled phase list (INTERNALS §13): each
        phase this rank takes part in is one ``_collective`` on its phase
        group, posted non-blocking and host-synchronized before the next
        (collective data moves when the rendezvous resolves, so a later
        phase posted early could read a buffer the earlier one has not
        produced yet).  The caller's async contract applies to the last."""
        phases, compiled = plan.phases, plan.phase_plans
        if phases[0].group == "flat":
            # a degenerate composite is the call itself, on this group
            name = phases[0].backend
            if compiled[0] is None:
                compiled[0] = self._compile_plan(spec, name, prep, plan.timing_only)
            return self._collective(spec, name, prep, compiled[0], async_op, 1.0)
        rank, virtual = self.ctx.rank, plan.timing_only
        mine = [i for i, p in enumerate(phases) if p.members is None or rank in p.members]
        # the communicator split: this rank's node group and every group
        # all ranks use split before the first phase, a leaders-only
        # group when its phase posts
        for i in mine:
            if phases[i].group == "intra" or phases[i].members is None:
                self._phase_group(phases[i])
        # the caller's tensors, then each scratch buffer once this call
        # first names it (fresh per call: in-flight composites never alias)
        tensors = {"in": prep.tensors[0], "out": prep.tensors[-1]}

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
        handle = group = None
        for i in mine:
            phase = phases[i]
            if handle is not None:
                self._drain(group, handle)
            group = self._phase_group(phase)
            if phase.before is not None and not virtual:
                shuffle(phase.before)
            row, build = PHASE_OPS[phase.family]
            phase_prep = row.prepare(
                group, *build(buffer(phase.out), buffer(phase.src), phase.root, op)
            )
            if compiled[i] is None:
                compiled[i] = self._compile_plan(row, phase.backend, phase_prep, virtual, group)
            handle = self._collective(row, phase.backend, phase_prep, compiled[i], True, 1.0, group)
            if phase.after is not None and not virtual:
                # the rendezvous may already have resolved
                if handle.flag.is_set:
                    shuffle(phase.after)
                else:
                    handle.flag.callbacks.append(partial(shuffle, phase.after))
        if async_op and mine[-1] == len(phases) - 1:
            return handle
        self._drain(group, handle)
        if async_op:
            # this rank's part ended early: a bcast root's node already
            # holds the payload
            return CompletedHandle(self.ctx, phases[-1].backend, f"{spec.name}:{plan.hier.name}")
        return None

    @staticmethod
    def _drain(group: "PhaseGroup", handle: WorkHandle) -> None:
        """Host-block on one phase and retire its handle."""
        handle.synchronize()
        pending = group._outstanding[handle.backend_name]
        if handle in pending:
            pending.remove(handle)

    def _phase_group(self, phase) -> "PhaseGroup":
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
            ranks = layout.group(phase.group, self.ctx.rank)
            group = self._phase_groups[comm_id] = PhaseGroup(self, ranks, comm_id, phase.tag)
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
    # argument validation helpers (used by the prepare builders)
    # ------------------------------------------------------------------

    def _check_v_args(
        self, counts: Optional[Sequence[int]], displs: Optional[Sequence[int]]
    ) -> tuple[list[int], list[int]]:
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
        return counts, displs
