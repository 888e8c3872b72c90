"""Dispatch layer of the comm core: backend resolution and the compiled
:class:`CommPlan`.

Steady-state dispatch replays compiled plans (:class:`CommPlan`):
everything derivable from a call's signature alone — flat backend or
hierarchical composite, resolved backend, interned labels, dispatch
cost, codec arithmetic, stream placement, tagged rendezvous meta — is
snapshotted on first post, kept once in the group's plan index
(``CommState.plans``) and re-used by every rank whose plan context
matches, the way MPI-4 persistent operations and pre-built
communication plans amortize per-call setup (paper §V-E).  A new plan
context on tuning-table installs, quarantines, and
codec/synchronization changes keeps degraded-mode behavior and
simulated timings bit-identical to the uncached path.

Layering (``docs/INTERNALS.md`` §15): this module sits between the op
surface (:mod:`repro.core.comm`) and the execution spine
(:mod:`repro.core.rendezvous`).  It may import the execution layer but
never the op surface; :class:`DispatchLayer` is a mixin composed into
:class:`~repro.core.comm.MCRCommunicator`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.backends.base import Backend, canonical_name, is_hier_name
from repro.backends.hierarchical import HierSpec, derive_layout, hier_phases, parse_hier
from repro.backends.ops import OpFamily, ReduceOp
from repro.core.config import CompressionConfig
from repro.core.exceptions import BackendError
from repro.core.tuning import TuningTable
from repro.obs.metrics import ObsEvent


@dataclass(slots=True)
class CommPlan:
    """One compiled dispatch plan (paper §V-E persistent-op amortization).

    Snapshots everything dispatch can derive from the call signature
    alone, so a steady-state training step pays one lookup in its
    group's plan index, keyed per (plan context, requested backend,
    rendezvous meta, nbytes, timing-only), instead of re-deriving
    routing, tuning choice, labels, codec arithmetic, and stream
    placement on every post.  It names nothing of one rank, so the ranks
    of a group whose context matches share it (INTERNALS §12), nor of
    how a post came to it: the post attributes it for the comm log.  A plan
    whose ``hier`` is set routes the call to the hierarchical composite:
    it carries the composite's compiled phase list, and its flat fields
    keep their defaults (INTERNALS §13).

    Tuning-table installs, quarantines, and codec/synchronization
    changes move a rank to a new plan context; plans compiled through
    the ``"auto"`` path also pin the tuning table's generation, so
    in-place table edits (``add``/``merge``) recompile without an
    explicit reinstall.  Compilation never advances the virtual clock,
    so cached and uncached dispatch are byte-identical.
    """

    #: tuning-table generation consulted at compile time; -1 when the
    #: plan did not go through the table (explicit backend, or no table)
    table_generation: int
    #: a virtual tensor is involved: charge full communication time but
    #: skip the data plane (workload modeling; see SimTensor docs)
    timing_only: bool
    #: the composite this call routes to (``hier:*`` or an ``"auto"``
    #: table cell naming one); None = flat dispatch on ``backend``
    hier: Optional[HierSpec] = None
    #: the composite's schedule (:func:`~repro.backends.hierarchical.hier_phases`)
    phases: tuple = ()
    backend: Optional[Backend] = None
    label: str = ""
    dispatch_reason: str = ""
    dispatch_cost_us: float = 0.0
    codec: object = None
    wire_bytes: int = 0
    codec_us: float = 0.0
    #: the placement rule each rank applies to its own streams, see
    #: :meth:`~repro.core.sync.SyncManager.placement`
    pool: str = ""
    pinned: bool = False
    on_default: bool = False
    host_sync: bool = False
    stream_semantics: bool = False
    #: the post yields at its dispatch cost: host sync, deadline, retuner
    yields: bool = False
    #: rendezvous meta with the virtual/real data-plane tag appended
    meta_tagged: tuple = ()


class DispatchLayer:
    """Mixin: decides *where* an operation runs and at what plan.

    Its plans live in each group's plan index (``CommState.plans``),
    under the two tokens :meth:`_snapshot` interns for this rank; it
    owns only the counters behind :attr:`plan_stats`.  The rest it reads
    (tuning table, ``health``, ``sync``, ``_group``, ``_job``) is
    initialized by :class:`~repro.core.comm.MCRCommunicator`.
    """

    # ------------------------------------------------------------------
    # dispatch plans (§V-E persistent-op amortization)
    # ------------------------------------------------------------------

    @property
    def tuning_table(self) -> Optional[TuningTable]:
        """The table consulted by ``"auto"`` dispatch (§V-F).

        Assigning installs the table as given, adaptive or not, and moves
        only the ``"auto"`` plans to a new context; in-place mutation of
        the installed table is caught per-lookup through its generation.
        """
        return self._tuning_table

    @tuning_table.setter
    def tuning_table(self, table: Optional[TuningTable]) -> None:
        self._tuning_table = table
        self._snapshot()

    def invalidate_plans(self, reason: str = "") -> None:
        """Move to a new plan context: every plan recompiles on next use.

        Called automatically on backend quarantine and codec/synchronization
        changes (not on a table swap).  Call it manually
        after mutating state the communicator snapshots at compile time
        — e.g. editing ``comm.config`` in place instead of through
        ``set_compression``/``set_synchronization``.  Rebuilds the plan
        context and re-derives each phase group's fault gate.
        """
        self._plan_invalidations += 1
        self._plan_clears += 1
        self._snapshot()
        for group in self._phase_groups.values():
            group.health.regate()

    def _snapshot(self) -> None:
        """Bind the codec and the plan context: the config by value (its
        dataclass ``repr``, exact for the fields it holds; it fixes the
        codec), the backends, the quarantines, the retuner and the
        clears, interned job-wide to a token that ranks whose context
        matches share.  ``"auto"`` plans key on a second token that adds
        the installed table, whose entry pins it (its ``id`` is not reused)."""
        compression = self.config.compression
        self._codec = None
        if compression.enabled:
            from repro.ext.compression import FixedRateCodec

            self._codec = FixedRateCodec(compression.rate_bits)
        context = (
            repr(self.config), tuple(self.backends), frozenset(self.health.dead()),
            self._group.retuner is not None, self._plan_clears,
        )
        contexts, table = self._job.contexts, self._tuning_table
        self._token = contexts.setdefault(context, (len(contexts), None))[0]
        self._auto_token = contexts.setdefault(
            (*context, id(table)), (len(contexts), table)
        )[0]

    def _reconfigure(self, reason: str, **changes) -> None:
        """Copy on write: ranks commonly share one ``MCRConfig`` object
        (``CommShared.configs``), so a mid-run switch rebinds this
        communicator to a validated copy instead of writing into it,
        then invalidates the compiled plans."""
        config = replace(self.config, **changes)
        config.validate()
        self.config = self.sync.config = config
        self.invalidate_plans(reason)

    def set_compression(self, compression: CompressionConfig) -> None:
        """Enable/disable/retune lossy compression mid-run (§V-E).

        Rebinds the codec and invalidates compiled plans so wire sizes
        and codec costs recompute; mutating ``config.compression`` in
        place would leave stale plans serving the old codec.
        """
        self._reconfigure("codec change", compression=compression)

    def set_synchronization(self, mode: str) -> None:
        """Switch the synchronization scheme mid-run (Fig. 4a vs 4b).

        Plan-invalidating: stream-vs-host placement is plan state.
        """
        self._reconfigure("synchronization change", synchronization=mode)

    @property
    def retuner(self):
        """This rank's :class:`repro.core.adaptive.AdaptiveRetuner`, or
        None when ``config.adaptive.enabled`` is off (the default)."""
        return self._group.retuner

    @property
    def plan_stats(self) -> dict:
        """Plan effectiveness on this rank: lookups its group's index
        served (``hits``, whoever compiled the plan), plans it compiled
        (``misses``), invalidations, the index entries under its plan
        context (``plans``) and the steady-state hit rate."""
        hits, misses = self._plan_hits, self._plan_misses
        tokens = (self._token, self._auto_token)
        return {
            "hits": hits, "misses": misses, "invalidations": self._plan_invalidations,
            "plans": sum(key[0] in tokens for key in self._group.state.plans),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    def _flush_plan_stats(self) -> None:
        """Report the counters to the observability registry as
        aggregated events — one ``kind="plan"`` ObsEvent per outcome with
        the count carried in ``nbytes``, mirroring the sweep-cache
        reporting convention (zero events on the per-op hot path)."""
        rank, now = self.ctx.rank, self.ctx.now
        for detail, count in (
            ("hit", self._plan_hits), ("miss", self._plan_misses),
            ("invalidate", self._plan_invalidations),
        ):
            if count:
                self._obs.observe(ObsEvent(
                    kind="plan", rank=rank, stream="host", backend="",
                    family="dispatch_plan", nbytes=count, step=-1,
                    start=now, end=now, detail=detail,
                ))

    @property
    def plan_compiles(self) -> int:
        """Plans compiled in this job, by every rank: a plan its group
        shares counts once."""
        return self._job.compiles

    # ------------------------------------------------------------------
    # backend resolution (§V-F)
    # ------------------------------------------------------------------

    def _backend(self, name: str) -> Backend:
        # the common case is a canonical name; only alias/odd-case misses
        # pay for normalization
        backend = self.backends.get(name)
        if backend is not None:
            return backend
        if is_hier_name(name):
            # composite targets are dispatch spellings, not backends;
            # only the four decomposable collectives accept them
            raise BackendError(
                f"hierarchical target {name!r} is not valid for this "
                "operation; hier:* supports all_reduce, bcast, all_gather "
                "and all_to_all_single only"
            )
        canon = canonical_name(name)
        try:
            return self.backends[canon]
        except KeyError:
            raise BackendError(
                f"backend {name!r} not initialized on this communicator; "
                f"have {list(self.backends)}"
            ) from None

    def _route(
        self, name: str, family: OpFamily, nbytes: int, composite: bool
    ) -> "Backend | HierSpec":
        """Where one call of ``name`` runs: a flat :class:`Backend`, or
        on a ``composite`` (``hier``) row a :class:`HierSpec`.  ``"auto"``
        is :meth:`Health.choose`'s; an explicit ``hier:*`` name must parse
        and have both constituents initialized; any other name is the
        backend it names (explicit names are never resolved past a
        quarantine: the fault gate fails them over per call)."""
        if name == "auto":
            return self.health.choose(family, nbytes, composite=composite)
        if composite and is_hier_name(name):
            spec = parse_hier(name)
            for part in (spec.intra, spec.inter):
                if part not in self.backends:
                    raise BackendError(
                        f"hierarchical target {name!r} needs backend "
                        f"{part!r}, which is not initialized on this "
                        f"communicator; have {list(self.backends)}"
                    )
            return spec
        return self._backend(name)

    # -- hierarchical composite dispatch (hier:<intra>+<inter>) -----------

    def _hier_layout(self):
        """This group's node placement (``SystemSpec.node_of``), derived
        by the first rank that runs a composite on it, for the job."""
        record = self._group.record
        if record.layout is None:
            record.layout = derive_layout(self.ctx.system, record.ranks)
        return record.layout

    # -- plan compilation --------------------------------------------------

    def _hier_phases(self, hier, family: OpFamily, call: tuple) -> tuple:
        """Compile one composite call's phase list, reading the facts its
        schedule turns on from the rendezvous meta: ``(row, numel, dtype,
        op)`` for all_reduce, ``(row, numel, dtype, root)`` for bcast."""
        layout = self._hier_layout()
        meta, nbytes, _ = call
        return tuple(hier_phases(
            layout, hier, family, nbytes,
            divisible=meta[1] % layout.ppn == 0,
            op=ReduceOp(meta[3]) if family is OpFamily.ALLREDUCE else ReduceOp.SUM,
            root=meta[3] if family is OpFamily.BROADCAST else 0,
        ))

    def _dispatch_cost(self, backend: Backend) -> float:
        return self.config.dispatch_overhead_us + backend.call_overhead_us()

    def _plan(self, spec, backend_name: str, call: tuple, group=None, count=True) -> CommPlan:
        """The plan for one call of op-table row ``spec`` on ``group``
        (default: the communicator's own), by the call's ``(meta, nbytes,
        timing_only)`` key: one lookup in the group's plan index, compiled
        into it on a miss; only live posts ``count`` (not pins, phases,
        reroutes or trials).  Plan cache off: a throwaway plan, never
        counted."""
        if group is None:
            group = self._group
        # meta[0] names the op-table row, which fixes family and flags
        key = (self._auto_token if backend_name == "auto" else self._token, backend_name, call)
        plans = group.state.plans
        plan = plans.get(key)
        if plan is not None:
            # an "auto" plan pins the table generation it consulted
            pinned = plan.table_generation
            if pinned < 0 or pinned == self._tuning_table.generation:
                self._plan_hits += count
                return plan
            self._plan_invalidations += 1
        plan = self._compile_plan(group, spec, backend_name, call)
        if self.config.plan_cache:
            plans[key] = plan
            self._plan_misses += count
        return plan

    def _compile_plan(self, group, spec, backend_name: str, call: tuple) -> CommPlan:
        """Derive one dispatch plan from a call signature on ``group``
        (a composite's phase group: a phase's flat plan), for :meth:`_plan`
        only.  It reads nothing but its inputs, so a reroute or a trial
        posts the plan an explicit post on the backend it lands on gets.

        Pure with respect to simulated time — routing, resolution, label
        interning, codec arithmetic, and stream placement never advance
        the clock — so cached, shared and uncached dispatch cannot diverge.
        """
        self._job.compiles += 1
        family, (meta, nbytes, timing_only) = spec.family, call
        table_generation = -1
        if backend_name == "auto" and self._tuning_table is not None:
            table_generation = self._tuning_table.generation
        # a phase names a flat backend, so only its communicator's calls
        # can route to a composite here
        target = self._route(backend_name, family, nbytes, spec.hier)
        if type(target) is HierSpec:
            return CommPlan(
                table_generation, timing_only, target,
                phases=self._hier_phases(target, family, call),
            )
        label, dispatch_reason = self._job.label(family, target.name, group.tag)
        # compression (§V-E): shrink the wire size, model codec kernels,
        # and apply the real quantization error to the data
        codec, wire_bytes, codec_us = None, nbytes, 0.0
        if self._codec is not None and spec.compressible:
            codec = self._codec
            wire_bytes = codec.compressed_nbytes(nbytes)
            codec_us = codec.codec_time_us(nbytes)
        pool, pinned, on_default, host_sync, stream_semantics = self.sync.placement(
            target, spec.force_host, wire_bytes
        )
        return CommPlan(
            table_generation, timing_only, backend=target,
            label=label, dispatch_reason=dispatch_reason,
            dispatch_cost_us=self._dispatch_cost(target),
            codec=codec, wire_bytes=wire_bytes, codec_us=codec_us,
            pool=pool, pinned=pinned, on_default=on_default, host_sync=host_sync,
            stream_semantics=stream_semantics,
            yields=(
                host_sync or self.config.op_deadline_us is not None
                or group.retuner is not None
            ),
            meta_tagged=(*meta, "virtual" if timing_only else "real"),
        )

    # -- persistent collectives (ext.persistent, §V-E) ---------------------

    def _capture_collective(self, post, backend_name: str, *args, **kwargs) -> tuple:
        """Init-time negotiation for a persistent collective: run the
        public op with ``_post`` intercepted to capture its table row and
        arguments, then prepare the call once — argument validation
        happens here, ahead of any routing.  Returns ``(spec, args,
        prepared call)`` for ``_post`` to replay; nothing is posted, no
        adaptive op is counted and the clock does not move."""
        captured = []
        # shadow the bound method
        self._post = lambda spec, name, a, async_op: captured.append((spec, a))
        try:
            post(backend_name, *args, async_op=True, **kwargs)
        finally:
            del self._post
        spec, call_args = captured[0]
        return spec, call_args, spec.prepare(self, *call_args)
