"""Dispatch layer of the comm core: backend resolution, fault
quarantine/failover, and the compiled :class:`CommPlan` cache.

Steady-state dispatch runs through a compile-once plan cache
(:class:`CommPlan`): everything derivable from a call's signature alone
— resolved backend, interned labels, dispatch cost, codec arithmetic,
stream placement, tagged rendezvous meta — is snapshotted on first post
and re-used per call, the way MPI-4 persistent operations and pre-built
communication plans amortize per-call setup (paper §V-E).  Clearing the
cache on tuning-table installs, quarantines, and codec/synchronization
changes keeps degraded-mode behavior and simulated timings
bit-identical to the uncached path.

Layering (``docs/INTERNALS.md`` §15): this module sits between the op
surface (:mod:`repro.core.comm`) and the execution spine
(:mod:`repro.core.rendezvous`).  It may import the execution layer but
never the op surface; :class:`DispatchLayer` is a mixin composed into
:class:`~repro.core.comm.MCRCommunicator`, whose ``__init__`` owns all
the state referenced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backends.base import Backend, canonical_name
from repro.backends.ops import OpFamily
from repro.core.config import COMPRESSIBLE_FAMILIES, RETRY_BACKOFF_US, CompressionConfig
from repro.core.exceptions import BackendError
from repro.core.sync import StreamPool
from repro.core.tuning import TuningTable
from repro.obs.metrics import ObsEvent
from repro.sim.streams import Stream


@dataclass(slots=True)
class CommPlan:
    """One compiled dispatch plan (paper §V-E persistent-op amortization).

    Snapshots everything the ``_collective`` spine can derive from the
    call signature alone, keyed per (requested backend, rendezvous meta,
    nbytes, timing-only) so a steady-state training step pays one dict
    lookup instead of re-deriving tuning choice, labels, codec
    arithmetic, and stream placement on every post.

    Tuning-table installs, quarantines, and codec/synchronization
    changes clear the cache; plans compiled through the ``"auto"`` path
    also pin the tuning table's generation so in-place table edits
    (``add``/``merge``) recompile without an explicit reinstall.
    Compilation never advances the virtual clock, so cached and
    uncached dispatch are byte-identical.
    """

    #: tuning-table generation consulted at compile time; -1 when the
    #: plan did not go through the table (explicit backend, or no table)
    table_generation: int
    backend: Backend
    #: backend name after §V-F resolution but *before* the fault gate —
    #: the reference point for "reroute" dispatch attribution
    resolved_name: str
    label: str
    dispatch_reason: str
    #: dispatch attribution when the fault gate does not reroute
    dispatch_kind: str
    dispatch_cost_us: float
    codec: object
    wire_bytes: int
    codec_us: float
    #: stream placement, see :meth:`~repro.core.sync.SyncManager.placement`
    #: (``stream`` and ``pool`` both None: the op completes on the host)
    stream: Optional[Stream]
    pool: Optional[StreamPool]
    host_sync: bool
    stream_semantics: bool
    #: rendezvous meta with the virtual/real data-plane tag appended
    meta_tagged: tuple


class DispatchLayer:
    """Mixin: decides *where* an operation runs and at what plan.

    Stateless by itself — every attribute it reads (``_plans``,
    ``_tuning_table``, ``_quarantined``, fault gates, ...) is
    initialized by :class:`~repro.core.comm.MCRCommunicator`.
    """

    # ------------------------------------------------------------------
    # dispatch plan cache (§V-E persistent-op amortization)
    # ------------------------------------------------------------------

    @property
    def tuning_table(self) -> Optional[TuningTable]:
        """The table consulted by ``"auto"`` dispatch (§V-F).

        Assigning a new table invalidates every compiled plan; in-place
        mutation of the installed table is caught per-lookup through the
        table's generation counter instead.
        """
        return self._tuning_table

    @tuning_table.setter
    def tuning_table(self, table: Optional[TuningTable]) -> None:
        self._tuning_table = table
        self.invalidate_plans("tuning-table install/swap")

    def invalidate_plans(self, reason: str = "") -> None:
        """Clear the plan cache: every plan recompiles on next use.

        Called automatically on tuning-table install/swap, backend
        quarantine, and codec/synchronization changes.  Call it manually
        after mutating state the communicator snapshots at construction
        or compile time — e.g. installing a link-degradation schedule on
        the SystemSpec mid-run — so the refreshed gates below take
        effect with the same invalidation discipline as the plans.
        """
        self._plan_invalidations += 1
        self._plans.clear()
        self._link_faults = (
            getattr(self.ctx.system, "link_degradation", None) is not None
        )
        injector = self.ctx.shared.get("fault_injector")
        if injector is not None and not self._fault_gate:
            self._injector = injector
            self._fault_gate = True
            from repro.ext.logging_ext import CommLogger

            self._fault_log = CommLogger.shared(self.ctx)
        # hierarchical phase communicators snapshot the same state
        # (plans, fault gates); one invalidation covers the whole family
        for child in self._hier_children:
            child.invalidate_plans(reason)

    def set_compression(self, compression: CompressionConfig) -> None:
        """Enable/disable/retune lossy compression mid-run (§V-E).

        Rebinds the codec and invalidates compiled plans so wire sizes
        and codec costs recompute; mutating ``config.compression`` in
        place would leave stale plans serving the old codec.
        """
        self.config.compression = compression
        self._codec = None
        if compression.enabled:
            from repro.ext.compression import FixedRateCodec

            self._codec = FixedRateCodec(compression.rate_bits)
        self.invalidate_plans("codec change")

    def set_synchronization(self, mode: str) -> None:
        """Switch the synchronization scheme mid-run (Fig. 4a vs 4b).

        Plan-invalidating: stream-vs-host placement is plan state.
        """
        self.config.synchronization = mode
        self.config.validate()
        self.invalidate_plans("synchronization change")

    @property
    def retuner(self):
        """This rank's :class:`repro.core.adaptive.AdaptiveRetuner`, or
        None when ``config.adaptive.enabled`` is off (the default)."""
        return self._retuner

    @property
    def plan_stats(self) -> dict:
        """Plan-cache effectiveness: hit/miss/invalidation counts, the
        number of resident plans, and the steady-state hit rate."""
        total = self._plan_hits + self._plan_misses
        return {
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "invalidations": self._plan_invalidations,
            "plans": len(self._plans),
            "hit_rate": self._plan_hits / total if total else 0.0,
        }

    # ------------------------------------------------------------------
    # backend resolution (§V-F)
    # ------------------------------------------------------------------

    def _backend(self, name: str) -> Backend:
        # the common case is a canonical name; only alias/odd-case misses
        # pay for normalization
        backend = self.backends.get(name)
        if backend is not None:
            return backend
        if name[:5].lower() == "hier:":
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

    def _resolve_backend(self, name: str, family: OpFamily, nbytes: int) -> Backend:
        """Resolve an explicit name or the ``"auto"`` tuned choice (§V-F)."""
        if name != "auto":
            return self._backend(name)
        choice = None
        if self.tuning_table is not None:
            choice = self.tuning_table.lookup(family.value, self.world_size, nbytes)
            if choice is not None:
                canon = canonical_name(choice)
                if canon not in self.backends or canon in self._quarantined:
                    choice = None  # tuned for a backend we did not init
                    # (or one quarantined by a permanent fault)
        if choice is None:
            choice = next(iter(self.backends))
        return self._backend(choice)

    # -- hierarchical composite dispatch (hier:<intra>+<inter>) -----------

    def _hier(self):
        """The lazily built hierarchical executor (sub-groups derived
        from ``SystemSpec.node_of`` on first use, cached here)."""
        if self._hier_exec is None:
            from repro.backends.hierarchical import HierarchicalExecutor

            self._hier_exec = HierarchicalExecutor(self)
        return self._hier_exec

    def _table_has_hier(self, table: TuningTable) -> bool:
        """Whether the tuning table contains any ``hier:*`` entry, memoized
        per (table identity, generation) so hier-free auto dispatch pays
        one tuple compare."""
        probe = self._hier_table_probe
        ident, gen = id(table), table.generation
        if probe is not None and probe[0] == ident and probe[1] == gen:
            return probe[2]
        has = any(
            choice[:5].lower() == "hier:"
            for by_ws in table.entries.values()
            for by_msg in by_ws.values()
            for choice in by_msg.values()
        )
        self._hier_table_probe = (ident, gen, has)
        return has

    def _hier_target(self, name: str, family: OpFamily, nbytes: int):
        """Resolve one dispatch to a hierarchical spec, or None for flat.

        ``name`` is ``"auto"`` or a ``hier:*`` spelling: ``_post`` only
        routes names that can go hierarchical here.  Explicit ``hier:*``
        spellings must parse and have both constituents initialized
        (errors otherwise, mirroring unknown backend names).  ``"auto"``
        consults the tuned table; a hier entry that cannot run here —
        malformed, missing constituent, or a constituent quarantined by
        a permanent fault — silently falls back to flat resolution,
        matching ``_resolve_backend``'s treatment of unavailable tuned
        choices.
        """
        if name != "auto":
            from repro.backends.hierarchical import parse_hier

            spec = parse_hier(name)
            for part in (spec.intra, spec.inter):
                if part not in self.backends:
                    raise BackendError(
                        f"hierarchical target {name!r} needs backend "
                        f"{part!r}, which is not initialized on this "
                        f"communicator; have {list(self.backends)}"
                    )
            return spec
        table = self._tuning_table
        if table is None or not self._table_has_hier(table):
            return None
        choice = table.lookup(family.value, self.world_size, nbytes)
        if choice is None or choice[:5].lower() != "hier:":
            return None
        from repro.backends.hierarchical import parse_hier

        try:
            spec = parse_hier(choice)
        except BackendError:
            return None
        for part in (spec.intra, spec.inter):
            if part not in self.backends or part in self._quarantined:
                return None
        return spec

    # -- fault handling (retry / quarantine / failover) -------------------
    #
    # Every decision below is a deterministic function of per-scope op
    # counters, so in an SPMD program all ranks of a group make identical
    # choices and rendezvous keys stay matched even in degraded mode —
    # the deadlock-freedom claim of §V-D extended to failures:
    #
    # * collectives count per (communicator, backend); every group rank
    #   posts the same Nth collective, so transient retries and permanent
    #   quarantines happen at the same logical op everywhere;
    # * p2p counts per directed channel (backend, src, dst, tag); the
    #   matched sender and receiver observe equal indices.  p2p never
    #   triggers quarantine — third-party ranks could not observe it
    #   symmetrically — it reroutes the single op instead.

    def _record_fault(self, kind: str, backend_name: str, detail: str = "") -> None:
        if self._fault_log is not None:
            self._fault_log.log_event(
                kind, self.ctx.rank, backend_name, self.ctx.now, detail
            )

    def _quarantine(self, backend: Backend, reason: str) -> None:
        if backend.name in self._quarantined:
            return
        self._quarantined.add(backend.name)
        backend.fail(reason)
        # a quarantine changes dispatch for every subsequent op (auto
        # resolution skips the backend, explicit dispatch reroutes), so
        # compiled plans must recompute from the degraded state
        self.invalidate_plans(f"quarantine({backend.name})")
        self._record_fault("quarantine", backend.name, reason)
        if self._retuner is not None:
            # probation: the retuner re-probes the backend at matched op
            # indexes and un-quarantines symmetrically on success
            self._retuner.on_quarantine(backend.name)
        # a backend the parent declares dead must not keep serving
        # hierarchical phases; each phase communicator degrades (and
        # fails over) independently.  Child-local quarantines do NOT
        # propagate upward — a fault observed only inside one phase
        # group is handled by that group's own failover.
        for child in self._hier_children:
            child_backend = child.backends.get(backend.name)
            if child_backend is not None and backend.name not in child._quarantined:
                child._quarantine(child_backend, f"parent: {reason}")
        if len(self._quarantined) == len(self.backends):
            raise BackendError(
                f"all backends permanently failed: {sorted(self._quarantined)}"
            )

    def _unquarantine(self, backend: Backend, reason: str) -> None:
        """Symmetric inverse of :meth:`_quarantine` (probation path).

        Only the adaptive probation protocol calls this, at matched op
        indexes on every rank (same agree-at-op discipline as the
        quarantine itself), so the quarantine set stays symmetric.
        Hierarchical phase children whose quarantine was inherited from
        the parent recover with it; a child-local quarantine — a fault
        observed only inside one phase group — stays put, mirroring the
        asymmetry of the quarantine cascade.
        """
        if backend.name not in self._quarantined:
            return
        self._quarantined.discard(backend.name)
        backend.recover(reason)
        # recovery changes dispatch exactly like quarantine did: auto
        # resolution may pick the backend again, explicit dispatch stops
        # rerouting — compiled plans must recompute
        self.invalidate_plans(f"unquarantine({backend.name})")
        self._record_fault("unquarantine", backend.name, reason)
        for child in self._hier_children:
            child_backend = child.backends.get(backend.name)
            if (
                child_backend is not None
                and backend.name in child._quarantined
                and (child_backend.failure_reason or "").startswith("parent: ")
            ):
                child._unquarantine(child_backend, f"parent: {reason}")

    def _failover_target(
        self, family: OpFamily, nbytes: int, exclude: frozenset = frozenset()
    ) -> Backend:
        """Deterministic survivor choice: tuning table, then init order
        (§V-F dispatch, restricted to live backends)."""
        survivors = [
            n
            for n in self.backends
            if n not in self._quarantined and n not in exclude
        ]
        if not survivors:
            raise BackendError(
                f"no surviving backend for {family.value}: "
                f"quarantined {sorted(self._quarantined)}"
            )
        choice = None
        if self.tuning_table is not None:
            tuned = self.tuning_table.lookup(family.value, self.world_size, nbytes)
            if tuned is not None and canonical_name(tuned) in survivors:
                choice = canonical_name(tuned)
        if choice is None:
            choice = survivors[0]
        return self.backends[choice]

    def _admit_backend(
        self,
        backend: Backend,
        family: OpFamily,
        nbytes: int,
        p2p_channel: Optional[tuple] = None,
    ) -> Backend:
        """Fault gate for one dispatch: consult the injector, retry
        transient faults with exponential backoff, quarantine and fail
        over on permanent ones.  Returns the backend that actually runs
        the operation."""
        inj = self._injector
        ctx = self.ctx
        cfg = self.config
        hops = 0
        while True:
            if backend.name in self._quarantined:
                old = backend.name
                backend = self._failover_target(family, nbytes)
                self._record_fault("failover", old, f"-> {backend.name}")
                continue
            if inj is None:
                return backend
            if hops > 3 * len(self.backends):  # pragma: no cover - safety valve
                raise BackendError(
                    f"fault failover did not converge for {family.value}"
                )
            scope = (
                ("p2p", backend.name, *p2p_channel)
                if p2p_channel is not None
                else ("coll", backend.name)
            )
            idx = self._fault_counters.get(scope, 0) + 1
            self._fault_counters[scope] = idx
            fault = inj.backend_fault(
                self.comm_id, backend.name, idx, p2p=p2p_channel is not None,
                rank=ctx.rank, now=ctx.now, obs=self._obs,
            )
            if fault is None:
                return backend
            if fault.kind == "transient":
                attempts = min(fault.fail_attempts, cfg.comm_max_retries)
                for attempt in range(attempts):
                    self._record_fault(
                        "retry",
                        backend.name,
                        f"op {idx} attempt {attempt + 1}/{cfg.comm_max_retries}",
                    )
                    ctx.sleep(
                        RETRY_BACKOFF_US * (2.0 ** attempt),
                        reason=f"retry({backend.name})",
                    )
                if fault.fail_attempts <= cfg.comm_max_retries:
                    return backend  # cleared within the retry budget
                if p2p_channel is None:
                    # a collective that cannot clear its transient fault
                    # within the retry budget is treated as a permanent
                    # library failure (symmetric: same decision everywhere)
                    self._quarantine(
                        backend, f"transient fault persisted past {attempts} retries"
                    )
                    continue
                # p2p: reroute this one op, no global quarantine
                old = backend.name
                backend = self._failover_target(
                    family, nbytes, exclude=frozenset((backend.name,))
                )
                self._record_fault("failover", old, f"-> {backend.name} (p2p reroute)")
                hops += 1
                continue
            # permanent
            self._quarantine(backend, f"permanent fault at op {idx}")
            # loop re-enters the quarantined branch and fails over

    # -- plan compilation --------------------------------------------------

    def _op_label(self, op, backend_name: str) -> tuple[str, str]:
        """Cached ``(label, dispatch reason)`` for one (op, backend) pair."""
        key = (op, backend_name)
        cached = self._op_labels.get(key)
        if cached is None:
            label = f"{op}:{backend_name}"
            if self._phase_tag:
                # phase communicators mark their intervals so chrome
                # traces show the intra/inter segments of a composite
                label = f"{label}@{self._phase_tag}"
            cached = self._op_labels[key] = (label, f"dispatch({label})")
        return cached

    def _dispatch_cost(self, backend: Backend) -> float:
        return self.config.dispatch_overhead_us + backend.call_overhead_us()

    def _plan(
        self, backend_name: str, family: OpFamily, nbytes: int, meta: tuple,
        vector: bool, force_host: bool, compressible: bool, timing_only: bool,
        count: bool = True,
    ) -> CommPlan:
        """The plan for one call signature: a cache hit, or a compile
        cached for the next call.  Only posts ``count`` towards
        :attr:`plan_stats`, persistent pins do not."""
        if not self._plan_cache_on:
            return self._compile_plan(
                backend_name, family, nbytes, meta,
                vector, force_host, compressible, timing_only,
            )
        # meta[0] names the op-table row, which fixes family and flags
        key = (backend_name, meta, nbytes, timing_only)
        plan = self._plans.get(key)
        if plan is not None and (plan.table_generation < 0 or self._plan_valid(plan)):
            self._plan_hits += count
            return plan
        plan = self._plans[key] = self._compile_plan(
            backend_name, family, nbytes, meta,
            vector, force_host, compressible, timing_only,
        )
        self._plan_misses += count
        return plan

    def _plan_valid(self, plan: CommPlan) -> bool:
        """Whether the tuning table a generation-pinned plan consulted is
        still installed and unedited."""
        table = self._tuning_table
        if table is None or table.generation != plan.table_generation:
            self._plan_invalidations += 1
            return False
        return True

    def _compile_plan(
        self,
        backend_name: str,
        family: OpFamily,
        nbytes: int,
        meta: tuple,
        vector: bool,
        force_host: bool,
        compressible: bool,
        timing_only: bool,
    ) -> CommPlan:
        """Derive one dispatch plan from a call signature.

        Pure with respect to simulated time — resolution, label
        interning, codec arithmetic, and stream placement never advance
        the clock — and arithmetic-identical to the historical per-call
        derivation, so cached and uncached dispatch cannot diverge.
        """
        backend = self._resolve_backend(backend_name, family, nbytes)
        label, dispatch_reason = self._op_label(family, backend.name)
        # compression (§V-E): shrink the wire size, model codec kernels,
        # and apply the real quantization error to the data
        codec = None
        wire_bytes = nbytes
        codec_us = 0.0
        if (
            self._codec is not None
            and compressible
            and family.value in COMPRESSIBLE_FAMILIES
        ):
            codec = self._codec
            wire_bytes = codec.compressed_nbytes(nbytes)
            codec_us = codec.codec_time_us(nbytes)
        stream, pool, host_sync, stream_semantics = self.sync.placement(
            backend, force_host, wire_bytes
        )
        table_generation = -1
        if backend_name == "auto" and self._tuning_table is not None:
            table_generation = self._tuning_table.generation
        return CommPlan(
            table_generation=table_generation,
            backend=backend,
            resolved_name=backend.name,
            label=label,
            dispatch_reason=dispatch_reason,
            dispatch_kind="auto" if backend_name == "auto" else "explicit",
            dispatch_cost_us=self._dispatch_cost(backend),
            codec=codec,
            wire_bytes=wire_bytes,
            codec_us=codec_us,
            stream=stream,
            pool=pool,
            host_sync=host_sync,
            stream_semantics=stream_semantics,
            meta_tagged=(*meta, "virtual" if timing_only else "real"),
        )

    # -- persistent collectives (ext.persistent, §V-E) ---------------------

    def _capture_collective(self, post, backend_name: str, *args, **kwargs) -> tuple:
        """Init-time negotiation for a persistent collective: run the
        public op with ``_collective`` intercepted so argument validation
        happens once and the exact dispatch invocation is captured for
        replay.  Nothing is posted and the clock does not move."""
        captured: dict = {}

        def recorder(*a, **kw):
            captured["args"] = a
            captured["kwargs"] = kw
            return None

        self._collective = recorder  # shadow the bound method
        retuner = self._retuner
        was_quiet = retuner.quiet if retuner is not None else False
        if retuner is not None:
            # capture posts nothing and must not count as an adaptive op
            retuner.quiet = True
        try:
            post(backend_name, *args, async_op=True, **kwargs)
        finally:
            del self._collective
            if retuner is not None:
                retuner.quiet = was_quiet
        return captured["args"], captured["kwargs"]

    def _plan_for_call(self, args: tuple, kwargs: dict) -> CommPlan:
        """Compile (or fetch) the plan for a captured ``_collective``
        invocation — the pin a :class:`~repro.ext.persistent.
        PersistentCollective` holds."""
        return self._plan(
            args[0], args[1], args[2], kwargs["meta"],
            kwargs.get("vector", False),
            kwargs.get("force_host", False),
            kwargs.get("compressible", True),
            any(t is not None and t.is_virtual for t in kwargs.get("tensors", ())),
            count=False,
        )

    def _flush_plan_stats(self) -> None:
        """Report plan-cache effectiveness to the observability registry
        as aggregated events — one ``kind="plan"`` ObsEvent per outcome
        with the count carried in ``nbytes``, mirroring the sweep-cache
        reporting convention (zero events on the per-op hot path)."""
        obs = self._obs
        if obs is None:
            return
        now = self.ctx.now
        for detail, count in (
            ("hit", self._plan_hits),
            ("miss", self._plan_misses),
            ("invalidate", self._plan_invalidations),
        ):
            if count:
                obs.observe(
                    ObsEvent(
                        kind="plan",
                        rank=self.ctx.rank,
                        stream="host",
                        backend="",
                        family="dispatch_plan",
                        nbytes=count,
                        step=-1,
                        start=now,
                        end=now,
                        detail=detail,
                    )
                )
