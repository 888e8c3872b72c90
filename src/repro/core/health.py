"""Backend health for one communicator: fault admission, retry,
quarantine, failover and probation (``docs/INTERNALS.md`` §8).

Every decision is a deterministic function of per-scope op counters, so
all ranks of a group make identical choices and rendezvous keys stay
matched even in degraded mode — the deadlock-freedom claim of §V-D
extended to failures:

* collectives count per (communicator, backend); every group rank posts
  the same Nth collective, so transient retries and permanent
  quarantines happen at the same logical op everywhere;
* p2p counts per directed channel (backend, src, dst, tag); the matched
  sender and receiver observe equal indices.  p2p never triggers
  quarantine — third-party ranks could not observe it symmetrically — it
  reroutes the single op instead.

Layering: below dispatch, above execution.  :class:`Health` reads its
communicator only through the public ``CommCore`` surface.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.backends.base import Backend, canonical_name, is_hier_name
from repro.backends.hierarchical import HierSpec, parse_hier
from repro.backends.ops import OpFamily
from repro.core.config import RETRY_BACKOFF_US
from repro.core.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols import CommCore


class Health:
    """Whether each backend of one communicator — or of one phase group
    of its composites (INTERNALS §13) — may serve an op."""

    def __init__(self, comm: "CommCore", parent: Optional["Health"] = None, comm_id: str = ""):
        # a proxy: no comm <-> health cycle, so comms free without the GC
        self.comm = weakref.proxy(comm)
        self.ctx = comm.ctx
        self.backends = comm.backends
        self.obs = comm.ctx.shared.get("obs")
        #: the fault scope the injector seeds on: the communicator's id,
        #: or a phase group's
        self.comm_id = comm_id or comm.comm_id
        #: a phase group's health has its communicator's as ``parent``,
        #: whose quarantines bar it too (a union, not a copy: recovery
        #: there is recovery here).  A phase group has no retuner and no
        #: table: it neither recompiles plans nor re-probes, and fails
        #: over to the first live backend in init order.
        self.parent = parent
        #: permanently failed backends; decisions adding to this set are
        #: deterministic per (scope, backend, collective index) so every
        #: rank quarantines at the same op and the set stays symmetric
        self.quarantined: set = set()
        #: per-scope op counters driving injector decisions
        self.counters: dict = {}
        #: the job's fault injector, installed into shared state by the
        #: Simulator before any rank runs
        self.injector = comm.ctx.shared.get("injector")
        #: the run's link-fault windows (a ``LinkSchedule``), None without
        #: link faults; every transfer of this scope is priced through it
        self.links = None if self.injector is None else self.injector.link_schedule
        #: the per-op gate: False (no injector, nothing quarantined)
        #: keeps the healthy path at one attribute truth test
        self.regate()
        self.log = None
        if self.injector is not None:
            from repro.ext.logging_ext import CommLogger

            # retry/failover events always go to the shared comm log,
            # even when per-op logging is off
            self.log = CommLogger.shared(self.ctx)

    def record(self, kind: str, name: str, detail: str = "") -> None:
        if self.log is not None:
            self.log.log_event(kind, self.ctx.rank, name, self.ctx.now, detail)

    def regate(self) -> None:
        """Re-derive the gate (a phase group's: on its parent's invalidation)."""
        self.gate = self.injector is not None or bool(self.dead())

    def dead(self) -> set:
        """Every quarantine that bars this scope."""
        if self.parent is None:
            return self.quarantined
        return self.quarantined | self.parent.quarantined

    def quarantine(self, name: str, reason: str) -> None:
        if name in self.dead():
            return
        self.quarantined.add(name)
        self.gate = True
        self.record("quarantine", name, reason)
        if self.parent is None:
            # a quarantine changes dispatch for every subsequent op (auto
            # resolution skips the backend, explicit dispatch reroutes),
            # so compiled plans must recompute from the degraded state.
            # A phase group's stays its own: a fault seen inside one
            # group is that group's to fail over.
            self.comm.invalidate_plans(f"quarantine({name})")
            retuner = self.comm.retuner
            if retuner is not None:
                # probation: the retuner re-probes the backend at matched
                # op indexes and un-quarantines symmetrically on success
                retuner.on_quarantine(name)
        if len(self.dead()) == len(self.backends):
            raise BackendError(
                f"all backends permanently failed: {sorted(self.dead())}"
            )

    def unquarantine(self, name: str, reason: str) -> None:
        """Symmetric inverse of :meth:`quarantine` (probation path).

        Only the adaptive probation protocol calls this, at matched op
        indexes on every rank, so the quarantine set stays symmetric.
        Phase groups recover with it, except from their own quarantines.
        """
        if name not in self.quarantined:
            return
        self.quarantined.discard(name)
        self.regate()
        # recovery changes dispatch exactly like quarantine did
        self.comm.invalidate_plans(f"unquarantine({name})")
        self.record("unquarantine", name, reason)

    def probe(self, name: str, p2p_channel: Optional[tuple] = None) -> tuple:
        """Consult the injector once under ``name``'s op counter for one
        scope (its collectives, or one directed p2p channel): the fault
        (None = healthy) and the op index it was drawn at."""
        if self.injector is None:
            return None, 0
        scope = ("coll", name) if p2p_channel is None else ("p2p", name, *p2p_channel)
        idx = self.counters[scope] = self.counters.get(scope, 0) + 1
        fault = self.injector.backend_fault(
            self.comm_id, name, idx, p2p=p2p_channel is not None,
            rank=self.ctx.rank, now=self.ctx.now, obs=self.obs,
        )
        return fault, idx

    def choose(
        self, family: OpFamily, nbytes: int, exclude: str = "", composite: bool = False
    ) -> "Backend | HierSpec":
        """The one backend decision (§V-F): the tuned choice when it can
        run here, else the first live backend in init order.

        The tuned choice runs when it is a live flat backend other than
        ``exclude`` or, on a ``composite`` (``hier``) row, a ``hier:*``
        entry whose constituents are both live; that returns its
        :class:`~repro.backends.hierarchical.HierSpec`.  A phase group
        has no table.  At a matched op index the table, the quarantine
        set and ``nbytes`` (but on the two alltoall rows, INTERNALS §12)
        agree on every rank, so every rank chooses alike."""
        dead = self.dead()
        table = self.comm.tuning_table if self.parent is None else None
        if table is not None:
            tuned = table.lookup(family.value, self.comm.world_size, nbytes)
            if composite and is_hier_name(tuned):
                try:
                    spec = parse_hier(tuned)
                except BackendError:
                    spec = None  # malformed: falls back like an unknown name
                if spec is not None and all(
                    part in self.backends and part not in dead
                    for part in (spec.intra, spec.inter)
                ):
                    return spec
            elif tuned is not None:
                tuned = canonical_name(tuned)
                if tuned in self.backends and tuned not in dead and tuned != exclude:
                    return self.backends[tuned]
        for name, backend in self.backends.items():
            if name not in dead and name != exclude:
                return backend
        raise BackendError(
            f"no surviving backend for {family.value}: quarantined {sorted(dead)}"
        )

    def admit(
        self, backend: Backend, family: OpFamily, nbytes: int,
        p2p_channel: Optional[tuple] = None,
    ) -> Backend:
        """Fault gate for one dispatch: consult the injector, retry
        transient faults with exponential backoff, quarantine and fail
        over on permanent ones.  Returns the backend that actually runs
        the operation."""
        hops = 0
        while True:
            if backend.name in self.dead():
                old = backend.name
                backend = self.choose(family, nbytes)
                self.record("failover", old, f"-> {backend.name}")
                continue
            if hops > 3 * len(self.backends):  # pragma: no cover - safety valve
                raise BackendError(f"fault failover did not converge for {family.value}")
            fault, idx = self.probe(backend.name, p2p_channel)
            if fault is None:
                return backend
            if fault.kind == "transient":
                retries = self.comm.config.comm_max_retries
                attempts = min(fault.fail_attempts, retries)
                for attempt in range(attempts):
                    self.record(
                        "retry", backend.name, f"op {idx} attempt {attempt + 1}/{retries}"
                    )
                    self.ctx.sleep(
                        RETRY_BACKOFF_US * (2.0 ** attempt), reason=f"retry({backend.name})"
                    )
                if fault.fail_attempts <= retries:
                    return backend  # cleared within the retry budget
                if p2p_channel is None:
                    # a collective that cannot clear its transient fault
                    # within the retry budget is treated as a permanent
                    # library failure (symmetric: same decision everywhere)
                    self.quarantine(
                        backend.name, f"transient fault persisted past {attempts} retries"
                    )
                    continue
                # p2p: reroute this one op, no global quarantine
                old = backend.name
                backend = self.choose(family, nbytes, exclude=old)
                self.record("failover", old, f"-> {backend.name} (p2p reroute)")
                hops += 1
                continue
            # permanent: the loop re-enters the quarantined branch and
            # fails over
            self.quarantine(backend.name, f"permanent fault at op {idx}")
