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

from repro.backends.base import Backend, canonical_name
from repro.backends.ops import OpFamily
from repro.core.config import RETRY_BACKOFF_US
from repro.core.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols import CommCore


class Health:
    """Whether each backend of one communicator may serve an op."""

    def __init__(self, comm: "CommCore"):
        # a proxy: no comm <-> health cycle, so comms free without the GC
        self.comm = weakref.proxy(comm)
        self.ctx = comm.ctx
        self.backends = comm.backends
        self.obs = comm.ctx.shared.get("obs")
        #: permanently failed backends; decisions adding to this set are
        #: deterministic per (comm, backend, collective index) so every
        #: rank quarantines at the same op and the set stays symmetric
        self.quarantined: set = set()
        #: the quarantines a parent put here, which its recovery lifts
        self.inherited: set = set()
        #: per-scope op counters driving injector decisions
        self.counters: dict = {}
        #: phase communicators' health, reached by the cascades
        self.children: list[Health] = []
        #: the job's fault injector, installed into shared state by the
        #: Simulator before any rank runs
        self.injector = comm.ctx.shared.get("injector")
        #: the per-op gate: False (no injector, nothing quarantined)
        #: keeps the healthy path at one attribute truth test
        self.gate = self.injector is not None
        self.log = None
        if self.gate:
            from repro.ext.logging_ext import CommLogger

            # retry/failover events always go to the shared comm log,
            # even when per-op logging is off
            self.log = CommLogger.shared(self.ctx)

    def record(self, kind: str, name: str, detail: str = "") -> None:
        if self.log is not None:
            self.log.log_event(kind, self.ctx.rank, name, self.ctx.now, detail)

    def adopt(self, child: "Health") -> None:
        """Register a phase communicator's health: it inherits this
        one's quarantines now and follows both cascades from here on."""
        # construction order: each is logged, and a set walk is hash order
        for name in child.backends:
            if name in self.quarantined:
                child.quarantine(name, "inherited from parent communicator", True)
        self.children.append(child)

    def quarantine(self, name: str, reason: str, inherited: bool = False) -> None:
        if name in self.quarantined:
            return
        self.quarantined.add(name)
        if inherited:
            self.inherited.add(name)
        self.gate = True
        # a quarantine changes dispatch for every subsequent op (auto
        # resolution skips the backend, explicit dispatch reroutes), so
        # compiled plans must recompute from the degraded state
        self.comm.invalidate_plans(f"quarantine({name})")
        self.record("quarantine", name, reason)
        retuner = self.comm.retuner
        if retuner is not None:
            # probation: the retuner re-probes the backend at matched op
            # indexes and un-quarantines symmetrically on success
            retuner.on_quarantine(name)
        # a backend the parent declares dead must not keep serving
        # hierarchical phases; each phase communicator degrades (and
        # fails over) independently.  Child-local quarantines do NOT
        # propagate upward — a fault observed only inside one phase
        # group is handled by that group's own failover.
        for child in self.children:
            if name in child.backends:
                child.quarantine(name, f"parent: {reason}", True)
        if len(self.quarantined) == len(self.backends):
            raise BackendError(
                f"all backends permanently failed: {sorted(self.quarantined)}"
            )

    def unquarantine(self, name: str, reason: str) -> None:
        """Symmetric inverse of :meth:`quarantine` (probation path).

        Only the adaptive probation protocol calls this, at matched op
        indexes on every rank, so the quarantine set stays symmetric.
        Phase children whose quarantine came from this communicator
        recover with it; a child-local quarantine stays put, mirroring
        the asymmetry of the quarantine cascade.
        """
        if name not in self.quarantined:
            return
        self.quarantined.discard(name)
        self.inherited.discard(name)
        self.gate = self.injector is not None or bool(self.quarantined)
        # recovery changes dispatch exactly like quarantine did
        self.comm.invalidate_plans(f"unquarantine({name})")
        self.record("unquarantine", name, reason)
        for child in self.children:
            if name in child.inherited:
                child.unquarantine(name, f"parent: {reason}")

    def probe(self, name: str, p2p_channel: Optional[tuple] = None) -> tuple:
        """Consult the injector once under ``name``'s op counter for one
        scope (its collectives, or one directed p2p channel): the fault
        (None = healthy) and the op index it was drawn at."""
        if self.injector is None:
            return None, 0
        scope = ("coll", name) if p2p_channel is None else ("p2p", name, *p2p_channel)
        idx = self.counters[scope] = self.counters.get(scope, 0) + 1
        fault = self.injector.backend_fault(
            self.comm.comm_id, name, idx, p2p=p2p_channel is not None,
            rank=self.ctx.rank, now=self.ctx.now, obs=self.obs,
        )
        return fault, idx

    def _survivor(self, family: OpFamily, nbytes: int, exclude: str = "") -> Backend:
        """Deterministic failover target: tuning table, then init order
        (§V-F dispatch, restricted to live backends)."""
        survivors = [n for n in self.backends if n not in self.quarantined and n != exclude]
        if not survivors:
            raise BackendError(
                f"no surviving backend for {family.value}: "
                f"quarantined {sorted(self.quarantined)}"
            )
        choice = survivors[0]
        table = self.comm.tuning_table
        if table is not None:
            tuned = table.lookup(family.value, self.comm.world_size, nbytes)
            if tuned is not None and canonical_name(tuned) in survivors:
                choice = canonical_name(tuned)
        return self.backends[choice]

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
            if backend.name in self.quarantined:
                old = backend.name
                backend = self._survivor(family, nbytes)
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
                backend = self._survivor(family, nbytes, exclude=old)
                self.record("failover", old, f"-> {backend.name} (p2p reroute)")
                hops += 1
                continue
            # permanent: the loop re-enters the quarantined branch and
            # fails over
            self.quarantine(backend.name, f"permanent fault at op {idx}")
