"""Online adaptive dispatch: feedback-driven retuning with backend
probation.

The offline tuner (§V-F) freezes one table from a one-time sweep; when
link quality drifts mid-run, or a quarantined backend recovers, "auto"
dispatch keeps serving stale choices forever.  This module closes the
loop: an :class:`AdaptiveRetuner` per top-level communicator watches
*completed* collective timings (EMA + log2 histogram per
``(op, world size, message bucket, backend)`` cell), detects drift
against the analytic cost-model expectation, re-tunes the cell through
bounded epsilon-greedy exploration, and commits the winner with an
in-place :meth:`~repro.core.tuning.TuningTable.add` — the table's
generation counter then recompiles only the affected "auto" dispatch
plans (see the plan cache, INTERNALS §12).  A probation path
periodically re-probes quarantined backends and symmetrically
un-quarantines on success.

SPMD symmetry (why this module is shaped the way it is)
-------------------------------------------------------

Every rank runs its own retuner, and any state that influences dispatch
must evolve identically on all ranks or rendezvous keys diverge and the
job deadlocks.  Two execution domains keep that invariant:

* the **post domain**: :meth:`AdaptiveRetuner.before_op` runs once per
  posted collective, at the same per-communicator op index on every
  rank (the same agree-at-op discipline as fault quarantine).  Table
  edits and probation probes apply here, so every rank's table is
  identical whenever the same logical op resolves.
* the **completion domain**: observations ride rendezvous completion
  flags, whose callbacks all run at one global instant with one shared
  duration — every rank ingests an *identical* observation stream and
  reaches identical decisions.  A decision made here cannot touch the
  table directly (ranks may have raced ahead posting ops), so its edit
  is deferred to effect index ``max_posted + 1``, a shared high-water
  mark no rank has reached yet; all ranks apply it in ``before_op``
  before posting that op.

Completion-domain code must never read per-rank post-domain state (op
counters, the live table, ``health.quarantined``) — only shared single-copy
values (``max_posted``, the shared quarantine mirror) are safe, because
all callbacks at one fire instant read the same object.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.backends.base import price_us
from repro.backends.hierarchical import HIER_FAMILIES, hier_cost_phases, parse_hier
from repro.backends.ops import OpFamily
from repro.core.exceptions import BackendError
from repro.core.tuning import message_bucket
from repro.obs.metrics import LogHistogram, ObsEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols import CommCore

#: action names mirrored into ``tuning.adapt.{name}`` counters
ACTIONS = ("drift", "explore", "retune", "probation")

#: EMA smoothing for observed per-cell latencies (weight of the newest
#: sample)
EMA_ALPHA = 0.25
#: cap on candidates per exploration sweep (flat backends first, then
#: ``hier:*`` composites)
MAX_CANDIDATES = 6
#: completed ops a cell waits after a retune commit before the drift
#: detector re-arms
COOLDOWN_OPS = 12
#: payload of the timing-only canary posted after an un-quarantine, bytes
CANARY_BYTES = 4096
#: seed for the deterministic epsilon-exploration hash
EXPLORE_SEED = 0


@dataclass
class _Shared:
    """Single-copy adaptive state all ranks share (``CommState.adapt``)."""

    #: max op index any rank has posted: the completion domain's only
    #: view of post progress
    max_posted: int = 0
    #: quarantine mirror, readable at fire instants
    quarantined: set = field(default_factory=set)
    #: epsilon trials posted per cell, marked once per logical trial
    trials_posted: dict = field(default_factory=dict)
    trial_marks: set = field(default_factory=set)


@dataclass
class _Cell:
    """Per-(op family, message bucket) adaptive state on one rank.

    The communicator's group size is fixed, so the world-size coordinate
    of the paper's table key is implicit.  All fields live in the
    completion domain except nothing — cells are only touched from
    :meth:`AdaptiveRetuner.on_complete`.
    """

    family: OpFamily
    bucket: int
    #: "steady" | "explore" | "cooldown"
    mode: str = "steady"
    #: the backend this cell believes is serving "auto" dispatch,
    #: tracked purely from the completion stream (reading the live
    #: table here would break symmetry)
    current: Optional[str] = None
    #: completed ops observed for this cell (any backend)
    completions: int = 0
    #: trial completions already attributed to epsilon probes
    trials_seen: int = 0
    ema: dict = field(default_factory=dict)
    count: dict = field(default_factory=dict)
    hist: dict = field(default_factory=dict)
    #: pure analytic expectation per backend (cached)
    analytic: dict = field(default_factory=dict)
    #: drift reference per backend: starts analytic, reset to the
    #: observed EMA at each retune commit so a uniformly degraded
    #: fabric does not trigger endless re-exploration
    baseline: dict = field(default_factory=dict)
    #: sweep bookkeeping: samples still owed per flat candidate
    explore_remaining: dict = field(default_factory=dict)
    #: hier:* candidates of the running sweep (scored analytically)
    explore_hier: list = field(default_factory=list)
    #: completion count at which a stalled sweep force-commits
    explore_deadline: int = 0
    #: completion count at which cooldown re-arms the drift detector
    cooldown_until: int = 0


class AdaptiveRetuner:
    """One per rank per top-level communicator (``adaptive.enabled``).

    The owning communicator clones its tuning table at construction so
    in-place retuning edits stay rank-private; see the module docstring
    for the two-domain symmetry argument.
    """

    def __init__(self, comm: "CommCore"):
        self.comm = comm
        self.ctx = comm.ctx
        self.cfg = comm.config.adaptive
        self.table = comm.tuning_table
        self._cells: dict[tuple[str, int], _Cell] = {}
        #: posted-collective index on this communicator (post domain)
        self._op_index = 0
        #: pending actions: (effect op index, domain, seq, fn) heap.
        #: Identical on every rank at matched op indexes — post-domain
        #: entries are scheduled at matched indexes, completion-domain
        #: entries at shared fire instants — so draining the heap in
        #: before_op applies the same edits everywhere.
        self._pending: list = []
        self._post_seq = 0
        self._fire_seq = 0
        #: reentrancy guard: a probation canary posts a real collective
        #: from inside before_op; it must not count as a new op
        self.quiet = False
        state = comm._group.state
        self._sh = state.adapt = state.adapt or _Shared()
        self._lead = comm.ctx.rank == comm.group_ranks[0]
        system = comm.ctx.system
        self._multinode = (
            len({system.node_of(r) for r in comm.group_ranks}) > 1
        )
        #: per-rank action counts (identical across ranks)
        self.stats = {name: 0 for name in ACTIONS}

    # -- post domain -------------------------------------------------------

    def before_op(self, family: OpFamily, nbytes: int) -> None:
        """Hook run once per posted collective, before backend
        resolution, so pending table edits affect the op being posted."""
        self._op_index += 1
        idx = self._op_index
        sh = self._sh
        if idx > sh.max_posted:
            sh.max_posted = idx
        pending = self._pending
        while pending and pending[0][0] <= idx:
            heapq.heappop(pending)[-1]()
        if self.cfg.epsilon > 0.0:
            self._maybe_trial(family, nbytes, idx)

    def _schedule_post(self, effect: int, fn: Callable[[], None]) -> None:
        """Schedule from the post domain (every rank schedules at the
        same op index, so immediate future indexes are symmetric)."""
        self._post_seq += 1
        heapq.heappush(self._pending, (effect, 0, self._post_seq, fn))

    def _schedule_fire(self, fn: Callable[[], None], offset: int = 0) -> int:
        """Schedule from the completion domain: the effect index is the
        shared posted high-water mark plus one — no rank has posted that
        op yet, so every rank applies the action before resolving it."""
        effect = self._sh.max_posted + 1 + offset
        self._fire_seq += 1
        heapq.heappush(self._pending, (effect, 1, self._fire_seq, fn))
        return effect

    def _hash(self, *parts) -> int:
        key = "|".join(
            str(p) for p in (EXPLORE_SEED, self.comm.comm_id, *parts)
        )
        return zlib.crc32(key.encode("utf-8"))

    def _maybe_trial(self, family: OpFamily, nbytes: int, idx: int) -> None:
        """Steady-state epsilon exploration: with probability ``epsilon``
        (a deterministic per-op hash, so all ranks draw identically),
        serve this one op on an alternate backend to keep its EMA fresh,
        restoring the table entry at the next op index."""
        op = family.value
        ws = self.comm.world_size
        bucket = message_bucket(nbytes)
        row = self.table.entries.get(op, {}).get(ws, {})
        cur = row.get(bucket)
        if cur is None:
            return  # only trial cells the table explicitly serves
        if self._hash(op, bucket, idx) / 2**32 >= self.cfg.epsilon:
            return
        quarantined = self._sh.quarantined
        alts = [
            name
            for name in self.comm.backends
            if name != cur and name not in quarantined
        ]
        if not alts:
            return
        alt = alts[self._hash(op, bucket, idx, "alt") % len(alts)]
        table = self.table
        table.add(op, ws, bucket, alt)
        self._schedule_post(idx + 1, lambda: table.add(op, ws, bucket, cur))
        mark = (op, bucket, idx)
        sh = self._sh
        if mark not in sh.trial_marks:
            # one logical trial, marked by whichever rank posts first
            sh.trial_marks.add(mark)
            key = (op, bucket)
            sh.trials_posted[key] = sh.trials_posted.get(key, 0) + 1
        self._emit("explore", alt, detail=f"epsilon-trial@{op}/{bucket}")

    # -- probation (quarantine recovery) -----------------------------------

    def on_quarantine(self, backend_name: str) -> None:
        """Called by ``Health.quarantine`` — post domain, at the same op
        index on every rank."""
        self._sh.quarantined.add(backend_name)
        interval = self.cfg.probation_interval
        if interval > 0:
            self._schedule_post(
                self._op_index + interval, lambda: self._probe(backend_name)
            )
            self._emit(
                "probation",
                backend_name,
                detail=f"scheduled@+{interval}",
            )

    def _probe(self, backend_name: str) -> None:
        """One probation probe (runs in before_op at a matched op index):
        ``health.probe`` consults the fault injector under the backend's
        own op counter; on a healthy verdict un-quarantine and post a
        timing-only canary that re-seeds the backend's observed latency."""
        health = self.comm.health
        if backend_name not in health.quarantined:
            self._sh.quarantined.discard(backend_name)
            return
        self.stats["probation"] += 1
        fault, _ = health.probe(backend_name)
        if fault is not None:
            self._emit(
                "probation", backend_name, detail=f"probe-failed@{self._op_index}"
            )
            if self.cfg.probation_interval > 0:
                self._schedule_post(
                    self._op_index + self.cfg.probation_interval,
                    lambda: self._probe(backend_name),
                )
            return
        self._sh.quarantined.discard(backend_name)
        health.unquarantine(
            backend_name, f"probation probe cleared at op {self._op_index}"
        )
        self._emit("probation", backend_name, detail="recovered")
        self._canary(backend_name)

    def _canary(self, backend_name: str) -> None:
        """Timing-only allreduce on the recovered backend: every rank
        posts it at the same op index (we are inside before_op), so the
        rendezvous matches; ``quiet`` keeps it from counting as a new
        adaptive op while its completion still feeds the EMA."""
        tensor = self.ctx.virtual_tensor(max(1, CANARY_BYTES // 4))
        self.quiet = True
        try:
            self.comm.all_reduce(backend_name, tensor)
        finally:
            self.quiet = False

    # -- completion domain -------------------------------------------------

    def attach(
        self,
        family: OpFamily,
        backend_name: str,
        nbytes: int,
        rdv,
        auto: bool,
    ) -> None:
        """Register the observation for one posted collective on its
        rendezvous flag.  ``fire()`` runs all ranks' callbacks at one
        global instant with one shared duration, which is what makes the
        per-rank observation streams identical."""
        cell_key = (family.value, message_bucket(nbytes))
        flag = rdv.flag

        def emit() -> None:
            duration = rdv.duration
            if duration:
                self.on_complete(cell_key, family, backend_name, duration, auto)

        if flag.is_set:
            emit()
        else:
            flag.callbacks.append(emit)

    def on_complete(
        self,
        cell_key: tuple[str, int],
        family: OpFamily,
        backend_name: str,
        duration: float,
        auto: bool,
    ) -> None:
        cell = self._cells.get(cell_key)
        if cell is None:
            cell = self._cells[cell_key] = _Cell(family=family, bucket=cell_key[1])
        cell.completions += 1
        alpha = EMA_ALPHA
        prev = cell.ema.get(backend_name)
        cell.ema[backend_name] = (
            duration if prev is None else alpha * duration + (1.0 - alpha) * prev
        )
        cell.count[backend_name] = cell.count.get(backend_name, 0) + 1
        hist = cell.hist.get(backend_name)
        if hist is None:
            hist = cell.hist[backend_name] = LogHistogram()
        hist.record(duration)
        if not auto:
            return  # explicit dispatch is measured but never retuned
        if cell.mode == "explore":
            self._explore_step(cell, cell_key, backend_name)
        elif cell.mode == "cooldown":
            if cell.completions >= cell.cooldown_until:
                cell.mode = "steady"
        else:
            self._steady_step(cell, cell_key, backend_name)

    def _steady_step(
        self, cell: _Cell, cell_key: tuple[str, int], backend_name: str
    ) -> None:
        cfg = self.cfg
        if cell.current is None:
            cell.current = backend_name
        elif backend_name != cell.current:
            posted = self._sh.trials_posted.get(cell_key, 0)
            if cell.trials_seen < posted:
                cell.trials_seen += 1  # an epsilon trial, not a move
            else:
                # the dispatch layer itself moved (quarantine failover
                # or an external table edit): follow it
                cell.current = backend_name
            return
        cur = cell.current
        if cell.count[cur] < cfg.min_samples:
            return
        base = cell.baseline.get(cur)
        if base is None:
            base = cell.baseline[cur] = self._expected(cell, cur)
        ema = cell.ema[cur]
        trigger = None
        if base > 0.0 and (
            ema > cfg.drift_ratio * base or ema * cfg.drift_ratio < base
        ):
            trigger = f"{cur}:{ema:.1f}us vs expected {base:.1f}us"
        else:
            for alt, alt_ema in cell.ema.items():
                if alt == cur:
                    continue
                if (
                    cell.count.get(alt, 0) >= cfg.min_samples
                    and alt_ema * cfg.drift_ratio < ema
                ):
                    trigger = f"{alt}:{alt_ema:.1f}us beats {cur}:{ema:.1f}us"
                    break
        if trigger is None:
            return
        self.stats["drift"] += 1
        self._emit("drift", cur, detail=f"{cell_key[0]}/{cell_key[1]} {trigger}")
        self._start_explore(cell, cell_key)

    def _candidates(self, cell: _Cell) -> list[str]:
        """Exploration candidates: live flat backends first, then
        ``hier:*`` composites of live constituents, capped at
        :data:`MAX_CANDIDATES`.  Quarantine state comes from the shared
        mirror — this runs in the completion domain."""
        quarantined = self._sh.quarantined
        cur = cell.current
        live = [n for n in self.comm.backends if n not in quarantined]
        out = [n for n in live if n != cur]
        if self._multinode and cell.family in HIER_FAMILIES:
            for intra in live:
                for inter in live:
                    if intra == inter:
                        continue
                    name = f"hier:{intra}+{inter}"
                    if name != cur:
                        out.append(name)
        return out[:MAX_CANDIDATES]

    def _start_explore(self, cell: _Cell, cell_key: tuple[str, int]) -> None:
        cfg = self.cfg
        candidates = self._candidates(cell)
        flats = [c for c in candidates if not c.startswith("hier:")]
        cell.explore_hier = [c for c in candidates if c.startswith("hier:")]
        if not candidates:
            # nowhere to go: accept the observed latency as the new
            # normal so drift does not re-fire every completion
            cell.baseline[cell.current] = cell.ema[cell.current]
            return
        if cell.current is not None and not cell.current.startswith("hier:"):
            # the incumbent competes on equal terms: its lifetime EMA
            # lags the very drift that triggered this sweep (a stale,
            # too-flattering score), so it gets a fresh window like
            # every other candidate
            flats = [cell.current, *flats][:MAX_CANDIDATES]
        cell.mode = "explore"
        for name in flats:
            cell.ema.pop(name, None)
            cell.count[name] = 0
        cell.explore_remaining = {c: cfg.explore_ops for c in flats}
        cell.explore_deadline = (
            cell.completions + (len(flats) + 2) * cfg.explore_ops + 8
        )
        op, ws, bucket = cell.family.value, self.comm.world_size, cell.bucket
        table = self.table
        for i, cand in enumerate(flats):
            # candidate i serves ops [base + i*E, base + (i+1)*E); the
            # last one keeps serving until the commit edit lands
            self._schedule_fire(
                lambda c=cand: table.add(op, ws, bucket, c),
                offset=i * cfg.explore_ops,
            )
        self.stats["explore"] += 1
        self._emit(
            "explore",
            ",".join(candidates),
            detail=f"sweep {cell_key[0]}/{cell_key[1]}",
        )
        if not flats:
            self._commit(cell, cell_key)  # hier-only: score analytically

    def _explore_step(
        self, cell: _Cell, cell_key: tuple[str, int], backend_name: str
    ) -> None:
        remaining = cell.explore_remaining
        owed = remaining.get(backend_name)
        if owed is not None and owed > 0:
            remaining[backend_name] = owed - 1
        done = all(v <= 0 for v in remaining.values())
        if done or cell.completions >= cell.explore_deadline:
            self._commit(cell, cell_key)

    def _commit(self, cell: _Cell, cell_key: tuple[str, int]) -> None:
        """Pick the sweep winner and schedule the table edit.  Flat
        candidates score by measured EMA; hier composites by analytic
        phase costs scaled with their constituents' observed drift
        (composites are never measured directly — a phase group has no
        retuner to observe its posts)."""
        scores: dict[str, float] = {}
        for name, ema in cell.ema.items():
            if name == cell.current or name in cell.explore_remaining:
                if cell.count.get(name, 0) > 0:
                    scores[name] = ema
        for name in cell.explore_hier:
            score = self._hier_score(cell, name)
            if score is not None:
                scores[name] = score
        cell.explore_remaining = {}
        cell.explore_hier = []
        if not scores:
            cell.mode = "steady"
            return
        winner = min(sorted(scores), key=lambda name: scores[name])
        previous = cell.current
        op, ws, bucket = cell.family.value, self.comm.world_size, cell.bucket
        table = self.table
        self._schedule_fire(lambda: table.add(op, ws, bucket, winner))
        cell.current = winner
        cell.baseline[winner] = scores[winner]
        cell.mode = "cooldown"
        cell.cooldown_until = cell.completions + COOLDOWN_OPS
        self.stats["retune"] += 1
        self._emit("retune", winner, detail=f"{previous}->{winner}")

    # -- pricing -----------------------------------------------------------

    def _expected(self, cell: _Cell, backend_name: str) -> float:
        """Analytic expectation for one cell/backend: the resolving
        rank's duration composition, ``price_us`` without overheads
        (codec and staging extras are approximated away)."""
        cached = cell.analytic.get(backend_name)
        if cached is not None:
            return cached
        comm = self.comm
        backend = comm.backends.get(backend_name)
        if backend is None:
            return 0.0
        cost = cell.analytic[backend_name] = price_us(
            self.ctx.system, backend, cell.family, cell.bucket, comm.world_size,
            comm._group.comm_path, comm.config, overheads=False,
        )
        return cost

    def _hier_score(self, cell: _Cell, name: str) -> Optional[float]:
        try:
            spec = parse_hier(name)
        except BackendError:
            return None
        phases = hier_cost_phases(
            self.ctx.system, spec, cell.family, cell.bucket,
            self.comm.world_size, self.comm.config,
        )
        if phases is None:
            return None
        total = 0.0
        for phase in phases:
            total += phase.cost_us * self._drift_scale(cell, phase.backend)
            total += phase.overhead_us
        return total

    def _drift_scale(self, cell: _Cell, backend_name: str) -> float:
        """Observed/analytic latency ratio of a flat constituent — how a
        sweep's fresh flat measurements inform hier composite scores."""
        ema = cell.ema.get(backend_name)
        if ema is None or cell.count.get(backend_name, 0) < 1:
            return 1.0
        analytic = self._expected(cell, backend_name)
        return ema / analytic if analytic > 0.0 else 1.0

    # -- observability -----------------------------------------------------

    def _emit(self, action: str, backend: str, detail: str = "") -> None:
        """One ``kind="adapt"`` ObsEvent per logical action, emitted by
        the group's lead rank only so ``tuning.adapt.*`` counters read
        as one increment per decision."""
        obs = self.comm._obs
        if obs is None or not self._lead:
            return
        now = self.ctx.now
        obs.observe(
            ObsEvent(
                kind="adapt",
                rank=self.ctx.rank,
                stream="",
                backend=backend,
                family=action,
                nbytes=0,
                step=obs.current_step(self.ctx.rank),
                start=now,
                end=now,
                detail=detail,
            )
        )

    def snapshot(self) -> dict:
        """Debug/report view: per-cell EMA state and action counts."""
        return {
            "ops": self._op_index,
            "stats": dict(self.stats),
            "cells": {
                f"{key[0]}/{key[1]}": {
                    "mode": cell.mode,
                    "current": cell.current,
                    "completions": cell.completions,
                    "ema": {k: round(v, 3) for k, v in cell.ema.items()},
                    "count": dict(cell.count),
                }
                for key, cell in sorted(self._cells.items())
            },
        }
