"""Online adaptive dispatch: feedback-driven retuning with backend
probation.

The offline tuner (§V-F) freezes one table from a one-time sweep; when
link quality drifts mid-run, or a quarantined backend recovers, "auto"
dispatch keeps serving stale choices forever.  This module closes the
loop in two parts, one per execution domain:

* the **completion domain** is one :class:`CellBook` per group,
  ``comm_id`` and communicator generation (``CommState.adapt``).  The
  resolver hands it one observation per completed collective, on the
  rendezvous flag.  It
  keeps an EMA per ``(op, world size, message bucket, backend)`` cell,
  detects drift against the analytic cost-model expectation, re-tunes
  the cell through bounded exploration, and records each decided table
  edit as data in :attr:`CellBook.edits`.
  An edit takes effect at op index ``max_posted + 1 (+ offset)``, a
  posted high-water mark that no rank had reached when it was decided.
* the **post domain** is one :class:`AdaptiveRetuner` per rank.
  :meth:`AdaptiveRetuner.before_op` runs once per posted collective, at
  the same per-communicator op index on every rank (the agree-at-op
  discipline of fault quarantine).  It runs the probation probes due
  at this index, then swaps ``comm.tuning_table`` to the group's next
  table version for each book edit due (:meth:`CellBook.version`), so
  ranks at one version share their "auto" dispatch plans (INTERNALS
  §12).  Epsilon trials, drawn only for "auto" posts, route that one
  post to the alternate's indexed plan and never edit a table; the
  probation path, which periodically re-probes quarantined backends
  and symmetrically un-quarantines on success, also runs here.

Every rank applies the same edits at the same op index, so the table
that decides rendezvous keys is one object per version.  The installed
table is never edited: it is shared with the caller until the first
edit, as it is without adaptive dispatch.  The book never reads
per-rank post-domain state (op counters, the live table,
``health.quarantined``): only ``max_posted`` and its quarantine mirror.
"""

from __future__ import annotations

import bisect
import heapq
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.backends.base import is_hier_name, price_us
from repro.backends.hierarchical import HIER_FAMILIES, hier_cost_phases, parse_hier
from repro.backends.ops import OpFamily
from repro.core.exceptions import BackendError
from repro.core.tuning import TuningTable, message_bucket
from repro.obs.metrics import ObsEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols import CommCore

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
class _Cell:
    """The adaptive state of one (op family, message bucket) cell.

    The communicator's group size is fixed, so the world-size coordinate
    of the paper's table key is implicit.
    """

    family: OpFamily
    bucket: int
    #: "steady" | "explore" | "cooldown"
    mode: str = "steady"
    #: the backend this cell believes is serving "auto" dispatch,
    #: tracked purely from the completion stream
    current: Optional[str] = None
    #: completed ops observed for this cell (any backend)
    completions: int = 0
    ema: dict = field(default_factory=dict)
    count: dict = field(default_factory=dict)
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


class CellBook:
    """The completion domain of one communicator's adaptive dispatch:
    one per group, ``comm_id`` and generation (``CommState.adapt``),
    built by the first member rank whose retuner starts.  Its cells,
    decisions and table versions exist once; the member ranks read only
    :attr:`edits` (through their cursors), :meth:`version` and
    :attr:`quarantined`."""

    def __init__(self, comm: "CommCore"):
        self.cfg = comm.config.adaptive
        self.config = comm.config
        #: flat backends by name, for candidates and analytic pricing
        self.backends = comm.backends
        self.world_size = comm.world_size
        self.system = comm.ctx.system
        self.comm_path = comm._group.record.comm_path
        self.engine = comm.ctx.engine
        self.obs = comm._obs
        #: the rank the book's ObsEvents are attributed to
        self.lead = comm.group_ranks[0]
        self.multinode = self.comm_path.spans_nodes
        #: the member ranks whose retuner holds the book
        self.joined: set = set()
        #: max op index any rank has posted: the book's only view of
        #: post progress
        self.max_posted = 0
        #: quarantine mirror, written by the ranks' post domains
        self.quarantined: set = set()
        self.cells: dict[tuple[str, int], _Cell] = {}
        #: decided table edits ``(effect index, op, bucket, backend)`` in
        #: effect order, ties in decision order
        self.edits: list[tuple[int, str, int, str]] = []
        #: ``(id(table), k)`` -> (``table`` plus edit k, ``table``: pins the id)
        self._versions: dict[tuple[int, int], tuple] = {}
        #: completion-domain action counts
        self.stats = {"drift": 0, "explore": 0, "retune": 0}

    def on_complete(
        self,
        family: OpFamily,
        nbytes: int,
        backend_name: str,
        duration: float,
        auto: bool,
        trial: bool,
    ) -> None:
        """Ingest one completed collective (a flag callback, run once);
        ``trial``: its op index was an epsilon trial."""
        cell_key = (family.value, message_bucket(nbytes))
        cell = self.cells.get(cell_key)
        if cell is None:
            cell = self.cells[cell_key] = _Cell(family=family, bucket=cell_key[1])
        cell.completions += 1
        alpha = EMA_ALPHA
        prev = cell.ema.get(backend_name)
        cell.ema[backend_name] = (
            duration if prev is None else alpha * duration + (1.0 - alpha) * prev
        )
        cell.count[backend_name] = cell.count.get(backend_name, 0) + 1
        if not auto:
            return  # explicit dispatch is measured but never retuned
        if cell.mode == "explore":
            self._explore_step(cell, backend_name)
        elif cell.mode == "cooldown":
            if cell.completions >= cell.cooldown_until:
                cell.mode = "steady"
        else:
            self._steady_step(cell, cell_key, backend_name, trial)

    def _edit(self, cell: _Cell, backend_name: str, offset: int = 0) -> None:
        """Decide one table edit, effective at an op index no rank has
        posted yet, so every rank applies it before resolving that op and
        after every edit a rank has applied (whose edits stay a prefix)."""
        edit = (self.max_posted + 1 + offset, cell.family.value, cell.bucket, backend_name)
        bisect.insort(self.edits, edit, key=lambda e: e[0])

    def version(self, table: Optional[TuningTable], k: int) -> TuningTable:
        """``table`` (None: an empty one) plus edit ``k``, built once for
        the group by the first rank to reach it, and never edited after.
        A world-size row the edit creates starts as a copy of the row a
        lookup served, so the edit moves only its own cell."""
        built = self._versions.get((id(table), k))
        if built is None:
            _, op, bucket, name = self.edits[k]
            version = TuningTable(system=self.system.name) if table is None else table.clone()
            scales, ws = version.entries.get(op), self.world_size
            if scales and ws not in scales:
                scales[ws] = dict(scales[TuningTable._nearest(sorted(scales), ws)])
            version.add(op, ws, bucket, name)
            built = self._versions[(id(table), k)] = (version, table)
        return built[0]

    def _steady_step(
        self, cell: _Cell, cell_key: tuple[str, int], backend_name: str, trial: bool
    ) -> None:
        cfg = self.cfg
        if cell.current is None:
            cell.current = backend_name
        elif backend_name != cell.current:
            if not trial:  # a trial's alternate is not a move
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
        self.emit("drift", cur, detail=f"{cell_key[0]}/{cell_key[1]} {trigger}")
        self._start_explore(cell, cell_key)

    def _candidates(self, cell: _Cell) -> list[str]:
        """Exploration candidates: live flat backends first, then
        ``hier:*`` composites of live constituents, capped at
        :data:`MAX_CANDIDATES`."""
        quarantined = self.quarantined
        cur = cell.current
        live = [n for n in self.backends if n not in quarantined]
        out = [n for n in live if n != cur]
        if self.multinode and cell.family in HIER_FAMILIES:
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
        flats = [c for c in candidates if not is_hier_name(c)]
        cell.explore_hier = [c for c in candidates if is_hier_name(c)]
        if not candidates:
            # nowhere to go: accept the observed latency as the new
            # normal so drift does not re-fire every completion
            cell.baseline[cell.current] = cell.ema[cell.current]
            return
        if cell.current is not None and not is_hier_name(cell.current):
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
        for i, cand in enumerate(flats):
            # candidate i serves ops [base + i*E, base + (i+1)*E); the
            # last one keeps serving until the commit edit lands
            self._edit(cell, cand, offset=i * cfg.explore_ops)
        self.stats["explore"] += 1
        self.emit(
            "explore",
            ",".join(candidates),
            detail=f"sweep {cell_key[0]}/{cell_key[1]}",
        )
        if not flats:
            self._commit(cell)  # hier-only: score analytically

    def _explore_step(self, cell: _Cell, backend_name: str) -> None:
        remaining = cell.explore_remaining
        owed = remaining.get(backend_name)
        if owed is not None and owed > 0:
            remaining[backend_name] = owed - 1
        done = all(v <= 0 for v in remaining.values())
        if done or cell.completions >= cell.explore_deadline:
            self._commit(cell)

    def _commit(self, cell: _Cell) -> None:
        """Pick the sweep winner and decide the table edit.  Flat
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
        self._edit(cell, winner)
        cell.current = winner
        cell.baseline[winner] = scores[winner]
        cell.mode = "cooldown"
        cell.cooldown_until = cell.completions + COOLDOWN_OPS
        self.stats["retune"] += 1
        self.emit("retune", winner, detail=f"{previous}->{winner}")

    # -- pricing -----------------------------------------------------------

    def _expected(self, cell: _Cell, backend_name: str) -> float:
        """Analytic expectation for one cell/backend: the resolver's
        duration composition, ``price_us`` without overheads (codec and
        staging extras are approximated away)."""
        cached = cell.analytic.get(backend_name)
        if cached is not None:
            return cached
        backend = self.backends.get(backend_name)
        if backend is None:
            return 0.0
        cost = cell.analytic[backend_name] = price_us(
            self.system, backend, cell.family, cell.bucket, self.world_size,
            self.comm_path, self.config, overheads=False,
        )
        return cost

    def _hier_score(self, cell: _Cell, name: str) -> Optional[float]:
        try:
            spec = parse_hier(name)
        except BackendError:
            return None
        phases = hier_cost_phases(
            self.system, spec, cell.family, cell.bucket, self.world_size, self.config,
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

    def emit(self, action: str, backend: str, detail: str = "") -> None:
        """One ``kind="adapt"`` ObsEvent per logical action, attributed
        to the group's lead rank at ``engine.now``, so
        ``tuning.adapt.*`` counters read as one increment per decision."""
        obs = self.obs
        if obs is None:
            return
        now = self.engine.now
        obs.observe(
            ObsEvent(
                kind="adapt",
                rank=self.lead,
                stream="",
                backend=backend,
                family=action,
                nbytes=0,
                step=obs.current_step(self.lead),
                start=now,
                end=now,
                detail=detail,
            )
        )


class AdaptiveRetuner:
    """The post domain of adaptive dispatch: one per rank per top-level
    communicator (``adaptive.enabled``).

    It never edits a table: a due book edit swaps ``comm.tuning_table``
    to the group's version of it plus that edit, so an edit that falls
    due after a swap lands in the swapped-in table.
    """

    def __init__(self, comm: "CommCore"):
        self.comm = comm
        self.ctx = comm.ctx
        self.cfg = comm.config.adaptive
        # a rank's k-th adaptive communicator on one group and comm_id
        # shares book k: the first in the group's list it has not joined
        rank, books = comm.ctx.rank, comm._group.state.adapt
        self.book = next((b for b in books if rank not in b.joined), None)
        if self.book is None:
            self.book = CellBook(comm)
            books.append(self.book)
        self.book.joined.add(rank)
        if len(self.book.joined) == comm.world_size:
            books.remove(self.book)  # every member holds it: none looks again
        #: the book's edits this rank has passed, a prefix of
        #: ``book.edits``: its position in the group's table versions
        self._applied = len(self.book.edits)
        #: posted-collective index on this communicator
        self._op_index = 0
        #: pending probation probes: (effect op index, seq, fn) heap
        self._pending: list = []
        self._post_seq = 0
        #: reentrancy guard: a probation canary posts a real collective
        #: from inside before_op; it must not count as a new op
        self.quiet = False
        self._lead = comm.ctx.rank == comm.group_ranks[0]
        self.probations = 0
        #: the alternate an epsilon trial routes the ``"auto"`` op being
        #: posted to, else None (set by :meth:`_maybe_trial`; ``_post``
        #: routes by it, the resolver tells the book)
        self.trial: Optional[str] = None

    def before_op(self, family: OpFamily, nbytes: int, auto: bool) -> None:
        """Hook run once per posted collective, before backend
        resolution, so due probes and table edits affect the op being
        posted; an ``auto`` post may draw an epsilon trial."""
        self._op_index += 1
        idx = self._op_index
        self.trial = None
        book, comm = self.book, self.comm
        if idx > book.max_posted:
            book.max_posted = idx
        pending = self._pending
        while pending and pending[0][0] <= idx:
            heapq.heappop(pending)[-1]()
        edits = book.edits
        while self._applied < len(edits) and edits[self._applied][0] <= idx:
            comm.tuning_table = book.version(comm.tuning_table, self._applied)
            self._applied += 1
        if auto and self.cfg.epsilon > 0.0:
            self._maybe_trial(family, nbytes, idx)

    def _schedule_post(self, effect: int, fn: Callable[[], None]) -> None:
        """Schedule a probation probe at an op index every rank reaches
        the same way."""
        self._post_seq += 1
        heapq.heappush(self._pending, (effect, self._post_seq, fn))

    def _hash(self, *parts) -> int:
        key = "|".join(
            str(p) for p in (EXPLORE_SEED, self.comm.comm_id, *parts)
        )
        return zlib.crc32(key.encode("utf-8"))

    def _maybe_trial(self, family: OpFamily, nbytes: int, idx: int) -> None:
        """Steady-state epsilon exploration: with probability ``epsilon``
        (a deterministic per-op hash, so all ranks draw identically),
        serve this one ``"auto"`` op on a hash-picked alternate backend
        to keep its EMA fresh.  The table is left alone: ``_post`` posts
        the op on the plan its group indexes for :attr:`trial`."""
        op, table = family.value, self.comm.tuning_table
        bucket = message_bucket(nbytes)
        row = table.entries.get(op, {}).get(self.comm.world_size, {}) if table else {}
        cur = row.get(bucket)
        if cur is None:
            return  # only trial cells the table explicitly serves
        if self._hash(op, bucket, idx) / 2**32 >= self.cfg.epsilon:
            return
        # this rank's own set: every rank has reached this op index, so
        # it agrees across ranks; the group's mirror may already hold a
        # quarantine another rank's gate added at this same op
        quarantined = self.comm.health.quarantined
        alts = [
            name
            for name in self.comm.backends
            if name != cur and name not in quarantined
        ]
        if not alts:
            return
        alt = self.trial = alts[self._hash(op, bucket, idx, "alt") % len(alts)]
        self._emit("explore", alt, detail=f"epsilon-trial@{op}/{bucket}")

    # -- probation (quarantine recovery) -----------------------------------

    def on_quarantine(self, backend_name: str) -> None:
        """Called by ``Health.quarantine`` — post domain, at the same op
        index on every rank."""
        self.book.quarantined.add(backend_name)
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
            self.book.quarantined.discard(backend_name)
            return
        self.probations += 1
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
        self.book.quarantined.discard(backend_name)
        health.unquarantine(
            backend_name, f"probation probe cleared at op {self._op_index}"
        )
        self._emit("probation", backend_name, detail="recovered")
        self._canary(backend_name)

    def _canary(self, backend_name: str) -> None:
        """Timing-only allreduce on the recovered backend: every rank
        posts it at the same op index (we are inside before_op), so the
        rendezvous matches; ``quiet`` keeps it from counting as a new
        adaptive op while its completion still feeds the book."""
        tensor = self.ctx.virtual_tensor(max(1, CANARY_BYTES // 4))
        self.quiet = True
        try:
            self.comm.all_reduce(backend_name, tensor)
        finally:
            self.quiet = False

    def _emit(self, action: str, backend: str, detail: str = "") -> None:
        """A post-domain action is taken by every rank; the lead's
        stands for all."""
        if self._lead:
            self.book.emit(action, backend, detail)

    def snapshot(self) -> dict:
        """Debug/report view: per-cell EMA state and action counts."""
        return {
            "ops": self._op_index,
            "stats": {**self.book.stats, "probation": self.probations},
            "cells": {
                f"{key[0]}/{key[1]}": {
                    "mode": cell.mode,
                    "current": cell.current,
                    "completions": cell.completions,
                    "ema": {k: round(v, 3) for k, v in cell.ema.items()},
                    "count": dict(cell.count),
                }
                for key, cell in sorted(self.book.cells.items())
            },
        }
