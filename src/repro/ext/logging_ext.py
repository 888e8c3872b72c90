"""Communication logging (paper §V-E).

Every MCR-DL operation is recorded with its family, backend, wire size,
and completion interval.  The paper uses exactly this extension to
generate the communication breakdowns of Figure 1 and Figure 12.

Each operation is one ``kind="comm"`` :class:`~repro.obs.metrics.ObsEvent`
row and each fault-handling action one ``kind="fault"`` row (``family``
is the action, ``start`` its time) in the job's
:class:`~repro.obs.metrics.EventLog`; the :class:`CommLogger` is a view
over them.  A collective's rows are one :class:`LogBatch`: its ranks'
posts add entries, and the rendezvous flag's fire builds the rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import EventLog, ObsEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Flag
    from repro.sim.process import RankContext


class LogBatch(list):
    """The comm-log entries of one collective's ranks, ``(rank, post
    time, step, nbytes, async_op, dispatch, stream)`` each in post order,
    and what the ranks share: the ``event_log``, the ``flag`` they
    complete on, the op ``family`` (an ``OpFamily``), the ``backend``
    name and the ``phase`` tag.  Its poster builds it with no Python
    call (a list of the first entry, then the fields).

    Called once ``flag`` fired, it builds their ``comm`` rows in one pass
    and hands them to the log.  A row's interval is the *transfer*
    (completion minus the rendezvous's duration), not post-to-completion:
    queueing behind other traffic is not communication time.  A transfer
    with a zero duration, or none (a ws-1 post's flag), starts at its
    post time."""

    __slots__ = ("event_log", "flag", "family", "backend", "phase")

    def __call__(self) -> None:
        # the rendezvous keeps its last batch (``Rendezvous.log``), emptied
        # here: no cycle outlives the fire (INTERNALS §7, *Retention*), and
        # the entries go with it
        flag, self.flag = self.flag, None
        # ``_value_`` is the member's value without the property's two calls
        family, backend, phase = self.family._value_, self.backend, self.phase
        end, duration = flag.ready_time, getattr(flag, "duration", None)
        rows = []
        for rank, posted, step, nbytes, async_op, dispatch, stream in self:
            rows.append(ObsEvent(
                "comm", rank, stream, backend, family, nbytes, step,
                end - duration if duration else posted, end, dispatch, phase, async_op,
            ))
        self.clear()
        self.event_log.extend(rows)


class CommLogger:
    """Job-wide communication log (shared across all ranks)."""

    def __init__(
        self, world_size: Optional[int] = None, event_log: Optional[EventLog] = None
    ) -> None:
        self.event_log = event_log if event_log is not None else EventLog()
        #: job world size; per-job averages divide by it, not by however
        #: many ranks happened to appear in the filtered records
        self.world_size = world_size

    @classmethod
    def shared(cls, ctx: "RankContext") -> "CommLogger":
        """The per-job logger instance, created on first use."""
        logger = ctx.shared.get("comm_logger")
        if logger is None:
            logger = ctx.shared["comm_logger"] = cls(
                ctx.world_size, EventLog.shared(ctx.shared)
            )
        return logger

    @property
    def records(self) -> list[ObsEvent]:
        """One row per completed communication operation on one rank."""
        return self.event_log.rows["comm"]

    @property
    def events(self) -> list[ObsEvent]:
        """The retry/failover/quarantine trail (fault injection)."""
        return self.event_log.rows["fault"]

    def log(
        self,
        rank: int,
        family: str,
        backend: str,
        nbytes: int,
        start: float,
        end: float,
        async_op: bool,
        step: int = -1,
        dispatch: str = "explicit",
        stream: str = "",
        phase: str = "",
    ) -> None:
        self.event_log.append(
            ObsEvent(
                "comm", rank, stream, backend, family, nbytes, step, start, end,
                dispatch, phase, async_op,
            )
        )

    def defer(self, flag: "Flag", emit: Callable[[], None]) -> None:
        """Emit records when ``flag`` fires (completion time unknown yet):
        one call per collective's open :class:`LogBatch`, which is
        ``emit``; the flag's callbacks run in order, so the rows land
        between what was queued on it before and after."""
        flag.callbacks.append(emit)

    # -- fault events (retry / failover / quarantine) -----------------------

    def log_event(
        self, kind: str, rank: int, backend: str, time_us: float, detail: str = ""
    ) -> None:
        log = self.event_log
        log.append(
            ObsEvent(
                "fault", rank, "", backend, kind, 0, log.step(rank), time_us, time_us,
                detail,
            )
        )

    def event_counts(self) -> dict[str, int]:
        return dict(Counter(e.family for e in self.events))

    # -- aggregation (Figures 1 & 12) ---------------------------------------

    def _total_time_by(self, key: str, rank: Optional[int]) -> dict[str, float]:
        """Summed durations per ``key`` value (one rank, or per-rank
        average over the whole job)."""
        sums: dict[str, float] = defaultdict(float)
        ranks = set()
        for r in self.records:
            if rank is not None and r.rank != rank:
                continue
            sums[getattr(r, key)] += r.end - r.start
            ranks.add(r.rank)
        if rank is None and ranks:
            # divide by the true world size: ranks that logged nothing
            # still count in a per-rank average.  Loggers built without a
            # world size (direct construction) divide by observed ranks.
            divisor = self.world_size if self.world_size is not None else len(ranks)
            return {k: v / divisor for k, v in sums.items()}
        return dict(sums)

    def total_time_by_family(self, rank: Optional[int] = None) -> dict[str, float]:
        return self._total_time_by("family", rank)

    def total_time_by_backend(self, rank: Optional[int] = None) -> dict[str, float]:
        return self._total_time_by("backend", rank)

    def op_counts(self) -> dict[str, int]:
        return dict(Counter(r.family for r in self.records))

    def bytes_by_family(self) -> dict[str, int]:
        sums: dict[str, int] = defaultdict(int)
        for r in self.records:
            sums[r.family] += r.nbytes
        return dict(sums)

    def clear(self) -> None:
        """Drop the comm and fault rows (the trainer's warm-up boundary);
        the registry's view of them goes in the same call."""
        self.event_log.clear("comm", "fault")
