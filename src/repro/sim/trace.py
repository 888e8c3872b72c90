"""Timeline tracing.

The tracer records every kernel/communication interval on every stream.
It backs three things: the overlap assertions in the synchronization
tests (Fig. 4's naive-vs-MCR-DL comparison), the communication-logging
extension (paper §V-E), and the compute-vs-communication breakdowns of
Figures 1 and 12.

Each interval is one ``kind="trace"`` :class:`~repro.obs.metrics.ObsEvent`
row in the job's :class:`~repro.obs.metrics.EventLog` (``family`` is the
category, ``detail`` the label); the :class:`Tracer` is a view over them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.metrics import EventLog, ObsEvent, union_us


class Tracer:
    """Records intervals into an :class:`EventLog` and queries them."""

    def __init__(self, event_log: Optional[EventLog] = None) -> None:
        self.event_log = event_log if event_log is not None else EventLog()

    @property
    def records(self) -> list[ObsEvent]:
        return self.event_log.rows["trace"]

    def record(
        self, rank: int, stream: str, label: str, category: str, start: float, end: float
    ) -> None:
        log = self.event_log
        log.append(
            ObsEvent("trace", rank, stream, "", category, 0, log.step(rank), start, end, label)
        )

    # -- queries -------------------------------------------------------

    def filter(
        self,
        rank: Optional[int] = None,
        category: Optional[str] = None,
        label_contains: Optional[str] = None,
        predicate: Optional[Callable[[ObsEvent], bool]] = None,
    ) -> list[ObsEvent]:
        out = []
        for r in self.records:
            if rank is not None and r.rank != rank:
                continue
            if category is not None and r.family != category:
                continue
            if label_contains is not None and label_contains not in r.detail:
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return out

    def busy_time(self, records: Iterable[ObsEvent]) -> float:
        """Total *union* busy time of the given intervals (overlaps merged)."""
        return union_us((r.start, r.end) for r in records)

    def overlap_time(
        self, a: Iterable[ObsEvent], b: Iterable[ObsEvent]
    ) -> float:
        """Total time during which intervals from both sets are active."""
        a_spans = sorted((r.start, r.end) for r in a)
        b_spans = sorted((r.start, r.end) for r in b)
        total, i, j = 0.0, 0, 0
        while i < len(a_spans) and j < len(b_spans):
            start = max(a_spans[i][0], b_spans[j][0])
            end = min(a_spans[i][1], b_spans[j][1])
            if end > start:
                total += end - start
            if a_spans[i][1] <= b_spans[j][1]:
                i += 1
            else:
                j += 1
        return total

    def category_totals(self, rank: Optional[int] = None) -> dict[str, float]:
        """Union busy time per category (per rank if given)."""
        cats = {r.family for r in self.records if rank is None or r.rank == rank}
        return {
            c: self.busy_time(self.filter(rank=rank, category=c)) for c in sorted(cats)
        }

    # -- export ----------------------------------------------------------

    def to_chrome_trace(self) -> list[dict]:
        """Export as Chrome trace-event JSON (load in chrome://tracing or
        Perfetto): one process per rank, one thread per stream, complete
        ("X") events in microseconds.  Thread ids number each rank's
        streams in time order, so they do not depend on which rank's
        thread recorded an interval first."""
        events: list[dict] = []
        thread_ids: dict[tuple[int, str], int] = {}
        for record in sorted(self.records, key=lambda r: (r.start, r.rank, r.stream)):
            key = (record.rank, record.stream)
            if key not in thread_ids:
                thread_ids[key] = len(
                    [k for k in thread_ids if k[0] == record.rank]
                )
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": record.rank,
                        "tid": thread_ids[key],
                        "args": {"name": record.stream},
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "name": record.detail,
                    "cat": record.family,
                    "pid": record.rank,
                    "tid": thread_ids[key],
                    "ts": record.start,
                    "dur": record.duration,
                }
            )
        return events
