"""The unified observability event schema and metrics registry.

The paper's communication-logging extension (§V-E) and its
compute-vs-communication breakdowns (Figures 1 and 12) presuppose one
coherent view of what every rank, stream, and backend did.  Every fact
is therefore one :class:`ObsEvent` row, built once by its producer:

* trace intervals and comm/fault rows go into the job's one
  :class:`EventLog`, which the :class:`~repro.sim.trace.Tracer` and the
  :class:`~repro.ext.logging_ext.CommLogger` read as views;
* the log forwards each row to the job's :class:`MetricsRegistry` when
  one is installed, so the registry holds the same object, not a copy;
* registry-only rows (plan, fusion, adapt, tuning, injected faults) go
  to the registry directly.

Design constraints (enforced by ``scripts/perfgate.py``):

* **zero cost when off** — no registry is installed unless the caller
  opts in (``Simulator(observe=...)`` / ``Trainer(metrics=True)``), no
  log exists unless tracing or logging is on, and every producer guards
  its emission behind a single ``is None`` check;
* **zero simulated-time cost when on** — observers only *record*; they
  never sleep, never advance the virtual clock, and never change a
  dispatch decision.  Instrumented runs produce byte-identical simulated
  timings (the perf gate bounds any drift at 5%, mirroring the paper's
  C3 overhead budget; the actual overhead is exactly zero).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

#: ``step`` value for events recorded outside any marked training step
UNATTRIBUTED_STEP = -1


@dataclass(slots=True)
class ObsEvent:
    """One observed interval or point event, in the unified schema.

    Every producer (comm logger, tracer, fault injector, fusion engine,
    tuner) tags its events with the same coordinate system so exporters
    can join them: ``(rank, stream, backend, op family, bytes, step)``.

    ``kind`` selects the producer namespace:

    * ``"comm"``   — one completed communication op (family = op family,
      ``detail`` = dispatch decision: ``explicit``/``auto``/``reroute``);
    * ``"trace"``  — one kernel/comm interval from the tracer
      (family = category: ``compute``/``comm``/``host``/...,
      ``detail`` = label);
    * ``"fault"``  — one fault-handling action at ``start == end``
      (family = retry/failover/quarantine/unquarantine, or
      ``injected.<kind>`` for the injector's registry-only rows);
    * ``"fusion"`` — one fusion-buffer flush (family = trigger:
      full/timeout/boundary);
    * ``"tuning"`` — one tuning-suite sample (start..end = latency);
    * ``"adapt"``  — one adaptive-dispatch action (family =
      drift/explore/retune/probation, ``detail`` = transition).
    """

    kind: str
    rank: int
    stream: str
    backend: str
    family: str
    nbytes: int
    step: int
    start: float
    end: float
    detail: str = ""
    #: hierarchical decomposition phase for ``kind="comm"`` events:
    #: ``"intra"`` / ``"inter"`` / ``""`` (flat dispatch)
    phase: str = ""
    #: ``kind="comm"``: the op was posted non-blocking
    async_op: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_us(spans: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, 0.0, None
    for start, end in sorted(spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class EventLog:
    """One job's rows, keyed by ``kind``: the store behind the Tracer
    and CommLogger views.

    :meth:`append`, and :meth:`extend` for a batch, are the one place a
    row reaches the job's :class:`MetricsRegistry`.  :meth:`shared`
    creates the log on first use, so a run with tracing and logging off
    never builds one.
    """

    __slots__ = ("rows", "registry")

    def __init__(self, registry: "Optional[MetricsRegistry]" = None) -> None:
        #: kind -> rows in append order
        self.rows: defaultdict[str, list[ObsEvent]] = defaultdict(list)
        self.registry = registry

    @classmethod
    def shared(cls, shared: dict) -> "EventLog":
        """The log in a job's shared state, bound to its registry."""
        log = shared.get("event_log")
        if log is None:
            log = shared["event_log"] = cls(shared.get("obs"))
        return log

    def append(self, row: ObsEvent) -> None:
        self.rows[row.kind].append(row)
        if self.registry is not None:
            self.registry.observe(row)

    def extend(self, rows: list[ObsEvent]) -> None:
        """:meth:`append` each of ``rows``, all of one kind, in order."""
        self.rows[rows[0].kind].extend(rows)
        registry = self.registry
        if registry is not None:
            for row in rows:
                registry.observe(row)

    def step(self, rank: int) -> int:
        """The training step a row ``rank`` posts now belongs to."""
        registry = self.registry
        return UNATTRIBUTED_STEP if registry is None else registry.current_step(rank)

    def clear(self, *kinds: str) -> None:
        """Drop the rows of ``kinds`` together with everything the
        registry derived from them (its rows and ``<kind>.*`` metrics)."""
        for kind in kinds:
            self.rows[kind].clear()
        registry = self.registry
        if registry is None:
            return
        registry.events = [e for e in registry.events if e.kind not in kinds]
        prefixes = tuple(f"{kind}." for kind in kinds)
        for store in (registry.counters, registry.histograms):
            for key in [k for k in store if k.startswith(prefixes)]:
                del store[key]


@dataclass(slots=True)
class StepMarker:
    """One training step's window on one rank."""

    rank: int
    step: int
    start: float
    end: Optional[float] = None


class LogHistogram:
    """Log2-bucketed histogram for latencies / sizes.

    Bucket ``e`` counts values in ``(2**(e-1), 2**e]``; values at or
    below 1 land in bucket 0.  Exact mean is kept alongside (``sum`` /
    ``count``), and :meth:`percentile` returns the conservative bucket
    upper bound.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = defaultdict(int)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        e = 0 if value <= 1.0 else math.ceil(math.log2(value))
        self.counts[e] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile.

        ``p=0`` returns the exact tracked minimum: the bucket upper bound
        of the lowest occupied bucket can exceed the true minimum, which
        would make p0 report a value *above* an observed sample.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} not in [0, 100]")
        if not self.count:
            return 0.0
        if p == 0.0:
            return self.min
        target = p / 100.0 * self.count
        seen = 0
        edges = sorted(self.counts)
        for e in edges[:-1]:
            seen += self.counts[e]
            if seen >= target:
                return float(2**e)
        # everything past the second-to-last edge lands in the top bucket;
        # returning it unconditionally avoids an unreachable float-slack
        # fallback after the loop
        return float(2 ** edges[-1])

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {f"le_2^{e}": self.counts[e] for e in sorted(self.counts)},
        }


class MetricsRegistry:
    """Job-wide metrics: counters, gauges, log-bucketed histograms, the
    raw event stream, and per-rank training-step attribution.

    One registry is shared by every rank of a simulated job (installed
    into the shared state dict under the ``"obs"`` key by
    :class:`repro.sim.Simulator`); single-threaded execution of the
    discrete-event engine makes it safe without locks.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, LogHistogram] = {}
        #: the raw unified event stream: every non-``"trace"`` row, the
        #: same objects the job's EventLog holds (trace rows only update
        #: counters; the log keeps them)
        self.events: list[ObsEvent] = []
        #: completed (and in-flight) training-step windows
        self.steps: list[StepMarker] = []
        self._current_step: dict[int, int] = {}
        self._open_steps: dict[int, StepMarker] = {}

    # -- primitive metrics ------------------------------------------------

    def inc(self, name: str, by: float = 1.0) -> None:
        self.counters[name] += by

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str) -> LogHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogHistogram()
        return hist

    # -- step attribution -------------------------------------------------

    def begin_step(self, rank: int, step: int, now: float) -> None:
        """Open step ``step`` on ``rank``; subsequent events posted by
        that rank are attributed to it (at *post* time — a non-blocking
        op completing during step N+1 still belongs to the step that
        issued it)."""
        self._current_step[rank] = step
        marker = StepMarker(rank=rank, step=step, start=now)
        self._open_steps[rank] = marker
        self.steps.append(marker)

    def end_step(self, rank: int, now: float) -> None:
        """Close the open step window on ``rank``.  The rank's *current*
        step is intentionally left in place so trailing work (fusion
        flushes, barriers, deferred completions posted between steps) is
        attributed to the step that caused it."""
        marker = self._open_steps.pop(rank, None)
        if marker is not None:
            marker.end = now

    def current_step(self, rank: int) -> int:
        return self._current_step.get(rank, UNATTRIBUTED_STEP)

    # -- the unified feed -------------------------------------------------

    def observe(self, event: ObsEvent) -> None:
        """Ingest one event: append it and update derived metrics."""
        kind = event.kind
        if kind == "trace":
            # counters only; the event log retains the rows.  The
            # sum double-counts overlapping intervals by design (it is a
            # work total, not a union busy time).
            self.inc(f"trace.sum_us.{event.family}", event.duration)
            return
        self.events.append(event)
        if kind == "comm":
            fam = event.family
            dur = event.duration
            self.inc(f"comm.ops.{fam}")
            self.inc(f"comm.bytes.{fam}", event.nbytes)
            self.inc(f"comm.time_us.{fam}", dur)
            self.inc(f"comm.time_us.backend.{event.backend}", dur)
            self.inc(f"comm.dispatch.{event.detail or 'explicit'}")
            if event.phase:
                self.inc(f"comm.time_us.phase.{event.phase}", dur)
            self.histogram(f"comm.latency_us.{fam}").record(dur)
            self.histogram(f"comm.nbytes.{fam}").record(event.nbytes)
        elif kind == "plan":
            # dispatch-plan-cache effectiveness: one aggregated event per
            # communicator and outcome at finalize, count in ``nbytes``
            self.inc(f"comm.plan.{event.detail}", event.nbytes)
        elif kind == "fault":
            self.inc(f"fault.{event.family}")
        elif kind == "adapt":
            # adaptive-dispatch lifecycle: family is the action
            # (drift/explore/retune/probation), detail carries the
            # backend transition or probe verdict
            self.inc(f"tuning.adapt.{event.family}")
        elif kind == "fusion":
            self.inc(f"fusion.{event.family}")
            self.inc("fusion.bytes", event.nbytes)
        elif kind == "tuning":
            if event.family == "sweep_cache":
                # sweep-engine cache effectiveness: one aggregated event
                # per run and outcome, count carried in ``nbytes``
                self.inc(f"tuning.cache.{event.detail}", event.nbytes)
                return
            self.inc("tuning.samples")
            self.histogram(f"tuning.latency_us.{event.family}").record(
                event.duration
            )

    # -- aggregation ------------------------------------------------------

    def comm_totals_by_family(self) -> dict[str, dict]:
        """Job-wide (summed over ranks) ops/bytes/time per op family."""
        out: dict[str, dict] = {}
        for event in self.events:
            if event.kind != "comm":
                continue
            cell = out.setdefault(
                event.family, {"ops": 0, "bytes": 0, "time_us": 0.0}
            )
            cell["ops"] += 1
            cell["bytes"] += event.nbytes
            cell["time_us"] += event.duration
        return out

    def per_step_comm(self) -> dict[int, dict]:
        """Per-step communication breakdown (summed over ranks).

        Returns ``{step: {"ops", "bytes", "time_us", "families":
        {family: time_us}}}``; ``UNATTRIBUTED_STEP`` collects everything
        posted outside a marked step.
        """
        out: dict[int, dict] = {}
        for event in self.events:
            if event.kind != "comm":
                continue
            cell = out.setdefault(
                event.step,
                {"ops": 0, "bytes": 0, "time_us": 0.0, "families": defaultdict(float)},
            )
            cell["ops"] += 1
            cell["bytes"] += event.nbytes
            cell["time_us"] += event.duration
            cell["families"][event.family] += event.duration
        for cell in out.values():
            cell["families"] = dict(cell["families"])
        return out

    def fault_counts(self) -> dict[str, int]:
        prefix = "fault."
        return {
            k[len(prefix):]: int(v)
            for k, v in self.counters.items()
            if k.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """Plain-dict view of every derived metric (JSON-serializable)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }
