"""Simulated CUDA streams, events, and per-rank GPU device models.

The synchronization design of MCR-DL (paper §V-C) is entirely about
*ordering*: which stream a kernel is enqueued on, which events gate it,
and when the host blocks.  A stream here is a FIFO of
:class:`~repro.sim.graph.GpuOp` nodes whose timing may resolve *after*
enqueue (deferred, e.g. while a collective waits for peer ranks) —
exactly the asynchrony that lets a "blocking" NCCL call return before
its peers arrive, which is the mechanism behind MCR-DL's deadlock-free
backend mixing (§V-D).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.engine import Engine
from repro.sim.errors import SimError
from repro.sim.graph import CollectiveGroup, GpuOp, resolve
from repro.sim.trace import Tracer


class CudaEvent:
    """A recorded point in a stream's FIFO order.

    Completion time is the completion of the op the event was recorded
    after (or the record's host time on an idle stream); it may resolve
    later than the record call.
    """

    __slots__ = ("label", "_node", "_time")

    def __init__(self, label: str = "event"):
        self.label = label
        self._node: Optional[GpuOp] = None
        self._time: Optional[float] = None

    def completion_time(self) -> float:
        """The event's timestamp; requires the underlying op resolved."""
        if self._node is not None:
            self._node.stream.gpu.engine.settle()
            if not self._node.resolved:
                raise SimError(
                    f"event {self.label!r}: underlying op not yet resolved; "
                    "synchronize via Stream/host wait instead of polling"
                )
            return self._node.end
        if self._time is None:
            raise SimError(f"event {self.label!r} used before being recorded")
        return self._time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CudaEvent({self.label!r})"


class Stream:
    """An in-order execution queue on one simulated GPU."""

    __slots__ = ("gpu", "name", "last", "_gates", "_gate_floor")

    def __init__(self, gpu: "GPU", name: str):
        self.gpu = gpu
        self.name = name
        #: the most recently enqueued op (FIFO predecessor of the next)
        self.last: Optional[GpuOp] = None
        #: still-unresolved ops the next enqueued op must wait on
        #: (cudaStreamWaitEvent); see :meth:`gate_on`
        self._gates: list[GpuOp] = []
        #: latest completion time of every gate that had already resolved
        self._gate_floor = 0.0

    # -- enqueue ----------------------------------------------------------

    def gate_on(self, node: GpuOp) -> None:
        """Make the next enqueued op wait for ``node`` (the host does not).

        Resolved gates fold into one float floor — ``max`` is exact and
        order-free, so start times are the same as keeping the nodes.
        Unresolved gates fold per stream: when ``node`` is the newest op
        on its stream, FIFO order means it ends no earlier than any
        pending gate from that stream, so it supersedes them.  A stream
        that is gated often but enqueued on rarely so holds at most one
        pending gate per gating stream, not history.
        """
        superseded = node.stream if node.stream.last is node else None
        pending = []
        for gate in (*self._gates, node):
            if gate.end is None:
                if gate is node or gate.stream is not superseded:
                    pending.append(gate)
            elif gate.end > self._gate_floor:
                self._gate_floor = gate.end
        self._gates = pending

    def _launch_point(self, deps: Sequence[GpuOp]) -> tuple[float, Sequence[GpuOp]]:
        """``(host_ready, deps)`` of the op being enqueued: host time
        raised to the gate floor, and the explicit ``deps`` (None-free)
        plus the pending gates, which this consumes."""
        if None in deps:
            deps = [d for d in deps if d is not None]
        if self._gates:
            deps = (*deps, *self._gates)
            self._gates = []
        return max(self.gpu.engine.now, self._gate_floor), deps

    def enqueue(
        self,
        duration: float,
        deps: Sequence[GpuOp] = (),
        label: str = "kernel",
        category: str = "compute",
    ) -> GpuOp:
        """Enqueue ``duration`` µs of work; returns its graph node.

        The work starts no earlier than the host's current time, the
        previous op on this stream, any pending event gates, and the
        explicit ``deps``.
        """
        if not duration >= 0:  # NaN too
            raise SimError(f"negative kernel duration {duration}")
        host_ready, deps = self._launch_point(deps)
        prev = self.last
        blocked = prev is not None and prev.end is None
        if not blocked:
            for d in deps:
                if d.end is None:
                    blocked = True
                    break
        # an unblocked node is born retired: it never needs its links
        # (GpuOp "Lifetime"), so it is not given any
        node = self.last = GpuOp(
            stream=self,
            duration=duration,
            host_ready=host_ready,
            deps=deps if blocked else (),
            label=label,
            category=category,
            prev=prev if blocked else None,
        )
        if blocked:
            resolve(node, self.gpu.engine)
            return node
        # fast path: everything the node waits on is already resolved, so
        # its timing is final right here — equivalent to resolve() for a
        # brand-new node (no flag, no successors) minus the worklist
        start = host_ready
        if prev is not None and prev.end > start:
            start = prev.end
        for d in deps:
            if d.end > start:
                start = d.end
        node.start = start
        node.end = start + duration
        gpu = self.gpu
        tracer = gpu.tracer
        if tracer is not None:
            tracer.record(
                rank=gpu.index, stream=self.name, label=label,
                category=category, start=start, end=node.end,
            )
        return node

    def enqueue_collective_member(
        self,
        group: CollectiveGroup,
        deps: Sequence[GpuOp] = (),
        label: str = "collective",
        category: str = "comm",
    ) -> GpuOp:
        """Enqueue this rank's member of a collective ``group``."""
        host_ready, deps = self._launch_point(deps)
        node = GpuOp(
            stream=self,
            duration=None,  # owned by the group
            host_ready=host_ready,
            deps=deps,
            label=label,
            category=category,
            prev=self.last,
            group=group,
        )
        self.last = node
        group.add_member(node)
        return node

    # -- events ------------------------------------------------------------

    def record_event(self, label: str = "event") -> CudaEvent:
        """cudaEventRecord: capture the current FIFO position."""
        event = CudaEvent(label)
        if self.last is not None:
            event._node = self.last
        else:
            event._time = self.gpu.engine.now
        return event

    def wait_event(self, event: CudaEvent) -> None:
        """cudaStreamWaitEvent: gate subsequent work on ``event``.

        Asynchronous — the host does not block, even if the event's op
        has not resolved yet.
        """
        if event._node is not None:
            self.gate_on(event._node)
        elif event._time is None:
            raise SimError(f"wait_event on unrecorded event {event.label!r}")
        # resolved-time-only events gate nothing in the future: any op
        # enqueued from now on already starts at >= host now >= that time.

    # -- host synchronization -------------------------------------------------

    def synchronize(self) -> None:
        """cudaStreamSynchronize: block the host until all enqueued work
        (including deferred collectives) completes."""
        engine = self.gpu.engine
        # Loop: waiting may allow *new* work to land on this stream from
        # collective resolution; in practice one round suffices because
        # only this rank's host enqueues onto its streams.
        node = self.last
        if node is None:
            return
        engine.wait_flag(
            node.completion_flag(engine), reason=f"streamSync({self.name})"
        )

    @property
    def tail_time(self) -> float:
        """Completion time of all *resolved* work (0 for an idle stream).

        Raises if the stream has unresolved (deferred) work — callers
        that may race a pending collective must synchronize instead.
        """
        self.gpu.engine.settle()
        if self.last is None:
            return 0.0
        if not self.last.resolved:
            raise SimError(
                f"stream {self.name} has unresolved pending work; "
                "synchronize instead of reading tail_time"
            )
        return self.last.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stream({self.gpu.index}:{self.name})"


class GPU:
    """One simulated GPU: a default stream plus named side streams.

    ``kernel_launch_overhead_us`` models the host-side cost of a kernel
    launch (what makes many tiny operations expensive and tensor fusion
    worthwhile).
    """

    def __init__(
        self,
        engine: Engine,
        index: int,
        tracer: Optional[Tracer] = None,
        kernel_launch_overhead_us: float = 4.0,
    ):
        if not kernel_launch_overhead_us >= 0:  # NaN too
            raise SimError(f"negative kernel launch overhead {kernel_launch_overhead_us}")
        self.engine = engine
        self.index = index
        self.tracer = tracer
        self.kernel_launch_overhead_us = kernel_launch_overhead_us
        self.default_stream = Stream(self, "default")
        self._streams: dict[str, Stream] = {"default": self.default_stream}

    def stream(self, name: str) -> Stream:
        """Get or create a named stream."""
        if name not in self._streams:
            self._streams[name] = Stream(self, name)
        return self._streams[name]

    @property
    def streams(self) -> dict[str, Stream]:
        return dict(self._streams)

    def synchronize(self) -> None:
        """cudaDeviceSynchronize: host waits for every stream."""
        for stream in list(self._streams.values()):
            stream.synchronize()
