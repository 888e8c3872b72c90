"""Deferred GPU task graph.

Real CUDA work is *asynchronous*: a kernel (or NCCL collective) is
enqueued now but its start time may depend on events that have not
happened yet — most importantly, on **other ranks arriving** at a
collective.  MCR-DL's deadlock-freedom (paper §V-D) relies exactly on
this: a blocking NCCL call returns once enqueued, so cross-backend
ordering mismatches cannot stall the host.

To model that faithfully, GPU work is a graph of :class:`GpuOp` nodes.
A node's timing resolves only when its stream predecessor, its explicit
dependencies, and (for collectives) *every* participating rank's member
node are ready.  Resolution propagates iteratively; host threads that
need a node's completion park on a :class:`~repro.sim.engine.Flag` fired
at resolution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.sim.engine import Engine, Flag
from repro.sim.errors import SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.streams import Stream


class GpuOp:
    """One unit of GPU work on one stream.

    Timing fields:

    * ``host_ready`` — earliest start the enqueue point allows: the host
      time of the launch, raised to the stream's folded gate floor;
    * ``end`` — completion time; ``None`` until resolved.

    Start time is ``max(host_ready, prev.end, dep ends)`` where ``prev``
    is the previous op on the same stream (FIFO order).

    Lifetime: the links (``prev``, ``deps``, ``group``, ``succs``) exist
    to compute ``start``/``end`` and are dropped the moment those are
    known, so a resolved node pins nothing but its stream and a finished
    run is not one reference chain.  Only ``start``/``end``/``label`` and
    the completion flag are meaningful afterwards.
    """

    __slots__ = (
        "stream",
        "label",
        "category",
        "duration",
        "host_ready",
        "deps",
        "prev",
        "group",
        "end",
        "start",
        "_flag",
        "succs",
    )

    def __init__(
        self,
        stream: "Stream",
        duration: Optional[float],
        host_ready: float,
        deps: Sequence["GpuOp"],
        label: str,
        category: str,
        prev: Optional["GpuOp"],
        group: Optional["CollectiveGroup"] = None,
    ):
        self.stream = stream
        self.label = label
        self.category = category
        self.duration = duration
        self.host_ready = host_ready
        #: None-free and owned by this node; Stream.enqueue* sanitize
        self.deps = deps
        self.prev = prev
        self.group = group
        if group is not None:
            # a member joins its collective as it is enqueued
            if group.ready_time is not None or len(group.members) >= group.expected:
                raise SimError(f"collective {group.label!r}: too many members")
            group.members.append(self)
        self.end: Optional[float] = None
        self.start: Optional[float] = None
        self._flag: Optional[Flag] = None
        #: GpuOp | CollectiveGroup waiting on this node; None until the
        #: first one registers (most nodes never get a successor)
        self.succs: Optional[list[object]] = None

    # -- flags ----------------------------------------------------------

    def completion_flag(self, engine: Engine) -> Flag:
        """A flag fired at this op's completion time (created lazily)."""
        if self._flag is None:
            self._flag = engine.new_flag(f"gpuop:{self.label}")
            if self.end is not None:
                self._flag.fire(self.end)
        return self._flag

    @property
    def resolved(self) -> bool:
        return self.end is not None

    # -- resolution -------------------------------------------------------

    def _block(self, waiter: object) -> None:
        """Register ``waiter`` for another resolution attempt when this
        node resolves."""
        if self.succs is None:
            self.succs = [waiter]
        elif waiter not in self.succs:
            self.succs.append(waiter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"end={self.end:.1f}" if self.resolved else "pending"
        return f"GpuOp({self.label!r} on {self.stream.name}, {state})"


class CollectiveGroup(Flag):
    """A collective's per-rank member nodes with a single joint start, and
    the flag its resolution fires.

    All members start at the global max of their individual ready times
    (NCCL semantics: the kernel spins until every peer has arrived), or
    at what ``admit`` makes of it, and finish together ``duration`` later.
    ``on_resolve`` performs the data movement exactly once.

    Lifetime: resolution drops ``members``, ``on_resolve`` (and with it
    every rank's buffers) and ``admit``; a resolved group is a fired flag
    with its ``duration`` and no members, which ``resolve`` skips.
    """

    __slots__ = ("expected", "members", "duration", "on_resolve", "admit")

    def __init__(self, engine: Engine, expected: int, label: str):
        # Flag's fields, set here rather than through its ``__init__``:
        # one call per collective fewer, on the post path
        self._engine = engine
        self.ready_time = None
        self._waiters = []
        self.label = label
        self.callbacks = []
        self.expected = expected
        self.members: Sequence[GpuOp] = []
        self.duration: Optional[float] = None
        self.on_resolve: Optional[Callable[[], None]] = None
        #: set with ``duration`` by the collective's resolver: maps the
        #: members' joint ready time to their start (None: start when ready)
        self.admit: Optional[Callable[[float], float]] = None


#: below every ready time: the identity of their running max
_NEVER = float("-inf")


def resolve(seed: "GpuOp | CollectiveGroup", engine: Engine) -> None:
    """Resolve ``seed`` and propagate to everything it unblocks.

    Iterative worklist; registering on unresolved blockers guarantees a
    later resolution attempt when those blockers resolve.  A plain op is
    resolved as a collective of one member with its own duration: one
    pass over the members registers the item on each unresolved
    blocker (each member's stream predecessor, then its dependencies)
    and takes the joint ready time, and a second one times, traces and
    retires them (GpuOp "Lifetime").
    """
    work: list[object] = [seed]
    while work:
        item = work.pop()
        if type(item) is GpuOp:
            if item.group is not None:
                work.append(item.group)
                continue
            if item.end is not None:
                continue
            if item.duration is None:  # pragma: no cover - defensive
                raise SimError(f"plain op {item.label!r} has no duration")
            members, group = (item,), None
        else:  # a CollectiveGroup; a resolved one has no members
            group = item
            members = group.members
            if len(members) != group.expected or group.duration is None:
                continue
        start, blocked = _NEVER, False
        for m in members:
            ready = m.host_ready
            prev = m.prev
            if prev is not None:
                end = prev.end
                if end is None:
                    prev._block(item)
                    blocked = True
                elif end > ready:
                    ready = end
            for d in m.deps:
                end = d.end
                if end is None:
                    d._block(item)
                    blocked = True
                elif end > ready:
                    ready = end
            if ready > start:
                start = ready
        if blocked:
            continue
        if group is None:
            end = start + item.duration
        else:
            if group.admit is not None:
                start = group.admit(start)
            end = start + group.duration
            on_resolve = group.on_resolve
            group.members = ()
            group.on_resolve = group.admit = None
        for m in members:
            m.start = start
            m.end = end
            # trace the interval, fire any host waiters, queue what the
            # node unblocks and retire its links
            stream = m.stream
            tracer = stream.gpu.tracer
            if tracer is not None:
                tracer.record(
                    rank=stream.gpu.index, stream=stream.name, label=m.label,
                    category=m.category, start=start, end=end,
                )
            flag = m._flag
            if flag is not None and flag.ready_time is None:
                flag.fire(end)
            if m.succs is not None:
                work.extend(m.succs)
            m.prev = m.group = m.succs = None
            m.deps = ()
        if group is not None:
            if on_resolve is not None:
                on_resolve()
            group.fire(end)
