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

    def _blockers(self) -> list["GpuOp"]:
        out = []
        if self.prev is not None and not self.prev.resolved:
            out.append(self.prev)
        for d in self.deps:
            if not d.resolved:
                out.append(d)
        return out

    def _block(self, waiter: object) -> None:
        """Register ``waiter`` for another resolution attempt when this
        node resolves."""
        if self.succs is None:
            self.succs = [waiter]
        elif waiter not in self.succs:
            self.succs.append(waiter)

    def _ready_time(self) -> float:
        t = self.host_ready
        if self.prev is not None:
            t = max(t, self.prev.end)
        for d in self.deps:
            t = max(t, d.end)
        return t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"end={self.end:.1f}" if self.resolved else "pending"
        return f"GpuOp({self.label!r} on {self.stream.name}, {state})"


class CollectiveGroup:
    """A collective's per-rank member nodes with a single joint start.

    All members start at the global max of their individual ready times
    (NCCL semantics: the kernel spins until every peer has arrived) and
    finish together ``duration`` later.  ``on_resolve`` performs the data
    movement exactly once.

    Lifetime: resolution drops ``members``, ``on_resolve`` (and with it
    every rank's buffers) and the wire-lane store; a resolved group is
    its ``flag`` and ``duration``, and ``complete`` reads False.
    """

    __slots__ = (
        "expected",
        "members",
        "duration",
        "on_resolve",
        "flag",
        "_resolved",
        "label",
        "channel_store",
        "channel_key",
        "interference",
    )

    def __init__(self, expected: int, flag: Flag, label: str = "collective"):
        self.expected = expected
        self.members: Sequence[GpuOp] = []
        self.duration: Optional[float] = None
        self.on_resolve: Optional[Callable[[], None]] = None
        self.flag = flag
        self._resolved = False
        self.label = label
        #: optional wire-lane serialization: bandwidth-bound collectives
        #: on the same injection path cannot run concurrently (paper §V-C
        #: notes concurrent large-message operations show no benefit).
        #: The group starts no earlier than channel_store[channel_key]
        #: and pushes that lane's tail to its end; it also advances the
        #: cross-lane "__shared__" tail by ``interference x duration`` so
        #: different lanes only partially overlap.
        self.channel_store: Optional[dict] = None
        self.channel_key: Optional[str] = None
        self.interference: float = 0.0

    @property
    def complete(self) -> bool:
        return len(self.members) == self.expected and self.duration is not None

    def add_member(self, member: GpuOp) -> None:
        if self._resolved or len(self.members) >= self.expected:
            raise SimError(f"collective {self.label!r}: too many members")
        self.members.append(member)


def resolve(seed: "GpuOp | CollectiveGroup", engine: Engine) -> None:
    """Resolve ``seed`` and propagate to everything it unblocks.

    Iterative worklist; registering on unresolved blockers guarantees a
    later resolution attempt when those blockers resolve.
    """
    work: list[object] = [seed]
    while work:
        item = work.pop()
        if isinstance(item, GpuOp):
            if item.group is not None:
                work.append(item.group)
                continue
            if item.resolved:
                continue
            blockers = item._blockers()
            if blockers:
                for b in blockers:
                    b._block(item)
                continue
            start = item._ready_time()
            if item.duration is None:  # pragma: no cover - defensive
                raise SimError(f"plain op {item.label!r} has no duration")
            item.start = start
            item.end = start + item.duration
            _finish_node(item, work)
        else:  # CollectiveGroup
            group = item
            if group._resolved or not group.complete:
                continue
            blockers: list[GpuOp] = []
            for m in group.members:
                blockers.extend(m._blockers())
            if blockers:
                for b in blockers:
                    b._block(group)
                continue
            start = max(m._ready_time() for m in group.members)
            if group.channel_store is not None:
                start = apply_wire_lane(
                    group.channel_store,
                    group.channel_key,
                    start,
                    group.duration,
                    group.interference,
                )
            end = start + group.duration
            group._resolved = True
            members, on_resolve = group.members, group.on_resolve
            group.members = ()
            group.on_resolve = group.channel_store = None
            for m in members:
                m.start = start
                m.end = end
                _finish_node(m, work)
            if on_resolve is not None:
                on_resolve()
            group.flag.fire(end)


def apply_wire_lane(
    store: dict, lane: str, ready: float, duration: float, interference: float
) -> float:
    """Admit a bandwidth-bound transfer onto a wire lane.

    Same-lane transfers serialize fully; transfers on other lanes are
    throttled through the ``__shared__`` tail, which every transfer
    advances by ``interference * duration`` — so the aggregate fabric
    sustains at most ``1/interference`` lanes' worth of concurrent
    bandwidth.  Returns the admitted start time and updates the store.
    """
    start = max(ready, store.get(lane, 0.0), store.get("__shared__", 0.0))
    store[lane] = start + duration
    store["__shared__"] = max(store.get("__shared__", 0.0), start) + (
        interference * duration
    )
    return start


def _finish_node(node: GpuOp, work: list) -> None:
    """Trace the interval, fire any host waiters, queue what the node
    unblocks onto ``work``, and retire its links (GpuOp "Lifetime")."""
    stream = node.stream
    tracer = stream.gpu.tracer
    if tracer is not None:
        tracer.record(
            rank=stream.gpu.index,
            stream=stream.name,
            label=node.label,
            category=node.category,
            start=node.start,
            end=node.end,
        )
    if node._flag is not None and not node._flag.is_set:
        node._flag.fire(node.end)
    if node.succs is not None:
        work.extend(node.succs)
    node.prev = node.group = node.succs = None
    node.deps = ()
