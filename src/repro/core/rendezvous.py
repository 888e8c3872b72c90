"""Execution layer of the comm core: rendezvous matching and the
collective/p2p spines.

Collectives rendezvous through shared simulation state keyed by a
per-backend sequence number, exactly like communicator-ordered
collective calls in NCCL/MPI: symmetric programs match up, mismatched
programs deadlock (and the engine reports it), and argument mismatches
raise :class:`~repro.core.exceptions.ValidationError` at the
rendezvous.

It also holds the comm core's state records: the per-job
:class:`CommShared` with a :class:`GroupRecord` per process group and a
:class:`CommState` per ``comm_id``, and the per-rank :class:`Group`.

This module is the bottom of the comm-core layering (op surface →
dispatch → execution; see ``docs/INTERNALS.md`` §15): it must not
import :mod:`repro.core.dispatch` or :mod:`repro.core.comm`.  The
:class:`ExecutionLayer` mixin reaches dispatch-layer methods
(``_route``, ``_plan``, ...) through ``self`` — the
concrete :class:`~repro.core.comm.MCRCommunicator` composes both layers
— so the *code* dependency stays one-directional even though the call
graph crosses layers per operation.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.backends.base import price_us
from repro.backends.ops import OpFamily
from repro.core.config import EAGER_THRESHOLD, LARGE_MESSAGE_THRESHOLD
from repro.core.exceptions import BackendError, ValidationError
from repro.core.handles import CompletedHandle, WorkHandle, host_block
from repro.obs.metrics import UNATTRIBUTED_STEP
from repro.sim.engine import Engine, Flag, SimError
from repro.sim.graph import CollectiveGroup, resolve
from repro.tensor import SimTensor

#: stand-in data-plane buffer for virtual (timing-only) tensors
_VIRTUAL_BUF = np.empty(0, dtype=np.float32)


def flat_buffer(tensor: SimTensor) -> np.ndarray:
    """The flat data-plane view of one tensor argument."""
    if not isinstance(tensor, SimTensor):
        raise TypeError(f"expected SimTensor, got {type(tensor).__name__}")
    if tensor.virtual_numel is not None:
        # timing-only tensor: the buffer is never read or written (every
        # data-plane touch is guarded by ``not timing_only``), so skip
        # the contiguity/view work and hand back a shared placeholder
        return _VIRTUAL_BUF
    return tensor.contiguous().view_flat()


@dataclass(slots=True, eq=False)
class CommState:
    """What the member ranks of one group share under one ``comm_id``:
    its open rendezvous, its plan index (the only plan store, keyed by
    plan-context token and call signature; ``DispatchLayer._plan``), its
    p2p channels, the adaptive ``CellBook`` of each communicator
    generation not yet held by all its ranks and fusion's route table."""

    rdv: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    p2p: defaultdict = field(
        default_factory=lambda: defaultdict(lambda: {"sends": deque(), "recvs": deque()})
    )
    adapt: list = field(default_factory=list)
    fusion_routes: dict = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class GroupRecord:
    """The job-wide record of one process group: its ranks (read-only),
    ``{global rank: group rank}``, its comm path (``CommPath``), a
    :class:`CommState` per ``comm_id`` and, once a composite needs it,
    its node placement (``HierLayout``)."""

    ranks: list[int]
    index: dict[int, int]
    comm_path: Any
    comms: dict[str, CommState] = field(default_factory=dict)
    layout: Any = None


class WireLanes:
    """The fabric's wire lanes (INTERNALS §3).  Bandwidth-bound transfers
    serialize per injection path of a GPU node — GPU-initiated
    (stream-aware backends) or host-initiated RDMA (MPI) — since
    "concurrent large-message operations are bandwidth-bound and show no
    benefit" (§V-C); which is also why mixing two backends of one kind
    buys nothing (§V-D footnote 4).  The lanes share one fabric tail,
    which every admitted transfer advances by ``interference ×
    duration``.  Latency-bound transfers overlap freely."""

    __slots__ = ("tails", "shared", "interference")

    def __init__(self, interference: float):
        #: per lane, the end of its last admitted transfer
        self.tails: dict = {}
        self.shared = 0.0
        self.interference = interference

    def admission(self, backend, family: OpFamily, wire_bytes: int, duration: float):
        """One transfer's admission: a callable from its ready time to its
        admitted start, or None when it bypasses the lanes."""
        if wire_bytes < LARGE_MESSAGE_THRESHOLD or family is OpFamily.BARRIER:
            return None
        return partial(self.admit, backend.properties.stream_aware, duration)

    def admit(self, lane, duration: float, ready: float) -> float:
        """Admit a transfer ready at ``ready`` onto ``lane``: its start is
        the latest of ``ready``, the lane's tail and the fabric tail."""
        start = max(ready, self.tails.get(lane, 0.0), self.shared)
        self.tails[lane] = start + duration
        self.shared = start + self.interference * duration
        return start


class CommShared:
    """The job's comm state, ``ctx.shared["mcr_dl"]``: what does not
    depend on the rank, built by the first rank that needs it and shared
    by the rest (INTERNALS §15)."""

    __slots__ = ("system", "groups", "configs", "lanes", "labels", "contexts", "compiles")

    def __init__(self, system) -> None:
        self.system = system
        #: one record per rank set, under every spelling it was named by
        #: (``None`` = the world)
        self.groups: dict[Optional[tuple], GroupRecord] = {}
        #: validated config objects by ``id`` (the object pins the id)
        self.configs: dict[int, Any] = {}
        #: a property of the *fabric*, shared by every communicator and
        #: process group in the job
        self.lanes = WireLanes(system.cross_path_interference)
        #: interned ``(label, dispatch reason)`` per (op, backend, phase
        #: tag): hot-path strings that never change
        self.labels: dict[tuple, tuple[str, str]] = {}
        #: interned plan contexts: context -> (token, the table an
        #: ``"auto"`` token is keyed on, pinning its ``id``)
        self.contexts: dict[tuple, tuple] = {}
        #: plans compiled, by every rank (``plan_compiles``)
        self.compiles = 0

    def group(self, world_size: int, ranks: Optional[Sequence[int]]) -> GroupRecord:
        """The record of the group ``ranks`` names, validated and built by
        the first rank that names it."""
        named = None if ranks is None else tuple(ranks)
        record = self.groups.get(named)
        if record is None:
            spelled = range(world_size) if named is None else named
            group = list(dict.fromkeys(int(r) for r in spelled))
            if len(group) != len(spelled):
                raise BackendError(f"duplicate ranks in group {list(spelled)}")
            for r in group:
                if not 0 <= r < world_size:
                    raise BackendError(f"group rank {r} out of range")
            # one record per rank set, however it was spelled
            record = self.groups.get(tuple(group)) or GroupRecord(
                group, {r: i for i, r in enumerate(group)},
                self.system.comm_path_for_ranks(group),
            )
            self.groups[named] = self.groups[tuple(group)] = record
        return record

    def label(self, op, backend_name: str, phase: str = "") -> tuple[str, str]:
        """``(label, dispatch reason)`` for one (op, backend) pair; a
        composite's phases mark theirs with the phase tag (chrome traces
        show the intra/inter segments)."""
        key = (op, backend_name, phase)
        cached = self.labels.get(key)
        if cached is None:
            label = f"{op}:{backend_name}@{phase}" if phase else f"{op}:{backend_name}"
            cached = self.labels[key] = (label, f"dispatch({label})")
        return cached


class Group:
    """One rendezvous scope on one rank: a communicator's own group, or
    one phase group of its ``hier:*`` composites (INTERNALS §13).
    A post's stages read everything that depends on the scope from it."""

    __slots__ = (
        "record", "ranks", "world_size", "comm_id", "tag", "state", "seq",
        "outstanding", "turns", "health", "retuner",
    )

    def __init__(self, record: GroupRecord, comm_id: str, tag: str, health):
        self.record = record
        self.ranks = record.ranks
        self.world_size = len(record.ranks)
        self.comm_id = comm_id
        #: the phase tag of its labels and comm records ("" = none)
        self.tag = tag
        self.state = record.comms.get(comm_id) or record.comms.setdefault(comm_id, CommState())
        #: per-backend rendezvous sequence numbers
        self.seq: defaultdict = defaultdict(int)
        #: per backend, the async handles ``synchronize()`` host-blocks on
        self.outstanding: defaultdict = defaultdict(deque)
        #: per backend, its round-robin position over the communicator's pool
        self.turns: defaultdict = defaultdict(int)
        self.health = health  # its fault scope
        #: the adaptive retuner; None when off, and on a phase group
        self.retuner = None

    def keep(self, handle: WorkHandle) -> None:
        """Hold an async handle for ``synchronize()``, first dropping the
        complete ones at the front of its backend's list (not when a flag
        fires: ``least_busy_backend`` counts a future ``ready_time``)."""
        pending, now = self.outstanding[handle.backend_name], handle.ctx.now
        while pending:
            ready = pending[0].flag.ready_time
            if ready is None or ready > now:
                break
            pending.popleft()
        pending.append(handle)


@dataclass(slots=True)
class Arrival:
    """One rank's registration at a collective rendezvous whose resolver
    reads its buffers or extras: a real-data call, or an alltoallv's
    counts (the rank is its key in ``Rendezvous.arrivals``).  A
    timing-only arrival is its host time alone."""

    host_time: float
    inputs: Sequence[np.ndarray]
    outputs: Sequence[np.ndarray]
    extras: Optional[Mapping]


class Rendezvous(CollectiveGroup):
    """One collective, shared by its ranks: it matches their arrivals,
    holds their stream members (none when it completes on the host) and
    is the flag its resolution fires.  ``arrivals`` maps each rank that
    posted to its host time, or to its :class:`Arrival` where the
    resolver reads buffers or counts; ``ready`` is the latest host time
    among them.  Resolving it drops ``arrivals``; ``duration`` is set
    from then on.  ``log`` is its comm log's open batch, if any."""

    __slots__ = ("family", "meta", "arrivals", "ready", "nonblocking", "log")

    def __init__(self, engine: Engine, expected: int, label: str, family: OpFamily, meta: tuple):
        super().__init__(engine, expected, label)
        self.family = family
        self.meta = meta
        self.arrivals: dict[int, "float | Arrival"] = {}
        self.ready = 0.0
        #: some member posted non-blocking: the transfer is priced so
        self.nonblocking = False
        self.log = None


class ExecutionLayer:
    """Mixin: posts operations into the engine and observes completion.

    A collective runs in three stages (INTERNALS §5): every rank posts
    (:meth:`_post_collective`), the last arrival resolves
    (:meth:`_resolve_collective`), and every rank completes (the end of
    :meth:`_post_collective`).  Its scope state is the :class:`Group` of
    each call; the rest it reads (``ctx``, ``config``, ``logger``,
    ``_job``) is initialized by :class:`~repro.core.comm.MCRCommunicator`,
    and the dispatch-layer methods it calls come from
    :class:`~repro.core.dispatch.DispatchLayer`.
    """

    def _post_collective(
        self, group: Group, spec, backend_name: str, call: tuple, plan, async_op: bool,
        prep=None, dispatch_scale: float = 1.0,
    ) -> Optional[WorkHandle]:
        """Post one call of op-table row ``spec`` (family and flags) on
        ``group`` under its flat ``plan`` (INTERNALS §5): the fault gate,
        the dispatch cost, the arrival and the stream member, then its
        log record and handle or wait semantics.  ``call`` is the call's
        ``(meta, nbytes, timing_only)`` key, ``prep`` its data plane (None
        when its arrival is its host time).  The ws-th arrival resolves
        the rendezvous."""
        ctx = self.ctx
        # how the post came to its backend, for the comm log
        dispatch = "auto" if backend_name == "auto" else "explicit"
        if group.health.gate:
            # the fault gate runs per call even on a plan hit: injector
            # op counters must advance exactly as in the uncached path; a
            # reroute posts the plan indexed for the backend it lands on
            admitted = group.health.admit(plan.backend, spec.family, call[1])
            if admitted is not plan.backend:
                plan = self._plan(spec, admitted.name, call, group, count=False)
                dispatch = "reroute"
        # host dispatch: thin Python layer + backend call overhead (C3);
        # persistent collectives replay at a discounted scale (§V-E)
        dispatch_cost = plan.dispatch_cost_us
        if dispatch_scale != 1.0:
            dispatch_cost *= dispatch_scale
        if dispatch_cost < 0:
            raise SimError(f"negative sleep {dispatch_cost}")
        engine = ctx.engine
        ws = group.world_size
        name, label = plan.backend.name, plan.label
        if ws == 1:
            engine.wait_until(engine.now + dispatch_cost, plan.dispatch_reason)
            if not plan.timing_only:
                for a_in, a_out in zip(prep.inputs, prep.outputs):
                    if a_in is not a_out:
                        a_out[:] = a_in
            handle = CompletedHandle(ctx, name, label)
            if self.logger is not None:
                step = self.logger.event_log.step(ctx.rank)
                entry = (ctx.rank, engine.now, step, call[1], async_op, dispatch, "host")
                self._log_on_flag(group, spec, plan, handle.flag, entry)
            return handle if async_op else None
        # rendezvous sequence numbers are keyed per backend only:
        # collective calls are communicator-ordered within a library
        # regardless of op family, like NCCL/MPI
        # (tests/test_plan_cache.py pins this down)
        seq = group.seq
        seq[name] += 1
        key = (group.comm_id, name, seq[name])
        rdvs = group.state.rdv
        rdv = rdvs.get(key)
        # the dispatch cost is lookahead (INTERNALS §5): the post stamps
        # its arrival at now + cost and keeps running.  It yields instead
        # when it resolves the rendezvous and where the post time must be
        # seen (``plan.yields``), then reads the rendezvous again
        if plan.yields or rdv is not None and len(rdv.arrivals) == ws - 1:
            # ``wait_until`` directly: it skips ``Engine.sleep``'s frame
            engine.wait_until(engine.now + dispatch_cost, plan.dispatch_reason)
            if plan.host_sync:
                # before the registration, so no yield separates a rank's
                # arrival from its stream member: the ws-th arrival is last
                ctx.gpu.default_stream.synchronize()
            rdv = rdvs.get(key)
        else:
            engine.advance(engine.now + dispatch_cost)
        # the arrival: open (first rank) or validate the rendezvous, then
        # register this rank and enqueue its stream member, with no yield
        # between.  A timing-only arrival is its host time, and the
        # rendezvous keeps their running max
        now, meta, family = engine.now, plan.meta_tagged, spec.family
        if rdv is None:
            rdv = rdvs[key] = Rendezvous(engine, ws, label, family, meta)
        elif rdv.meta != meta or rdv.family is not family:
            raise ValidationError(
                f"collective mismatch at {key}: rank {ctx.rank} posted "
                f"{family}/{meta}, expected {rdv.family}/{rdv.meta}"
            )
        elif ctx.rank in rdv.arrivals:
            raise ValidationError(f"rank {ctx.rank} arrived twice at {key}")
        rdv.arrivals[ctx.rank] = (
            now if prep is None else Arrival(now, prep.inputs, prep.outputs, prep.extras)
        )
        if now > rdv.ready:
            rdv.ready = now
        if async_op:
            rdv.nonblocking = True
        # this rank's stream under the plan's placement rule, if any
        pool, member = plan.pool, None
        if pool:
            streams = self.sync.pools[pool]
            if plan.pinned:
                stream = streams[0]
            else:
                # round-robin over the pool: small messages run
                # concurrently (§V-C)
                turns = group.turns
                stream = streams[turns[pool] % len(streams)]
                turns[pool] += 1
        else:
            stream = ctx.gpu.default_stream if plan.on_default else None
        if stream is not None:
            producer = ctx.gpu.default_stream.last
            member = stream.enqueue_collective_member(
                rdv, deps=(producer,) if producer is not None else (), label=label,
                category="comm",
            )
        if len(rdv.arrivals) == ws:
            del rdvs[key]
            self._resolve_collective(group, spec, backend_name, call[1], prep, plan, rdv)
        logger = self.logger
        if logger is not None:
            registry = logger.event_log.registry
            entry = (
                ctx.rank, engine.now,
                UNATTRIBUTED_STEP if registry is None else registry.current_step(ctx.rank),
                call[1], async_op, dispatch, "host" if member is None else member.stream.name,
            )
            # join the open batch while it is the flag's last callback; one
            # queued since (the adaptive observation, a fusion copy-back, a
            # phase shuffle) runs between their rows, in a new batch
            callbacks = rdv.callbacks
            if callbacks and callbacks[-1] is rdv.log:
                rdv.log.append(entry)
            else:
                self._log_on_flag(group, spec, plan, rdv, entry)
        deadline_us = self.config.op_deadline_us
        timeout_info = None
        if deadline_us is not None:
            timeout_info = self._timeout_info(label, rdv, group.ranks)
        if async_op:
            handle = WorkHandle(
                ctx, name, rdv, member, plan.stream_semantics, label,
                deadline_us=deadline_us, timeout_info=timeout_info,
            )
            if not plan.pool:
                # a pool-stream op ends by its stream's tail, which
                # synchronize() drains first; only host-path and
                # default-stream ops need their handle kept for it
                group.keep(handle)
            return handle
        # synchronous op: apply wait() semantics inline, no handle object
        if plan.stream_semantics and member is not None:
            ctx.gpu.default_stream.gate_on(member)
        else:
            host_block(ctx, rdv, label, "wait", deadline_us, timeout_info)
        return None

    def _resolve_collective(
        self, group: Group, spec, backend_name: str, nbytes: int, prep, plan, rdv: Rendezvous
    ) -> None:
        """Resolve ``rdv`` once, on its last arrival: the one place a
        transfer's duration is set (price, link faults, codec, host
        staging, an alltoallv's critical bytes) and the adaptive
        observation attached.  The transfer then goes to its wire lane:
        a host-path one is admitted here and fires ``rdv``, a stream one
        when ``graph.resolve`` finds its members ready.  ``rdv`` lets go
        of every rank's arrival here; only a real-data transfer keeps
        them, in its mover."""
        ctx = self.ctx
        family, backend = spec.family, plan.backend
        wire_bytes = plan.wire_bytes
        if spec.vector and family is OpFamily.ALLTOALL:
            # an imbalanced alltoallv runs at the pace of its heaviest
            # sender or receiver (the straggler destination), not this
            # rank's own volume
            wire_bytes = max(wire_bytes, self._alltoallv_critical_bytes(rdv))
        duration = price_us(
            ctx.system, backend, family, wire_bytes, group.world_size,
            group.record.comm_path, self.config,
            vector=spec.vector, nonblocking=rdv.nonblocking, overheads=False,
        )
        ready = rdv.ready
        on_resolve = None
        if not plan.timing_only:
            ordered = [rdv.arrivals[r] for r in group.ranks]
            move, codec = prep.move, plan.codec

            def on_resolve() -> None:
                if codec is not None:
                    for a in ordered:
                        for buf in a.inputs:
                            codec.apply_quantization_error(buf)
                move(ordered)

        rdv.arrivals.clear()
        links = group.health.links
        if links is not None:
            # degraded/flapping fabric window (repro.sim.faults): decided
            # once, at the transfer's host-side ready time — per-rank
            # clocks cannot split the decision
            duration *= links.factor_at(ready, backend.name)
        duration += plan.codec_us
        if self.config.force_host_staging:
            # Listing-2 style device->host->device copies around the op
            duration += 2.0 * ctx.system.host_staging_us(wire_bytes)
        rdv.duration = duration  # before fire: deferred log emits read it
        if group.retuner is not None and duration:
            # the group's one observation, fed at the flag's fire instant;
            # the last arrival's retuner knows if the op is an epsilon trial
            rdv.callbacks.append(partial(
                group.retuner.book.on_complete, family, nbytes, backend.name,
                duration, backend_name == "auto", group.retuner.trial is not None,
            ))
        admit = self._job.lanes.admission(backend, family, wire_bytes, duration)
        if rdv.members:
            rdv.on_resolve = on_resolve
            rdv.admit = admit
            resolve(rdv, ctx.engine)
            return
        start = ready if admit is None else admit(ready)
        end = start + duration
        if on_resolve is not None:
            on_resolve()
        tracer = ctx.gpu.tracer
        if tracer is not None:
            for rank in group.ranks:
                tracer.record(
                    rank=rank, stream="mpi-host", label=plan.label, category="comm",
                    start=start, end=end,
                )
        rdv.fire(end)

    @staticmethod
    def _timeout_info(label: str, rdv: Rendezvous, ranks: list[int]):
        """Deferred per-rank diagnostics for a CommTimeoutError: evaluated
        at timeout time, when the rendezvous shows who of ``ranks`` (the
        group's) never arrived."""

        def info() -> str:
            if rdv.duration is not None:
                return "all ranks arrived; transfer still in flight"
            arrived = sorted(rdv.arrivals)
            missing = [r for r in ranks if r not in rdv.arrivals]
            times = {r: getattr(a, "host_time", a) for r, a in rdv.arrivals.items()}
            posted = ", ".join(f"rank {r}@{times[r]:.1f}us" for r in arrived)
            return f"ranks {missing} never posted {label} (arrived: {posted})"

        return info

    @staticmethod
    def _alltoallv_critical_bytes(rdv: Rendezvous) -> int:
        """Heaviest per-rank send or receive volume of an alltoallv."""
        extras = [a.extras for a in rdv.arrivals.values()]
        rows = [e["scounts"] for e in extras]
        heaviest = max(max(map(sum, rows)), max(map(sum, zip(*rows))))
        return heaviest * extras[0]["_elem_size"]

    # -- point-to-point ----------------------------------------------------

    def _p2p(
        self,
        backend_name: str,
        tensor: SimTensor,
        peer: int,
        tag: int,
        is_send: bool,
        async_op: bool,
    ) -> Optional[WorkHandle]:
        ctx, group = self.ctx, self._group
        if not 0 <= peer < group.world_size:
            raise ValidationError(f"peer {peer} out of range")
        peer_global = group.ranks[peer]
        if peer_global == ctx.rank:
            raise ValidationError("p2p with self is not supported")
        nbytes = tensor.nbytes()
        backend = routed = self._route(backend_name, OpFamily.P2P, nbytes, False)
        src, dst = (ctx.rank, peer_global) if is_send else (peer_global, ctx.rank)
        if group.health.gate:
            backend = group.health.admit(
                backend, OpFamily.P2P, nbytes, p2p_channel=(src, dst, tag)
            )
        label, dispatch_reason = self._job.label("send" if is_send else "recv", backend.name)
        ctx.sleep(self._dispatch_cost(backend), reason=dispatch_reason)

        chan = group.state.p2p[(backend.name, src, dst, tag)]
        mine, theirs = ("sends", "recvs") if is_send else ("recvs", "sends")
        buf = flat_buffer(tensor)
        deadline_us = self.config.op_deadline_us
        timeout_info = None

        if chan[theirs]:
            other_buf, other_time, flag, other_virtual = chan[theirs].popleft()
            timing_only = tensor.is_virtual or other_virtual
            send_buf, recv_buf = (buf, other_buf) if is_send else (other_buf, buf)
            if not timing_only and send_buf.size != recv_buf.size:
                raise ValidationError(
                    f"p2p size mismatch: send {send_buf.size} vs recv {recv_buf.size}"
                )
            cost = backend.p2p_cost_us(
                nbytes, ctx.system.same_node(src, dst)
            ) * (1.0 + self.config.dispatch_fraction)
            start = max(ctx.now, other_time)
            links = group.health.links
            if links is not None:
                cost *= links.factor_at(start, backend.name)
            end = start + cost
            if not timing_only:
                recv_buf[:] = send_buf
            if not flag.is_set:  # eager sends fire their flag at post time
                flag.fire(end)
            if not is_send or nbytes <= EAGER_THRESHOLD:
                # the receiver's own completion is the transfer end; an
                # eager send's is its post, whoever posted first
                flag = ctx.new_flag(label)
                flag.fire(ctx.now if is_send else end)
            if self.logger is not None:
                # one record per endpoint (the queued peer cannot know the
                # transfer duration, so the matching side logs for both)
                dispatch = (
                    "reroute" if backend is not routed
                    else "auto" if backend_name == "auto" else "explicit"
                )
                for endpoint in (ctx.rank, peer):
                    self.logger.log(
                        rank=endpoint,
                        family=str(OpFamily.P2P),
                        backend=backend.name,
                        nbytes=nbytes,
                        start=end - cost,
                        end=end,
                        async_op=async_op,
                        step=self.logger.event_log.step(endpoint),
                        dispatch=dispatch,
                        stream="p2p",
                    )
        else:
            flag = ctx.new_flag(label)
            if is_send and nbytes <= EAGER_THRESHOLD:
                # eager protocol: buffer the payload so the sender can
                # return (and reuse its tensor) before the match
                if not tensor.is_virtual:
                    buf = buf.copy()
                flag.fire(ctx.now)
            chan[mine].append((buf, ctx.now, flag, tensor.is_virtual))
            if deadline_us is not None:
                timeout_info = partial(
                    self._p2p_timeout_info, flag, peer_global, theirs[:-1], backend.name, tag
                )
        handle = WorkHandle(
            ctx, backend.name, flag, None, False, label,
            deadline_us=deadline_us, timeout_info=timeout_info,
        )
        if async_op:
            group.keep(handle)
            return handle
        handle.synchronize()
        return None

    @staticmethod
    def _p2p_timeout_info(flag: Flag, peer: int, missing: str, backend: str, tag: int) -> str:
        """CommTimeoutError detail of one queued p2p post: the match
        fires its flag, so an unfired one means the peer never posted."""
        if flag.ready_time is None:
            return f"rank {peer} never posted the matching {missing} on {backend} (tag {tag})"
        return "both sides posted; transfer still in flight"

    # -- logging -----------------------------------------------------------

    def _log_on_flag(self, group: Group, spec, plan, flag: Flag, entry: tuple) -> None:
        """Log a collective post ``entry`` (see
        :class:`~repro.ext.logging_ext.LogBatch`; its step is the one that
        *issued* the op, read at the post) in a new batch: the collective's
        first, or one after another callback on ``flag``.  The batch is
        emitted once the completion time is known: at once when ``flag``
        fired (the host path's last arrival, a ws-1 post), else when it
        fires.  A later rank's post joins the open batch in
        :meth:`_post_collective`, with no call.  Callers check that a
        logger exists."""
        from repro.ext.logging_ext import LogBatch  # the extensions build on the core

        logger, batch = self.logger, LogBatch((entry,))
        batch.event_log, batch.flag = logger.event_log, flag
        batch.family, batch.backend, batch.phase = spec.family, plan.backend.name, group.tag
        if flag.ready_time is not None:
            batch()
        else:
            flag.log = batch
            logger.defer(flag, batch)
