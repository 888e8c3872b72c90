"""Hierarchical mixed-backend collectives (``hier:<intra>+<inter>``).

MCR-DL mixes backends *across* operations (paper §V-F); this module
mixes them *within* one operation: a two-level collective whose
intra-node phase runs on the best intra-node backend (typically NCCL
over NVLink) and whose inter-node phase runs on the best inter-node
backend (typically an MPI over host-initiated RDMA) — the MPI-vs-NCCL
split Awan et al. measured for broadcast, generalized to allreduce,
allgather, and alltoall.

A hierarchical target is not a registered :class:`~repro.backends.base.
Backend`; it is a *dispatch* spelling, ``hier:<intra>+<inter>``, whose
constituents must both be initialized on the communicator.  The
communicator routes supported collectives through a
:class:`HierarchicalExecutor`, which decomposes each op into phases
over auto-derived process groups:

* one **intra-node group** per node (the member ranks placed on it);
* ``ppn`` **shard groups**, each holding the rank at one local index on
  every node (shard group 0 = the node leaders).

Decompositions (uniform ranks-per-node, ``k`` nodes, ``m`` = ppn):

* ``all_reduce``      — intra reduce_scatter → shard all_reduce
  (1/m of the vector across k leaders-per-shard) → intra all_gather;
* ``bcast``           — intra bcast on the root's node → leader bcast →
  intra bcast on the other nodes;
* ``all_gather``      — intra all_gather → shard all_gather (+ a local
  chunk permutation when the group is not node-contiguous);
* ``all_to_all_single`` — local pack → intra alltoall → local transpose
  → shard alltoall → local unpack into source-rank order.

Uneven placements fall back to a leader scheme (reduce-to-leader /
bcast-from-leader) where it is correct, and to flat dispatch on the
inter constituent otherwise; single-node or one-rank-per-node groups
degenerate to flat dispatch on the matching constituent.

Every phase runs through an ordinary sub-communicator (spawned via
:meth:`~repro.core.protocols.CommCore.spawn_phase_comm`), so it gets
the full stack for free: its own dispatch
plan (one :class:`~repro.core.dispatch.CommPlan` per phase), rendezvous
matching, fault retry/quarantine/failover per phase backend, and
phase-tagged comm records (``phase="intra"``/``"inter"``) for the
observability pipeline.

The analytic composite cost model (:func:`hier_collective_cost_us`)
prices the same phase schedule against the constituents' cost models —
the intra phases on the single-node path, the inter phase on the
leaders' :meth:`~repro.cluster.topology.SystemSpec.comm_path_for_ranks`
path (one rank per node → the full NIC per leader, which is the
physical mechanism behind the large-message crossover) — so the tuner
can sweep ``hier:*`` candidates next to flat backends and ``"auto"``
can pick the composite per (op, message size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backends.base import available_backends, canonical_name, cost_backend, price_us
from repro.backends.cost import PhaseCost, composite_cost_us
from repro.backends.ops import OpFamily, ReduceOp
from repro.core.exceptions import BackendError, ValidationError

from repro.core.protocols import CommCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import SystemSpec
    from repro.core.config import MCRConfig
    from repro.core.handles import WorkHandle
    from repro.tensor import SimTensor

_PREFIX = "hier:"

#: op families a hierarchical target decomposes; anything else must be
#: dispatched to a flat backend explicitly
HIER_FAMILIES = frozenset(
    (OpFamily.ALLREDUCE, OpFamily.BROADCAST, OpFamily.ALLGATHER, OpFamily.ALLTOALL)
)


@dataclass(frozen=True)
class HierSpec:
    """One parsed ``hier:<intra>+<inter>`` target (canonical names)."""

    name: str
    intra: str
    inter: str


def is_hier_name(name: str) -> bool:
    """Whether ``name`` spells a hierarchical dispatch target."""
    return isinstance(name, str) and name[: len(_PREFIX)].lower() == _PREFIX


def parse_hier(name: str) -> HierSpec:
    """Parse and canonicalize ``hier:<intra>+<inter>``.

    Raises :class:`BackendError` on malformed spellings.  Constituent
    names go through the normal backend alias map, so
    ``hier:nccl+mvapich`` and ``hier:nccl+mvapich2-gdr`` are the same
    target.
    """
    if not is_hier_name(name):
        raise BackendError(f"{name!r} is not a hierarchical backend target")
    body = name[len(_PREFIX):]
    parts = body.split("+")
    if len(parts) != 2 or not all(p.strip() for p in parts):
        raise BackendError(
            f"malformed hierarchical target {name!r}; expected "
            "'hier:<intra>+<inter>' (e.g. 'hier:nccl+mvapich')"
        )
    intra = canonical_name(parts[0].strip())
    inter = canonical_name(parts[1].strip())
    known = available_backends()
    for level, backend in (("intra", intra), ("inter", inter)):
        if backend not in known:
            raise BackendError(
                f"unknown {level}-level backend {backend!r} in {name!r}; "
                f"available: {known}"
            )
    return HierSpec(name=f"{_PREFIX}{intra}+{inter}", intra=intra, inter=inter)


# ---------------------------------------------------------------------------
# group layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierLayout:
    """Node placement of one communicator's group, in group order.

    ``node_members[i]`` lists the global ranks placed on the i-th node
    (nodes ordered by first appearance in the parent's ``group_ranks``;
    members in parent group order).  ``uniform`` means every node hosts
    the same number of member ranks.
    """

    node_members: tuple[tuple[int, ...], ...]
    uniform: bool
    ppn: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_members)

    def locate(self, rank: int) -> tuple[int, int]:
        """(node index, local index) of one member rank."""
        for n, members in enumerate(self.node_members):
            if rank in members:
                return n, members.index(rank)
        raise ValueError(f"rank {rank} not in layout")  # pragma: no cover

    def node_contiguous(self, group_ranks: list[int]) -> bool:
        """Whether parent group order equals node-major order (node by
        node, members in order) — the case where no output permutation
        is needed for allgather."""
        flat = [r for members in self.node_members for r in members]
        return flat == list(group_ranks)


def derive_layout(system: "SystemSpec", group_ranks) -> HierLayout:
    """Group the member ranks by node, preserving parent group order."""
    by_node: dict[int, list[int]] = {}
    order: list[int] = []
    for r in group_ranks:
        node = system.node_of(r)
        if node not in by_node:
            by_node[node] = []
            order.append(node)
        by_node[node].append(r)
    members = tuple(tuple(by_node[n]) for n in order)
    sizes = {len(m) for m in members}
    return HierLayout(
        node_members=members,
        uniform=len(sizes) == 1,
        ppn=max(len(m) for m in members),
    )


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class HierarchicalExecutor:
    """Per-communicator engine running ``hier:*`` dispatches.

    Holds the derived :class:`HierLayout`, the lazily constructed
    sub-communicators (one intra-node group, this rank's shard group),
    cached scratch tensors, and cached permutation index arrays.  All
    construction is SPMD-symmetric: every member rank derives the same
    layout and builds its sub-communicators at the same logical point
    (the first hierarchical dispatch).
    """

    def __init__(self, comm: CommCore):
        self.comm = comm
        self.ctx = comm.ctx
        self.layout = derive_layout(comm.ctx.system, comm.group_ranks)
        self.my_node, self.my_local = self.layout.locate(comm.ctx.rank)
        self._intra: Optional[CommCore] = None
        self._shards: dict[int, CommCore] = {}
        self._scratch: dict[tuple, "SimTensor"] = {}
        self._perms: dict[tuple, np.ndarray] = {}

    # -- sub-communicators ------------------------------------------------
    #
    # construction, phase tagging, quarantine inheritance, and child
    # registration all live behind the protocol's spawn hook

    def intra_comm(self) -> CommCore:
        """The sub-communicator over this rank's node members."""
        if self._intra is None:
            self._intra = self.comm.spawn_phase_comm(
                self.layout.node_members[self.my_node],
                f"{self.comm.comm_id}|hier-intra",
                "intra",
            )
        return self._intra

    def shard_comm(self, local_index: int) -> CommCore:
        """The sub-communicator over the ranks at ``local_index`` on
        every node (local index 0 = the node leaders).  Only callable by
        a member of that shard."""
        sub = self._shards.get(local_index)
        if sub is None:
            ranks = [members[local_index] for members in self.layout.node_members]
            sub = self._shards[local_index] = self.comm.spawn_phase_comm(
                ranks, f"{self.comm.comm_id}|hier-inter{local_index}", "inter"
            )
        return sub

    @property
    def is_leader(self) -> bool:
        return self.my_local == 0

    # -- helpers ----------------------------------------------------------

    def _scratch_tensor(self, numel: int, dtype, virtual: bool, slot: str) -> "SimTensor":
        key = (slot, numel, dtype.name, virtual)
        buf = self._scratch.get(key)
        if buf is None:
            ctx = self.ctx
            if virtual:
                buf = ctx.virtual_tensor(numel, dtype)
            else:
                buf = ctx.zeros(numel, dtype)
            self._scratch[key] = buf
        return buf

    @staticmethod
    def _sync(sub: CommCore, handle: "WorkHandle") -> None:
        """Host-block on one phase and retire its handle.

        Phases *must* host-synchronize before the next post: collective
        data movement executes when the rendezvous resolves, so a later
        phase posted early could read a buffer the earlier phase has not
        produced yet.
        """
        handle.synchronize()
        pending = sub._outstanding.get(handle.backend_name)
        if pending:
            try:
                pending.remove(handle)
            except ValueError:  # pragma: no cover - already drained
                pass

    def _finish(
        self, sub: CommCore, handle: "WorkHandle", async_op: bool
    ) -> Optional["WorkHandle"]:
        """Apply the caller's async contract to the final phase."""
        if async_op:
            return handle
        self._sync(sub, handle)
        return None

    @staticmethod
    def _on_complete(handle: "WorkHandle", fn) -> None:
        """Run ``fn`` after the collective's data movement.

        The rendezvous resolves eagerly when the last participant
        arrives, so the flag may already have fired by the time the
        posting call returns — in which case the movement has happened
        and ``fn`` runs immediately (same pattern as DDP's copy-back).
        """
        if handle.flag.is_set:
            fn()
        else:
            handle.flag.callbacks.append(fn)

    def _completed(self, backend_name: str, label: str, async_op: bool):
        from repro.core.handles import CompletedHandle

        if async_op:
            return CompletedHandle(self.ctx, backend_name, label)
        return None

    # -- all_reduce -------------------------------------------------------

    def all_reduce(
        self, spec: HierSpec, tensor: "SimTensor", op: ReduceOp, async_op: bool
    ) -> Optional["WorkHandle"]:
        comm, lay = self.comm, self.layout
        k, ppn = lay.n_nodes, lay.ppn
        if k == 1:
            return comm.all_reduce(spec.intra, tensor, op=op, async_op=async_op)
        if ppn == 1:
            return comm.all_reduce(spec.inter, tensor, op=op, async_op=async_op)
        numel = tensor.numel()
        if lay.uniform and numel % ppn == 0:
            return self._allreduce_sharded(spec, tensor, op, async_op)
        if op is ReduceOp.AVG and not lay.uniform:
            # AVG-of-AVG is only exact over equal-sized groups; the flat
            # path stays correct for weighted placements
            return comm.all_reduce(spec.inter, tensor, op=op, async_op=async_op)
        return self._allreduce_leader(spec, tensor, op, async_op)

    def _allreduce_sharded(
        self, spec: HierSpec, tensor: "SimTensor", op: ReduceOp, async_op: bool
    ) -> Optional["WorkHandle"]:
        """reduce_scatter (intra) → all_reduce (shard) → all_gather (intra).

        After the intra reduce_scatter, the rank at local index ``l``
        holds shard ``l`` reduced over its node; the shard-group
        all_reduce completes the reduction across nodes; the intra
        all_gather reassembles the full vector in local-index order —
        which is exactly the scatter order, so no permutation is needed.
        """
        intra = self.intra_comm()
        shard = self.shard_comm(self.my_local)
        shard_numel = tensor.numel() // self.layout.ppn
        shard_buf = self._scratch_tensor(
            shard_numel, tensor.dtype, tensor.is_virtual, "ar-shard"
        )
        self._sync(
            intra,
            intra.reduce_scatter(spec.intra, shard_buf, tensor, op=op, async_op=True),
        )
        self._sync(shard, shard.all_reduce(spec.inter, shard_buf, op=op, async_op=True))
        handle = intra.all_gather(spec.intra, tensor, shard_buf, async_op=True)
        return self._finish(intra, handle, async_op)

    def _allreduce_leader(
        self, spec: HierSpec, tensor: "SimTensor", op: ReduceOp, async_op: bool
    ) -> Optional["WorkHandle"]:
        """reduce-to-leader (intra) → all_reduce (leaders) → bcast (intra).

        Correct for any vector length and uneven placements (AVG
        excepted — the caller routes that to the flat path)."""
        intra = self.intra_comm()
        self._sync(
            intra, intra.reduce(spec.intra, tensor, root=0, op=op, async_op=True)
        )
        if self.is_leader:
            leaders = self.shard_comm(0)
            self._sync(
                leaders, leaders.all_reduce(spec.inter, tensor, op=op, async_op=True)
            )
        handle = intra.bcast(spec.intra, tensor, root=0, async_op=True)
        return self._finish(intra, handle, async_op)

    # -- bcast ------------------------------------------------------------

    def bcast(
        self, spec: HierSpec, tensor: "SimTensor", root: int, async_op: bool
    ) -> Optional["WorkHandle"]:
        comm, lay = self.comm, self.layout
        if not 0 <= root < comm.world_size:
            raise ValidationError(
                f"root {root} out of range [0, {comm.world_size})"
            )
        if lay.n_nodes == 1:
            return comm.bcast(spec.intra, tensor, root=root, async_op=async_op)
        if lay.ppn == 1:
            return comm.bcast(spec.inter, tensor, root=root, async_op=async_op)
        root_global = comm.group_ranks[root]
        root_node, root_local = lay.locate(root_global)
        intra = self.intra_comm()
        if self.my_node == root_node:
            # hoist the payload to this node's leader (and everyone else
            # on the node) in one intra bcast
            self._sync(
                intra,
                intra.bcast(spec.intra, tensor, root=root_local, async_op=True),
            )
        if self.is_leader:
            leaders = self.shard_comm(0)
            self._sync(
                leaders,
                leaders.bcast(spec.inter, tensor, root=root_node, async_op=True),
            )
        if self.my_node == root_node:
            # this node already holds the payload; its part is done
            return self._completed(spec.intra, f"bcast:{spec.name}", async_op)
        handle = intra.bcast(spec.intra, tensor, root=0, async_op=True)
        return self._finish(intra, handle, async_op)

    # -- all_gather -------------------------------------------------------

    def all_gather(
        self, spec: HierSpec, output: "SimTensor", input: "SimTensor", async_op: bool
    ) -> Optional["WorkHandle"]:
        comm, lay = self.comm, self.layout
        if output.numel() != input.numel() * comm.world_size:
            raise ValidationError(
                f"all_gather: output numel {output.numel()} != "
                f"{comm.world_size} * {input.numel()}"
            )
        if lay.n_nodes == 1:
            return comm.all_gather(spec.intra, output, input, async_op=async_op)
        if lay.ppn == 1:
            return comm.all_gather(spec.inter, output, input, async_op=async_op)
        if not lay.uniform:
            # gathering uneven node blocks needs vectored phases; the
            # flat inter path stays correct
            return comm.all_gather(spec.inter, output, input, async_op=async_op)
        intra = self.intra_comm()
        shard = self.shard_comm(self.my_local)
        virtual = input.is_virtual or output.is_virtual
        node_buf = self._scratch_tensor(
            input.numel() * lay.ppn, input.dtype, virtual, "ag-node"
        )
        self._sync(
            intra, intra.all_gather(spec.intra, node_buf, input, async_op=True)
        )
        handle = shard.all_gather(spec.inter, output, node_buf, async_op=True)
        # the shard all_gather lands chunks in node-major order; groups
        # whose parent order interleaves nodes need one local permutation
        if not virtual and not lay.node_contiguous(comm.group_ranks):
            perm = self._allgather_perm()
            chunk = input.numel()
            flat = output.contiguous().view_flat()

            def reorder() -> None:
                flat[:] = flat.reshape(len(perm), chunk)[perm].reshape(-1)

            self._on_complete(handle, reorder)
        return self._finish(shard, handle, async_op)

    def _allgather_perm(self) -> np.ndarray:
        """``perm[j]`` = node-major position of parent group rank j."""
        key = ("ag-perm",)
        perm = self._perms.get(key)
        if perm is None:
            lay = self.comm.group_ranks
            node_major = [
                r for members in self.layout.node_members for r in members
            ]
            pos = {r: i for i, r in enumerate(node_major)}
            perm = np.array([pos[r] for r in lay], dtype=np.intp)
            self._perms[key] = perm
        return perm

    # -- all_to_all_single -------------------------------------------------

    def all_to_all_single(
        self, spec: HierSpec, output: "SimTensor", input: "SimTensor", async_op: bool
    ) -> Optional["WorkHandle"]:
        comm, lay = self.comm, self.layout
        p = comm.world_size
        if input.numel() != output.numel():
            raise ValidationError("all_to_all_single: input/output numel differ")
        if input.numel() % p != 0:
            raise ValidationError(
                f"all_to_all_single: numel {input.numel()} not divisible by "
                f"world size {p}"
            )
        if lay.n_nodes == 1:
            return comm.all_to_all_single(spec.intra, output, input, async_op=async_op)
        if lay.ppn == 1:
            return comm.all_to_all_single(spec.inter, output, input, async_op=async_op)
        if not lay.uniform:
            return comm.all_to_all_single(spec.inter, output, input, async_op=async_op)
        k, m = lay.n_nodes, lay.ppn
        chunk = input.numel() // p
        virtual = input.is_virtual or output.is_virtual
        tmp_a = self._scratch_tensor(input.numel(), input.dtype, virtual, "a2a-a")
        tmp_b = self._scratch_tensor(input.numel(), input.dtype, virtual, "a2a-b")
        pack, transpose, unpack = self._a2a_perms(k, m)
        if not virtual:
            src = input.contiguous().view_flat().reshape(p, chunk)
            tmp_a.view_flat().reshape(p, chunk)[:] = src[pack]
        intra = self.intra_comm()
        shard = self.shard_comm(self.my_local)
        self._sync(
            intra, intra.all_to_all_single(spec.intra, tmp_b, tmp_a, async_op=True)
        )
        if not virtual:
            b = tmp_b.view_flat().reshape(p, chunk)
            tmp_a.view_flat().reshape(p, chunk)[:] = b[transpose]
        handle = shard.all_to_all_single(spec.inter, tmp_b, tmp_a, async_op=True)
        if not virtual:
            out_flat = output.contiguous().view_flat()
            b_flat = tmp_b.view_flat()

            def deliver() -> None:
                out_flat.reshape(p, chunk)[:] = b_flat.reshape(p, chunk)[unpack]

            self._on_complete(handle, deliver)
        if async_op:
            return handle
        self._sync(shard, handle)
        return None

    def _a2a_perms(self, k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays for the three local shuffles of the two-phase
        alltoall.  All are permutations of the ``p = k*m`` chunk slots:

        * ``pack``: gather input chunks (keyed by destination parent
          rank) into intra-phase send order — for local destination
          ``l``, the ``k`` chunks bound for local index ``l`` on each
          node, in node order;
        * ``transpose``: regroup the intra-phase result (local source
          major) into inter-phase send order (destination node major);
        * ``unpack``: scatter the inter-phase result (source node major)
          into parent source-rank order.
        """
        key = ("a2a", k, m)
        cached = self._perms.get(key)
        if cached is not None:
            return cached
        lay = self.layout
        group_ranks = self.comm.group_ranks
        # parent index of the member at (node n, local l)
        idx = {
            (n, l): group_ranks.index(lay.node_members[n][l])
            for n in range(k)
            for l in range(len(lay.node_members[n]))
        }
        pack = np.empty(k * m, dtype=np.intp)
        for l in range(m):
            for n in range(k):
                pack[l * k + n] = idx[(n, l)]
        # after the intra alltoall, slot (l_src * k + n_dst) holds the
        # chunk from local source l_src bound for node n_dst (at my
        # local index); regroup to (n_dst * m + l_src)
        transpose = np.empty(k * m, dtype=np.intp)
        for n in range(k):
            for l in range(m):
                transpose[n * m + l] = l * k + n
        # after the inter alltoall, slot (n_src * m + l_src) holds the
        # chunk from the member at (n_src, l_src); parent rank j reads
        # its chunk from that slot
        unpack = np.empty(k * m, dtype=np.intp)
        for j, r in enumerate(group_ranks):
            n_src, l_src = lay.locate(r)
            unpack[j] = n_src * m + l_src
        cached = self._perms[key] = (pack, transpose, unpack)
        return cached


# ---------------------------------------------------------------------------
# composite analytic cost (priced through price_us for a hier:* name)
# ---------------------------------------------------------------------------


def _dense_layout(system: "SystemSpec", world_size: int) -> tuple[int, int, bool]:
    """(n_nodes, ppn, uniform) for densely packed ranks 0..ws-1."""
    ppn = min(world_size, system.gpus_per_node)
    n_nodes = system.nodes_for(world_size)
    uniform = world_size % system.gpus_per_node == 0 or n_nodes == 1
    return n_nodes, ppn, uniform


def hier_cost_phases(
    system: "SystemSpec",
    spec: HierSpec,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional["MCRConfig"] = None,
) -> Optional[list[PhaseCost]]:
    """Phase-by-phase analytic cost of one hierarchical collective for
    densely packed ranks ``0..world_size-1``, or ``None`` when the
    family is not hierarchically decomposable.

    Mirrors the executor's schedule: every phase is a full MCR-DL
    dispatch (non-blocking post + host synchronize), so each carries the
    constituent's :func:`~repro.backends.base.price_us` without
    overheads, plus the per-phase dispatch and call overheads kept apart
    in ``overhead_us`` (the retuner scales only the former by drift).
    """
    if family not in HIER_FAMILIES:
        return None
    from repro.core.config import MCRConfig

    cfg = config or MCRConfig()
    k, ppn, uniform = _dense_layout(system, world_size)

    def phase(tag: str, name: str, fam: OpFamily, n: int, p: int, path) -> PhaseCost:
        backend = cost_backend(name, p, system)
        return PhaseCost(
            phase=tag, backend=name, family=fam.value,
            cost_us=price_us(
                system, backend, fam, n, p, path, cfg,
                nonblocking=True, overheads=False,
            ),
            overhead_us=cfg.dispatch_overhead_us + backend.call_overhead_us(),
        )

    def flat(name: str) -> list[PhaseCost]:
        path = system.comm_path(world_size)
        return [phase("flat", name, family, nbytes, world_size, path)]

    if k == 1:
        return flat(spec.intra)
    if ppn == 1:
        return flat(spec.inter)
    intra_path = system.comm_path(ppn)
    leader_path = system.comm_path_for_ranks(
        [n * system.gpus_per_node for n in range(k)]
    )
    if family is OpFamily.ALLREDUCE:
        if uniform:
            return [
                phase("intra", spec.intra, OpFamily.REDUCE_SCATTER, nbytes, ppn, intra_path),
                phase("inter", spec.inter, OpFamily.ALLREDUCE, nbytes // ppn, k, leader_path),
                phase("intra", spec.intra, OpFamily.ALLGATHER, nbytes // ppn, ppn, intra_path),
            ]
        return [
            phase("intra", spec.intra, OpFamily.REDUCE, nbytes, ppn, intra_path),
            phase("inter", spec.inter, OpFamily.ALLREDUCE, nbytes, k, leader_path),
            phase("intra", spec.intra, OpFamily.BROADCAST, nbytes, ppn, intra_path),
        ]
    if family is OpFamily.BROADCAST:
        return [
            phase("intra", spec.intra, OpFamily.BROADCAST, nbytes, ppn, intra_path),
            phase("inter", spec.inter, OpFamily.BROADCAST, nbytes, k, leader_path),
            phase("intra", spec.intra, OpFamily.BROADCAST, nbytes, ppn, intra_path),
        ]
    if family is OpFamily.ALLGATHER:
        if not uniform:
            return flat(spec.inter)
        return [
            phase("intra", spec.intra, OpFamily.ALLGATHER, nbytes, ppn, intra_path),
            phase("inter", spec.inter, OpFamily.ALLGATHER, nbytes * ppn, k, leader_path),
        ]
    # ALLTOALL: each rank moves its full local volume in both phases
    if not uniform:
        return flat(spec.inter)
    return [
        phase("intra", spec.intra, OpFamily.ALLTOALL, nbytes, ppn, intra_path),
        phase("inter", spec.inter, OpFamily.ALLTOALL, nbytes, k, leader_path),
    ]


def hier_collective_cost_us(
    system: "SystemSpec",
    spec: HierSpec,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional["MCRConfig"] = None,
) -> float:
    """End-to-end analytic latency of one hierarchical collective; +inf
    for families a hierarchical target cannot run (so tuner sweeps never
    select it there)."""
    phases = hier_cost_phases(system, spec, family, nbytes, world_size, config)
    if phases is None:
        return math.inf
    return composite_cost_us(phases)
