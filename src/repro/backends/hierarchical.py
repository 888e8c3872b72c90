"""Hierarchical mixed-backend collectives (``hier:<intra>+<inter>``).

MCR-DL mixes backends *across* operations (paper §V-F); this module
mixes them *within* one operation: a two-level collective whose
intra-node phase runs on the best intra-node backend (typically NCCL
over NVLink) and whose inter-node phase runs on the best inter-node
backend (typically an MPI over host-initiated RDMA) — the MPI-vs-NCCL
split Awan et al. measured for broadcast, generalized to allreduce,
allgather, and alltoall.

A hierarchical target is a *dispatch* spelling, not a registered
:class:`~repro.backends.base.Backend`; both constituents must be
initialized on the communicator.  :func:`hier_phases` compiles one call
into a *phase list*: each :class:`Phase` is one primitive collective on
one constituent over an auto-derived process group — the **intra-node
group** of each node, or one of ``ppn`` **shard groups** holding the
rank at one local index on every node (shard 0 = the node leaders):

* ``all_reduce``      — intra reduce_scatter → shard all_reduce
  (1/ppn of the vector across the nodes) → intra all_gather;
* ``bcast``           — intra bcast on the root's node → leader bcast →
  intra bcast on the other nodes;
* ``all_gather``      — intra all_gather → shard all_gather (+ a local
  chunk permutation when the group is not node-contiguous);
* ``all_to_all_single`` — local pack → intra alltoall → local transpose
  → shard alltoall → local unpack into source-rank order.

Uneven placements fall back to a leader scheme where it is correct, and
to one flat phase on the inter constituent otherwise; single-node or
one-rank-per-node groups degenerate to one flat phase.

The same list is run and priced.  The communicator compiles it into the
composite's :class:`~repro.core.dispatch.CommPlan` and posts each phase
through its ordinary collective spine on a phase group
(``docs/INTERNALS.md`` §13): rendezvous matching, fault
retry/quarantine/failover, and phase-tagged comm records
(``phase="intra"``/``"inter"``) come with it.  :func:`hier_cost_phases`
prices the list for densely packed ranks, the inter phases on the
leaders' path (one rank per node → the full NIC per leader, the
mechanism behind the large-message crossover), so the tuner can sweep
``hier:*`` candidates next to flat backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from repro.backends.base import (
    HIER_PREFIX,
    available_backends,
    canonical_name,
    cost_backend,
    is_hier_name,
    price_us,
)
from repro.backends.cost import PhaseCost, composite_cost_us
from repro.backends.ops import OpFamily, ReduceOp
from repro.core.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import SystemSpec
    from repro.core.config import MCRConfig

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


def parse_hier(name: str) -> HierSpec:
    """Parse and canonicalize ``hier:<intra>+<inter>``.

    Raises :class:`BackendError` on malformed spellings.  Constituent
    names go through the normal backend alias map, so
    ``hier:nccl+mvapich`` and ``hier:nccl+mvapich2-gdr`` are the same
    target.
    """
    if not is_hier_name(name):
        raise BackendError(f"{name!r} is not a hierarchical backend target")
    body = name[len(HIER_PREFIX):]
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
    return HierSpec(name=f"{HIER_PREFIX}{intra}+{inter}", intra=intra, inter=inter)


# ---------------------------------------------------------------------------
# group layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierLayout:
    """Node placement of one communicator's group, in group order.

    ``node_members[i]`` lists the global ranks placed on the i-th node
    (nodes ordered by first appearance in ``ranks``, the parent's group
    order; members in that order).  ``uniform`` means every node hosts
    the same number of member ranks.
    """

    node_members: tuple[tuple[int, ...], ...]
    uniform: bool
    ppn: int
    ranks: tuple[int, ...] = ()

    @property
    def n_nodes(self) -> int:
        return len(self.node_members)

    def locate(self, rank: int) -> tuple[int, int]:
        """(node index, local index) of one member rank."""
        for n, members in enumerate(self.node_members):
            if rank in members:
                return n, members.index(rank)
        raise ValueError(f"rank {rank} not in layout")  # pragma: no cover

    def group(self, kind: str, rank: int) -> tuple[int, ...]:
        """The global ranks of the phase group of ``kind`` (a
        :attr:`Phase.group`) that member ``rank`` runs in."""
        if kind == "flat":
            return self.ranks
        node, local = self.locate(rank)
        if kind == "intra":
            return self.node_members[node]
        if kind == "leaders":
            local = 0
        return tuple(members[local] for members in self.node_members)


def derive_layout(system: "SystemSpec", group_ranks) -> HierLayout:
    """Group the member ranks by node, preserving parent group order."""
    by_node: dict[int, list[int]] = {}
    for r in group_ranks:
        by_node.setdefault(system.node_of(r), []).append(r)
    members = tuple(tuple(m) for m in by_node.values())
    sizes = {len(m) for m in members}
    return HierLayout(
        node_members=members,
        uniform=len(sizes) == 1,
        ppn=max(len(m) for m in members),
        ranks=tuple(group_ranks),
    )


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------


class Scratch(NamedTuple):
    """A buffer the composite allocates for its phases, per call."""

    slot: str
    nbytes: int


#: a phase buffer: ``"in"``/``"out"`` name the caller's tensors (one
#: and the same for the in-place families), or a :class:`Scratch`
Role = Union[str, Scratch]


class Shuffle(NamedTuple):
    """One local chunk permutation: chunk ``i`` of ``dst`` becomes chunk
    ``perm[i]`` of ``src`` (``len(perm)`` equal chunks)."""

    src: Role
    dst: Role
    perm: np.ndarray


@dataclass(frozen=True, eq=False)
class Phase:
    """One primitive collective of a composite's schedule.

    ``group`` names the process group each taking-part rank runs it on:
    ``"intra"`` (its node), ``"shard"`` (the ranks at its local index on
    every node), ``"leaders"`` (shard 0) or ``"flat"`` (the whole group:
    a degenerate composite, posted as the call itself).  ``members``
    are the global ranks that take part (None: all of them); ``root`` is
    group-local.  ``before`` runs ahead of the post, ``after`` once the
    phase's data has moved; both are skipped for timing-only tensors.
    """

    group: str
    backend: str
    family: OpFamily
    nbytes: int
    members: Optional[tuple[int, ...]] = None
    root: int = 0
    out: Role = "out"
    src: Role = "in"
    before: Optional[Shuffle] = None
    after: Optional[Shuffle] = None

    @property
    def tag(self) -> str:
        """The phase tag its labels and comm records carry."""
        return self.group if self.group in ("intra", "flat") else "inter"


def hier_phases(
    layout: HierLayout,
    spec: HierSpec,
    family: OpFamily,
    nbytes: int,
    *,
    divisible: bool = True,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> list[Phase]:
    """The phase list of one ``family`` call of ``nbytes`` per rank
    (one of :data:`HIER_FAMILIES`) on ``layout``.

    The facts a schedule turns on besides the layout are arguments:
    ``divisible`` (the vector splits into ppn equal shards), the
    reduction ``op`` and the bcast ``root`` (a group rank; its node
    skips the last phase).
    """
    k, ppn = layout.n_nodes, layout.ppn
    intra, inter = spec.intra, spec.inter
    if k == 1 or ppn == 1:
        return [Phase("flat", intra if k == 1 else inter, family, nbytes)]
    leaders = tuple(members[0] for members in layout.node_members)
    if family is OpFamily.ALLREDUCE:
        if layout.uniform and divisible:
            # after the intra reduce_scatter, local index l holds shard l
            # reduced over its node; the shard all_reduce completes it
            # across nodes, and the intra all_gather reassembles in
            # local-index order — the scatter order, so no permutation
            shard = Scratch("ar-shard", nbytes // ppn)
            return [
                Phase("intra", intra, OpFamily.REDUCE_SCATTER, nbytes, out=shard),
                Phase("shard", inter, OpFamily.ALLREDUCE, shard.nbytes, out=shard),
                Phase("intra", intra, OpFamily.ALLGATHER, shard.nbytes, src=shard),
            ]
        if op is ReduceOp.AVG and not layout.uniform:
            # AVG-of-AVG is only exact over equal-sized groups; the flat
            # path stays correct for weighted placements
            return [Phase("flat", inter, family, nbytes)]
        # reduce-to-leader → leaders all_reduce → bcast: any length,
        # any placement
        return [
            Phase("intra", intra, OpFamily.REDUCE, nbytes),
            Phase("leaders", inter, OpFamily.ALLREDUCE, nbytes, members=leaders),
            Phase("intra", intra, OpFamily.BROADCAST, nbytes),
        ]
    if family is OpFamily.BROADCAST:
        root_node, root_local = layout.locate(layout.ranks[root])
        on_root = layout.node_members[root_node]
        return [
            # hoist the payload to the root node's leader (and everyone
            # else on the node) in one intra bcast
            Phase("intra", intra, family, nbytes, members=on_root, root=root_local),
            Phase("leaders", inter, family, nbytes, members=leaders, root=root_node),
            Phase(
                "intra", intra, family, nbytes,
                members=tuple(r for r in layout.ranks if r not in on_root),
            ),
        ]
    if not layout.uniform:
        # uneven node blocks need vectored phases; the flat inter path
        # stays correct
        return [Phase("flat", inter, family, nbytes)]
    if family is OpFamily.ALLGATHER:
        node = Scratch("ag-node", nbytes * ppn)
        # the shard all_gather lands chunks node-major; a group whose
        # order interleaves nodes needs one local permutation
        node_major = [r for members in layout.node_members for r in members]
        after = None
        if node_major != list(layout.ranks):
            pos = {r: i for i, r in enumerate(node_major)}
            after = Shuffle("out", "out", np.array([pos[r] for r in layout.ranks], dtype=np.intp))
        return [
            Phase("intra", intra, family, nbytes, out=node),
            Phase("shard", inter, family, node.nbytes, src=node, after=after),
        ]
    # ALLTOALL: every rank moves its full local volume in both phases
    a, b = Scratch("a2a-a", nbytes), Scratch("a2a-b", nbytes)
    pack, transpose, unpack = _a2a_perms(layout)
    return [
        Phase("intra", intra, family, nbytes, out=b, src=a, before=Shuffle("in", a, pack)),
        Phase(
            "shard", inter, family, nbytes, out=b, src=a,
            before=Shuffle(b, a, transpose), after=Shuffle(b, "out", unpack),
        ),
    ]


def _a2a_perms(layout: HierLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for the three local shuffles of the two-phase
    alltoall.  All are permutations of the ``p = k*m`` chunk slots:

    * ``pack``: gather input chunks (keyed by destination parent rank)
      into intra-phase send order — for local destination ``l``, the
      ``k`` chunks bound for local index ``l`` on each node, in node
      order;
    * ``transpose``: regroup the intra-phase result (local source major)
      into inter-phase send order (destination node major);
    * ``unpack``: scatter the inter-phase result (source node major)
      into parent source-rank order.
    """
    k, m = layout.n_nodes, layout.ppn
    index = {r: j for j, r in enumerate(layout.ranks)}
    pack = np.array(
        [index[layout.node_members[n][l]] for l in range(m) for n in range(k)], dtype=np.intp
    )
    # after the intra alltoall, slot (l_src * k + n_dst) holds the chunk
    # from local source l_src bound for node n_dst (at my local index);
    # regroup to (n_dst * m + l_src)
    transpose = np.array([l * k + n for n in range(k) for l in range(m)], dtype=np.intp)
    # after the inter alltoall, slot (n_src * m + l_src) holds the chunk
    # from the member at (n_src, l_src); parent rank j reads it there
    unpack = np.array(
        [n * m + l for n, l in map(layout.locate, layout.ranks)], dtype=np.intp
    )
    return pack, transpose, unpack


# ---------------------------------------------------------------------------
# composite analytic cost (priced through price_us for a hier:* name)
# ---------------------------------------------------------------------------


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

    Prices :func:`hier_phases` on the dense layout as rank 0 runs it
    (the fullest node, the leaders' shard), with the schedule's facts at
    their defaults: a shardable vector, a non-AVG op, and every phase of
    a bcast.  Each phase is a non-blocking post that the next one
    host-synchronizes on, so each carries the constituent's
    :func:`~repro.backends.base.price_us` without overheads, plus the
    per-phase dispatch and call overheads kept apart in ``overhead_us``
    (the retuner scales only the former by drift).  A degenerate list's
    one phase runs on the whole group's path.
    """
    if family not in HIER_FAMILIES:
        return None
    from repro.core.config import MCRConfig

    cfg = config or MCRConfig()
    layout = derive_layout(system, range(world_size))
    costs = []
    for phase in hier_phases(layout, spec, family, nbytes):
        ranks = layout.group(phase.group, 0)
        path = system.comm_path_for_ranks(ranks)
        backend = cost_backend(phase.backend, len(ranks), system)
        costs.append(PhaseCost(
            phase=phase.tag, backend=phase.backend, family=phase.family.value,
            cost_us=price_us(
                system, backend, phase.family, phase.nbytes, len(ranks), path, cfg,
                nonblocking=True, overheads=False,
            ),
            overhead_us=cfg.dispatch_overhead_us + backend.call_overhead_us(),
        ))
    return costs


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
