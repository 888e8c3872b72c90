"""System topology: how ranks map to nodes and what links connect them.

A :class:`SystemSpec` answers the only questions a collective cost model
needs:

* which ranks share a node (rank -> node via dense packing, ppn =
  gpus_per_node);
* the latency/bandwidth of the path between two ranks
  (:meth:`SystemSpec.path`);
* aggregate quantities for a communicator over a rank set — the
  slowest per-hop latency, the per-rank bottleneck bandwidth, and the
  exact fraction of peer pairs that cross node boundaries
  (:meth:`SystemSpec.comm_path_for_ranks`; :meth:`SystemSpec.comm_path`
  is its dense ``0..p-1`` case).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.cluster.hardware import LinkSpec, NodeSpec


@dataclass(frozen=True)
class CommPath:
    """Effective communication characteristics for a communicator.

    This is the alpha-beta abstraction the backend cost models consume:

    Attributes:
        alpha_us: worst-case per-message latency on the critical path.
        beta_us_per_byte: per-rank bottleneck inverse bandwidth.
        intra_fraction: fraction of peer pairs reachable intra-node.
        n_nodes: number of nodes spanned.
        ppn: ranks per node.
    """

    alpha_us: float
    beta_us_per_byte: float
    intra_fraction: float
    n_nodes: int
    ppn: int

    @property
    def spans_nodes(self) -> bool:
        return self.n_nodes > 1


class SystemSpec:
    """A full system: homogeneous nodes plus an inter-node fabric."""

    def __init__(
        self,
        name: str,
        node: NodeSpec,
        inter_link: LinkSpec,
        max_nodes: int,
        #: fat-tree contention factor: >1 inflates effective inter-node
        #: traffic time as the job grows (tapering / adaptive-routing loss)
        fabric_contention: float = 1.0,
        #: interference between the node's two injection paths
        #: (GPU-initiated NCCL-style vs host-initiated MPI RDMA): 0 means
        #: fully independent lanes, 1 means one shared wire.  Concurrent
        #: large transfers on *different* paths each still consume this
        #: fraction of the common fabric.
        cross_path_interference: float = 0.6,
        #: optional explicit fat-tree model (repro.cluster.fattree); when
        #: set, contention and inter-node alpha come from the tree's
        #: structure instead of the linear heuristic above
        fabric=None,
    ):
        self.name = name
        self.node = node
        self.inter_link = inter_link
        self.max_nodes = max_nodes
        self.fabric_contention = fabric_contention
        self.cross_path_interference = cross_path_interference
        self.fabric = fabric
        # comm_path(ws) is pure in the spec's (post-construction
        # immutable) topology and sits under every analytic cost query
        self._comm_path_cache: dict[int, CommPath] = {}

    # -- rank placement (dense packing) ---------------------------------

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def nodes_for(self, world_size: int) -> int:
        ppn = self.gpus_per_node
        return (world_size + ppn - 1) // ppn

    def validate_world_size(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if self.nodes_for(world_size) > self.max_nodes:
            raise ValueError(
                f"{self.name} has {self.max_nodes} nodes "
                f"({self.max_nodes * self.gpus_per_node} GPUs); "
                f"cannot place {world_size} ranks"
            )

    # -- pairwise path ---------------------------------------------------

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of(rank_a) == self.node_of(rank_b)

    def path(self, rank_a: int, rank_b: int) -> LinkSpec:
        """The link a message between two ranks traverses."""
        if rank_a == rank_b:
            # loopback: device-local copy, model as very fast link
            intra = self.node.intra_link
            return LinkSpec("loopback", 0.5, intra.bandwidth_gbps * 4)
        if self.same_node(rank_a, rank_b):
            return self.node.intra_link
        return self.inter_link

    # -- communicator-level aggregate -------------------------------------

    def comm_path(self, world_size: int) -> CommPath:
        """Effective alpha/beta for a communicator of ranks
        ``0..world_size-1``: :meth:`comm_path_for_ranks` over the dense
        placement, validated and cached per size."""
        path = self._comm_path_cache.get(world_size)
        if path is None:
            self.validate_world_size(world_size)
            path = self._comm_path_cache[world_size] = self.comm_path_for_ranks(
                range(world_size)
            )
        return path

    def comm_path_for_ranks(self, ranks) -> CommPath:
        """Effective alpha/beta for a communicator over ``ranks`` (the
        world, or a process group: tensor-parallel pairs, data-parallel
        slices), from the members' actual node placement.

        The fraction of ordered peer pairs that share a node rides the
        intra-node link; the rest crosses the fabric, where each node's
        inter link is shared by its ranks (the fullest node sets the
        per-rank bottleneck: the classic reason scaling efficiency drops
        at the node boundary), inflated by fabric contention as the node
        count grows."""
        per_node = Counter(map(self.node_of, ranks))
        if not per_node:
            raise ValueError("empty rank group")
        n_nodes, p = len(per_node), sum(per_node.values())
        intra = self.node.intra_link
        if n_nodes == 1:
            return CommPath(
                alpha_us=intra.latency_us,
                beta_us_per_byte=intra.beta_us_per_byte,
                intra_fraction=1.0,
                n_nodes=1,
                ppn=p,
            )
        intra_pairs = sum(c * (c - 1) for c in per_node.values())
        intra_fraction = intra_pairs / (p * (p - 1))
        # a detailed fabric sets contention and hop latency from the
        # tree's structure instead of the linear heuristic
        if self.fabric is not None:
            contention = self.fabric.contention(n_nodes)
            alpha = self.fabric.effective_inter_latency_us(self.inter_link, n_nodes)
        else:
            contention = 1.0 + self.fabric_contention * (n_nodes - 1) / max(
                self.max_nodes - 1, 1
            )
            alpha = self.inter_link.latency_us
        max_occupancy = max(per_node.values())
        inter_bw_per_rank = self.inter_link.bandwidth_gbps / max_occupancy / contention
        beta_inter = 1.0 / (inter_bw_per_rank * 1e3)
        beta = intra_fraction * intra.beta_us_per_byte + (1 - intra_fraction) * beta_inter
        return CommPath(
            alpha_us=alpha,
            beta_us_per_byte=beta,
            intra_fraction=intra_fraction,
            n_nodes=n_nodes,
            ppn=max_occupancy,
        )

    # -- host staging (non-CUDA-aware paths) -------------------------------

    def host_staging_us(self, nbytes: int) -> float:
        """Time to copy a buffer device<->host once (PCIe staging)."""
        node = self.node
        return node.host_staging_latency_us + nbytes / (node.host_staging_gbps * 1e3)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SystemSpec({self.name}: {self.max_nodes}x{self.gpus_per_node} "
            f"{self.node.gpu.name})"
        )
