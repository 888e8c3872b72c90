"""Cluster topology: placement, paths, comm-path aggregation, systems."""

import pytest

from repro.cluster import (
    A100,
    IB_EDR,
    NVSWITCH,
    V100,
    LinkSpec,
    generic_cluster,
    lassen,
    thetagpu,
)


class TestLinkSpec:
    def test_transfer_time_alpha_beta(self):
        link = LinkSpec("x", latency_us=2.0, bandwidth_gbps=10.0)
        # 10 GB/s = 10_000 bytes/us
        assert link.transfer_us(10_000) == pytest.approx(3.0)

    def test_beta(self):
        link = LinkSpec("x", 1.0, 20.0)
        assert link.beta_us_per_byte == pytest.approx(1 / 20_000)


class TestGpuSpecs:
    def test_effective_flops_below_peak(self):
        assert V100.effective_fp16_flops() < V100.fp16_tflops * 1e12
        assert A100.effective_fp16_flops() > V100.effective_fp16_flops()


class TestPlacement:
    def test_dense_packing_lassen(self):
        sys = lassen()
        assert sys.gpus_per_node == 4
        assert sys.node_of(0) == 0
        assert sys.node_of(3) == 0
        assert sys.node_of(4) == 1

    def test_same_node(self):
        sys = thetagpu()  # 8 per node
        assert sys.same_node(0, 7)
        assert not sys.same_node(7, 8)

    def test_nodes_for_rounds_up(self):
        assert lassen().nodes_for(5) == 2
        assert lassen().nodes_for(4) == 1

    def test_validate_world_size(self):
        with pytest.raises(ValueError):
            thetagpu().validate_world_size(24 * 8 + 1)
        with pytest.raises(ValueError):
            lassen().validate_world_size(0)


class TestPaths:
    def test_intra_vs_inter_link(self):
        sys = thetagpu()
        assert sys.path(0, 1) is NVSWITCH
        assert sys.path(0, 8).name == "IB-HDR"

    def test_loopback_is_fast(self):
        sys = lassen()
        loop = sys.path(2, 2)
        assert loop.latency_us < sys.node.intra_link.latency_us


class TestCommPath:
    def test_single_node_uses_intra_only(self):
        path = lassen().comm_path(4)
        assert path.n_nodes == 1
        assert path.intra_fraction == 1.0
        assert path.alpha_us == lassen().node.intra_link.latency_us

    def test_multi_node_uses_inter_alpha(self):
        path = lassen().comm_path(8)
        assert path.n_nodes == 2
        assert path.spans_nodes
        assert path.alpha_us == IB_EDR.latency_us

    def test_beta_degrades_with_scale(self):
        sys = lassen()
        b8 = sys.comm_path(8).beta_us_per_byte
        b64 = sys.comm_path(64).beta_us_per_byte
        b256 = sys.comm_path(256).beta_us_per_byte
        assert b8 < b64 <= b256

    def test_intra_fraction_shrinks_with_scale(self):
        sys = thetagpu()
        assert sys.comm_path(16).intra_fraction > sys.comm_path(64).intra_fraction

    def test_single_rank(self):
        path = lassen().comm_path(1)
        assert path.n_nodes == 1
        assert path.ppn == 1

    @pytest.mark.parametrize("system, ws", [(lassen(), 6), (thetagpu(), 20)])
    def test_dense_path_is_the_exact_path(self, system, ws):
        # a partly filled last node: one model for the world and a group
        assert system.comm_path(ws) == system.comm_path_for_ranks(range(ws))

    def test_partly_filled_last_node_counts_its_pairs(self):
        # ws 6 on lassen: nodes of 4 and 2 ranks, (4*3 + 2*1) / (6*5)
        # ordered pairs share a node, not 6*3 / 30
        path = lassen().comm_path(6)
        assert path.intra_fraction == 14 / 30
        assert path.ppn == 4

    def test_dense_path_is_cached_and_validated(self):
        sys = lassen()
        assert sys.comm_path(12) is sys.comm_path(12)
        with pytest.raises(ValueError, match="cannot place"):
            sys.comm_path(4 * sys.max_nodes + 1)


class TestSystems:
    def test_lassen_shape(self):
        sys = lassen()
        assert sys.max_nodes == 792
        assert sys.node.gpu is V100

    def test_thetagpu_shape(self):
        sys = thetagpu()
        assert sys.max_nodes == 24
        assert sys.node.gpu is A100
        assert sys.gpus_per_node == 8

    def test_generic_cluster_custom(self):
        sys = generic_cluster(gpus_per_node=2, max_nodes=10)
        assert sys.gpus_per_node == 2
        sys.validate_world_size(20)

    def test_host_staging_cost(self):
        sys = lassen()
        small = sys.host_staging_us(1024)
        big = sys.host_staging_us(1 << 20)
        assert big > small > 0


class TestGroupPathFabric:
    """comm_path_for_ranks must use the same fabric model as comm_path
    (regression: it applied the linear heuristic and raw link latency
    even when a detailed fabric was installed)."""

    def test_dense_group_matches_world_path(self):
        sys = lassen(detailed_fabric=True)
        dense = sys.comm_path(16)
        group = sys.comm_path_for_ranks(range(16))
        assert group.alpha_us == pytest.approx(dense.alpha_us)
        assert group.beta_us_per_byte == pytest.approx(dense.beta_us_per_byte)
        assert (group.n_nodes, group.ppn) == (dense.n_nodes, dense.ppn)

    def test_group_alpha_uses_fabric_latency(self):
        sys = lassen(detailed_fabric=True)
        path = sys.comm_path_for_ranks([0, 1, 2, 4])
        assert path.alpha_us == pytest.approx(
            sys.fabric.effective_inter_latency_us(sys.inter_link, 2)
        )
        # pre-fix this was the raw link latency, no switch hops
        assert path.alpha_us > sys.inter_link.latency_us

    def test_uneven_group_hand_computed(self):
        # {0,1,2,4} on lassen: 3 ranks on node 0 + 1 on node 1
        sys = lassen()
        path = sys.comm_path_for_ranks([0, 1, 2, 4])
        assert path.n_nodes == 2
        assert path.ppn == 3  # max per-node occupancy
        # intra pairs: 3*2 of 4*3 ordered pairs
        assert path.intra_fraction == pytest.approx(0.5)
        assert path.alpha_us == sys.inter_link.latency_us
        contention = 1.0 + sys.fabric_contention / (sys.max_nodes - 1)
        beta_inter = 1.0 / (sys.inter_link.bandwidth_gbps / 3 / contention * 1e3)
        expect = 0.5 * sys.node.intra_link.beta_us_per_byte + 0.5 * beta_inter
        assert path.beta_us_per_byte == pytest.approx(expect)
