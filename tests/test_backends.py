"""Backend classes: registry, properties, cost surfaces, extensibility."""

import pytest

from repro.backends import (
    Backend,
    BackendProperties,
    GlooBackend,
    MscclBackend,
    MvapichGdrBackend,
    NcclBackend,
    OpenMpiBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.backends.base import backend_class, canonical_name
from repro.backends.calibration import BackendTuning, OpTuning
from repro.backends.ops import OpFamily
from repro.cluster import generic_cluster


@pytest.fixture
def system():
    return generic_cluster()


class TestRegistry:
    def test_all_paper_backends_registered(self):
        names = available_backends()
        assert {"nccl", "mvapich2-gdr", "openmpi", "msccl", "gloo"} <= set(names)

    def test_aliases(self):
        assert canonical_name("mv2-gdr") == "mvapich2-gdr"
        assert canonical_name("sccl") == "msccl"
        assert canonical_name("ompi") == "openmpi"
        assert canonical_name("mpi") == "mvapich2-gdr"
        assert canonical_name("NCCL") == "nccl"

    def test_create_by_alias(self, system):
        backend = create_backend("sccl", 0, 4, system)
        assert isinstance(backend, MscclBackend)

    def test_unknown_backend(self, system):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("rccl", 0, 4, system)

    def test_backend_class_lookup(self):
        assert backend_class("nccl") is NcclBackend

    def test_register_new_backend_class(self, system):
        """Paper C6: extending MCR-DL with a new library is one subclass."""

        class OneCclBackend(Backend):
            properties = BackendProperties(
                name="test-oneccl",
                display_name="oneCCL",
                stream_aware=False,
                cuda_aware=True,
                native_vector_collectives=True,
                native_nonblocking=True,
                native_gather_scatter=True,
                abi="mpich",
                mpi_compliant=True,
            )
            tuning = BackendTuning(call_overhead_us=3.0, default=OpTuning())

            def algorithm_for(self, family, nbytes, p):
                if family is OpFamily.ALLTOALL:
                    return "pairwise_alltoall"
                if family is OpFamily.ALLGATHER:
                    return "ring_allgather"
                return "ring_allreduce"

        register_backend(OneCclBackend, aliases=("oneccl-test",))
        backend = create_backend("oneccl-test", 0, 4, system)
        cost = backend.collective_cost_us(
            OpFamily.ALLREDUCE, 1 << 20, 4, system.comm_path(4)
        )
        assert cost > 0

    def test_conflicting_registration_rejected(self):
        class Impostor(Backend):
            properties = NcclBackend.properties
            tuning = NcclBackend.tuning

            def algorithm_for(self, family, nbytes, p):
                return "ring_allreduce"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Impostor)


class TestProperties:
    def test_stream_awareness(self):
        assert NcclBackend.properties.stream_aware
        assert MscclBackend.properties.stream_aware
        assert not MvapichGdrBackend.properties.stream_aware
        assert not OpenMpiBackend.properties.stream_aware
        assert not GlooBackend.properties.stream_aware

    def test_cuda_awareness(self):
        assert NcclBackend.properties.cuda_aware
        assert MvapichGdrBackend.properties.cuda_aware
        assert not GlooBackend.properties.cuda_aware

    def test_nccl_gaps(self):
        """NCCL lacks gather/scatter and vectored collectives (§III-C)."""
        props = NcclBackend.properties
        assert not props.native_gather_scatter
        assert not props.native_vector_collectives
        assert not props.mpi_compliant

    def test_mpi_backends_complete(self):
        for cls in (MvapichGdrBackend, OpenMpiBackend):
            assert cls.properties.native_vector_collectives
            assert cls.properties.native_gather_scatter
            assert cls.properties.mpi_compliant

    def test_abi_families(self):
        assert NcclBackend.properties.abi == MscclBackend.properties.abi
        assert MvapichGdrBackend.properties.abi != OpenMpiBackend.properties.abi

    def test_supports_reflects_capabilities(self, system):
        nccl = create_backend("nccl", 0, 4, system)
        assert nccl.supports(OpFamily.ALLREDUCE)
        assert not nccl.supports(OpFamily.GATHER)
        assert not nccl.supports(OpFamily.ALLGATHER, vector=True)
        mpi = create_backend("mvapich2-gdr", 0, 4, system)
        assert mpi.supports(OpFamily.GATHER)
        assert mpi.supports(OpFamily.ALLGATHER, vector=True)


class TestCostSurface:
    @pytest.mark.parametrize("name", ["nccl", "mvapich2-gdr", "openmpi", "msccl", "gloo"])
    def test_every_family_priceable(self, name, system):
        backend = create_backend(name, 0, 8, system)
        path = system.comm_path(8)
        for family in OpFamily:
            if family is OpFamily.P2P:
                cost = backend.p2p_cost_us(4096, same_node=True)
            else:
                cost = backend.collective_cost_us(family, 4096, 8, path)
            assert cost > 0, (name, family)

    def test_vector_variant_costs_more(self, system):
        backend = create_backend("mvapich2-gdr", 0, 8, system)
        path = system.comm_path(8)
        plain = backend.collective_cost_us(OpFamily.GATHER, 4096, 8, path)
        vectored = backend.collective_cost_us(OpFamily.GATHER, 4096, 8, path, vector=True)
        assert vectored > plain

    def test_emulated_vector_costlier_on_nccl(self, system):
        path = system.comm_path(8)
        nccl = create_backend("nccl", 0, 8, system)
        extra_nccl = nccl.collective_cost_us(
            OpFamily.GATHER, 4096, 8, path, vector=True
        ) - nccl.collective_cost_us(OpFamily.GATHER, 4096, 8, path)
        mpi = create_backend("mvapich2-gdr", 0, 8, system)
        extra_mpi = mpi.collective_cost_us(
            OpFamily.GATHER, 4096, 8, path, vector=True
        ) - mpi.collective_cost_us(OpFamily.GATHER, 4096, 8, path)
        assert extra_nccl > extra_mpi  # p2p emulation penalty

    def test_gloo_staging_penalty(self, system):
        path = system.comm_path(8)
        gloo = create_backend("gloo", 0, 8, system)
        nccl = create_backend("nccl", 0, 8, system)
        nbytes = 1 << 20
        assert gloo.staging_cost_us(nbytes) > 0
        assert nccl.staging_cost_us(nbytes) == 0
        assert gloo.collective_cost_us(
            OpFamily.ALLREDUCE, nbytes, 8, path
        ) > nccl.collective_cost_us(OpFamily.ALLREDUCE, nbytes, 8, path)

    def test_p2p_intra_cheaper_than_inter(self, system):
        backend = create_backend("mvapich2-gdr", 0, 8, system)
        assert backend.p2p_cost_us(1 << 20, same_node=True) < backend.p2p_cost_us(
            1 << 20, same_node=False
        )

    def test_invalid_world_size(self, system):
        backend = create_backend("nccl", 0, 8, system)
        with pytest.raises(ValueError):
            backend.collective_cost_us(OpFamily.ALLREDUCE, 4, 0, system.comm_path(4))
