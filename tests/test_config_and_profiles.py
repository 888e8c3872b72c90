"""Configuration validation, framework profiles, handle edge cases."""

import math

import pytest

from repro.core import MCRCommunicator, MCRConfig
from repro.core.config import COMPRESSIBLE_FAMILIES, AdaptiveConfig
from repro.core.handles import CompletedHandle
from repro.models import PROFILES
from repro.sim import Simulator

NAN = math.nan


class TestMCRConfigValidation:
    def test_defaults_valid(self):
        MCRConfig().validate()

    def test_bad_stream_mode(self):
        with pytest.raises(ValueError, match="mpi_stream_mode"):
            MCRConfig(mpi_stream_mode="auto").validate()

    def test_bad_synchronization(self):
        with pytest.raises(ValueError, match="synchronization"):
            MCRConfig(synchronization="eager").validate()

    def test_bad_pool_size(self):
        with pytest.raises(ValueError, match="streams_per_backend"):
            MCRConfig(streams_per_backend=0).validate()

    def test_bad_dispatch_fraction(self):
        with pytest.raises(ValueError, match="dispatch_fraction"):
            MCRConfig(dispatch_fraction=1.5).validate()

    @pytest.mark.parametrize("value", [-5.0, -1e6, NAN])
    def test_bad_dispatch_overhead(self, value):
        # a negative overhead used to make every op faster than a free
        # one, and -1e6 failed deep in the engine with "negative sleep"
        with pytest.raises(ValueError, match="dispatch_overhead_us"):
            MCRConfig(dispatch_overhead_us=value).validate()

    def test_zero_dispatch_overhead_valid(self):
        MCRConfig(dispatch_overhead_us=0.0).validate()

    @pytest.mark.parametrize("value", [0.0, -1.0, NAN])
    def test_bad_op_deadline(self, value):
        with pytest.raises(ValueError, match="op_deadline_us"):
            MCRConfig(op_deadline_us=value).validate()

    @pytest.mark.parametrize(
        "field", ["drift_ratio", "min_samples", "explore_ops", "epsilon", "probation_interval"]
    )
    def test_nan_adaptive_rejected(self, field):
        with pytest.raises(ValueError, match=f"adaptive.{field}"):
            MCRConfig(adaptive=AdaptiveConfig(**{field: NAN})).validate()

    @pytest.mark.parametrize("field", ["streams_per_backend", "comm_max_retries"])
    def test_nan_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            MCRConfig(**{field: NAN}).validate()

    def test_compression_defaults_off(self):
        assert not MCRConfig().compression.enabled

    def test_compression_families(self):
        assert "allreduce" in COMPRESSIBLE_FAMILIES
        assert "alltoall" not in COMPRESSIBLE_FAMILIES  # indices must stay exact

    def test_invalid_config_rejected_at_communicator(self):
        def main(ctx):
            MCRCommunicator(ctx, ["nccl"], config=MCRConfig(streams_per_backend=-1))

        with pytest.raises(ValueError):
            Simulator(1).run(main)


class TestFrameworkProfiles:
    def test_all_fig11_profiles_present(self):
        assert set(PROFILES) == {"mcr-dl", "torch-distributed", "horovod", "mpi4py"}

    def test_profiles_to_config(self):
        config = PROFILES["mpi4py"].to_config()
        assert config.force_host_staging
        assert config.dispatch_overhead_us == 5.0
        config.validate()

    def test_mcr_profile_is_the_cheapest_dispatch(self):
        mcr = PROFILES["mcr-dl"]
        for key, profile in PROFILES.items():
            if key == "mcr-dl":
                continue
            assert profile.dispatch_overhead_us > mcr.dispatch_overhead_us, key
            assert profile.dispatch_fraction > mcr.dispatch_fraction, key

    def test_only_mcr_mixes(self):
        assert PROFILES["mcr-dl"].supports_mixing
        assert not any(
            PROFILES[k].supports_mixing for k in ("torch-distributed", "horovod", "mpi4py")
        )

    def test_only_mpi4py_stages(self):
        assert PROFILES["mpi4py"].host_staging
        assert not PROFILES["horovod"].host_staging


class TestCompletedHandle:
    def test_trivially_complete(self):
        def main(ctx):
            h = CompletedHandle(ctx, "nccl", "noop")
            h.wait()
            h.synchronize()
            return h.is_completed(), h.completion_time

        done, t = Simulator(1).run(main).rank_results[0]
        assert done
        assert t == 0.0

    def test_world_size_one_returns_completed_handles(self):
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            h = comm.all_reduce("nccl", ctx.zeros(4), async_op=True)
            done = h.is_completed()
            comm.finalize()
            return done

        assert Simulator(1).run(main).rank_results == [True]


class TestStreamPoolPolicy:
    def test_least_busy_backend_prefers_idle(self):
        from repro.core.sync import SyncManager

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "msccl"])
            # load NCCL's stream 0
            comm.all_reduce("nccl", ctx.virtual_tensor(8 << 20), async_op=True)
            choice = comm.sync.least_busy_backend(["nccl", "msccl"])
            comm.finalize()
            return choice

        assert Simulator(2).run(main).rank_results[0] == "msccl"

    def test_least_busy_counts_poolless_outstanding(self):
        """Host-synchronized backends without a stream pool must report
        their pending requests as load, not a constant 0.0 (which made
        them soak up every timeout flush)."""

        def main(ctx):
            config = MCRConfig(mpi_stream_mode="mpi-managed")
            comm = MCRCommunicator(ctx, ["mvapich2-gdr", "nccl"], config=config)
            h = comm.all_reduce(
                "mvapich2-gdr", ctx.virtual_tensor(8 << 20), async_op=True
            )
            choice = comm.sync.least_busy_backend(
                ["mvapich2-gdr", "nccl"], comm._group.outstanding
            )
            h.wait()
            comm.finalize()
            return choice

        assert Simulator(2).run(main).rank_results == ["nccl", "nccl"]

    def test_naive_mode_has_no_pools_in_use(self):
        def main(ctx):
            config = MCRConfig(synchronization="naive")
            comm = MCRCommunicator(ctx, ["nccl"], config=config)
            comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20))
            comm.finalize()

        res = Simulator(2, trace=True).run(main)
        comm_recs = res.tracer.filter(rank=0, category="comm")
        assert {r.stream for r in comm_recs} == {"default"}
