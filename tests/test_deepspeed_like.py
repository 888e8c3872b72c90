"""DeepSpeed-style config-driven engine facade."""

import pytest

from repro.core import ConfigurationError, Tuner
from repro.frameworks.deepspeed_like import DEFAULT_CONFIG, DeepSpeedLikeEngine, _merge
from repro.models import DSMoEModel, MoEConfig
from repro.sim import Simulator


def small_model():
    return DSMoEModel(MoEConfig(layers=4, micro_batch=1))


class TestConfigHandling:
    def test_merge_nested(self):
        merged = _merge({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"y": 9}})
        assert merged == {"a": {"x": 1, "y": 9}, "b": 3}

    def test_defaults_applied(self):
        def main(ctx):
            engine = DeepSpeedLikeEngine(ctx)
            names = list(engine.driver.comm.backends)
            engine.finalize()
            return names

        res = Simulator(2).run(main)
        assert res.rank_results[0] == ["nccl", "mvapich2-gdr"]

    def test_empty_backends_rejected(self):
        def main(ctx):
            DeepSpeedLikeEngine(ctx, {"communication": {"backends": []}})

        with pytest.raises(ConfigurationError, match="non-empty"):
            Simulator(1).run(main)

    def test_op_backend_must_be_initialized(self):
        def main(ctx):
            DeepSpeedLikeEngine(
                ctx,
                {"communication": {"backends": ["nccl"], "alltoall_backend": "gloo"}},
            )

        with pytest.raises(ConfigurationError, match="not in communication.backends"):
            Simulator(1).run(main)

    def test_auto_requires_table(self):
        def main(ctx):
            DeepSpeedLikeEngine(
                ctx,
                {
                    "communication": {
                        "backends": ["nccl"],
                        "allreduce_backend": "auto",
                        "alltoall_backend": "nccl",
                    }
                },
            )

        with pytest.raises(ConfigurationError, match="tuning_table"):
            Simulator(1).run(main)


class TestTraining:
    def test_train_steps_and_stats(self):
        def main(ctx):
            engine = DeepSpeedLikeEngine(ctx)
            model = small_model()
            for _ in range(2):
                engine.train_step(model)
            stats = engine.finalize()
            return stats

        stats = Simulator(4).run(main).rank_results[0]
        assert stats["steps"] == 2
        assert "alltoall" in stats["comm_by_family_us"]
        assert set(stats["comm_by_backend_us"]) == {"nccl", "mvapich2-gdr"}

    def test_mixed_routing_respected(self):
        def main(ctx):
            engine = DeepSpeedLikeEngine(ctx)
            engine.train_step(small_model())
            stats = engine.finalize()
            return stats["comm_by_backend_us"]

        by_backend = Simulator(4).run(main).rank_results[0]
        assert by_backend["nccl"] > 0  # allreduce traffic
        assert by_backend["mvapich2-gdr"] > 0  # alltoall traffic

    def test_tuned_engine(self):
        from repro.backends.ops import OpFamily
        from repro.cluster import generic_cluster

        table = Tuner(
            generic_cluster(), ["nccl", "mvapich2-gdr"], mode="analytic"
        ).build_table(
            world_sizes=[4],
            message_sizes=[1024, 1 << 20],
            ops=[OpFamily.ALLREDUCE, OpFamily.ALLTOALL],
        ).table

        def main(ctx):
            engine = DeepSpeedLikeEngine(ctx, tuning_table=table)
            engine.train_step(small_model())
            stats = engine.finalize()
            return stats["steps"]

        assert Simulator(4).run(main).rank_results == [1] * 4

    def test_compression_config_applied(self):
        def main(ctx, compressed):
            config = {"compression": {"enabled": compressed, "rate_bits": 8}}
            engine = DeepSpeedLikeEngine(ctx, config)
            engine.train_step(small_model())
            stats = engine.finalize()
            return sum(stats["comm_by_family_us"].values())

        plain = Simulator(4).run(main, False).rank_results[0]
        squeezed = Simulator(4).run(main, True).rank_results[0]
        assert squeezed < plain  # gradient allreduce bytes shrank

    def test_compression_installs_through_set_compression(self):
        """The codec goes in through the call that also recompiles the
        communicator's plans (one ``codec change`` invalidation)."""

        def main(ctx, compressed):
            config = {"compression": {"enabled": compressed, "rate_bits": 8}}
            engine = DeepSpeedLikeEngine(ctx, config)
            comm = engine.driver.comm
            out = comm.config.compression.enabled, comm.plan_stats["invalidations"]
            engine.finalize()
            return out

        assert Simulator(2).run(main, True).rank_results[0] == (True, 1)
        assert Simulator(2).run(main, False).rank_results[0] == (False, 0)

    def test_default_config_not_mutated(self):
        snapshot = {k: dict(v) for k, v in DEFAULT_CONFIG.items()}

        def main(ctx):
            engine = DeepSpeedLikeEngine(ctx, {"fusion": {"enabled": False}})
            engine.finalize()

        Simulator(1).run(main)
        assert {k: dict(v) for k, v in DEFAULT_CONFIG.items()} == snapshot
