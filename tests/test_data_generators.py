"""Synthetic data generators (models.data) and straggler modeling."""

import numpy as np
import pytest

from repro.models.data import shard_counts, zipfian_indices
from repro.sim import Simulator


class TestZipfian:
    def test_indices_in_range(self):
        rng = np.random.default_rng(0)
        idx = zipfian_indices(rng, n_rows=1000, n_lookups=5000)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_heavy_tail_concentrates_on_head(self):
        rng = np.random.default_rng(0)
        idx = zipfian_indices(rng, n_rows=100_000, n_lookups=10_000, exponent=1.05)
        head_share = np.mean(idx < 1000)  # top 1% of rows
        assert head_share > 0.3  # far above the uniform 1%

    def test_higher_exponent_more_skew(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        mild = zipfian_indices(rng1, 10_000, 5000, exponent=0.8)
        steep = zipfian_indices(rng2, 10_000, 5000, exponent=1.5)
        assert np.mean(steep < 100) > np.mean(mild < 100)

    def test_deterministic_under_seed(self):
        a = zipfian_indices(np.random.default_rng(7), 100, 50)
        b = zipfian_indices(np.random.default_rng(7), 100, 50)
        assert np.array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            zipfian_indices(rng, 0, 10)
        with pytest.raises(ValueError):
            zipfian_indices(rng, 10, 10, exponent=0)


class TestShardCounts:
    def test_counts_conserve_total(self):
        rng = np.random.default_rng(0)
        idx = zipfian_indices(rng, 4096, 1000)
        counts = shard_counts(idx, 8)
        assert counts.sum() == 1000
        assert len(counts) == 8

    def test_zipf_shards_imbalanced(self):
        rng = np.random.default_rng(0)
        idx = zipfian_indices(rng, 100_000, 10_000, exponent=1.2)
        counts = shard_counts(idx, 16)
        assert counts.max() / counts.mean() > 2.0  # shard 0 holds the head

    def test_empty(self):
        counts = shard_counts(np.array([], dtype=np.int64), 4)
        assert counts.tolist() == [0, 0, 0, 0]


class TestStragglers:
    def test_straggler_slows_its_own_kernels(self):
        def main(ctx):
            node = ctx.launch(1000.0)
            ctx.stream_synchronize()
            return node.end - node.start

        res = Simulator(2, stragglers={1: 2.0}).run(main)
        assert res.rank_results[0] == 1000.0
        assert res.rank_results[1] == 2000.0

    def test_straggler_delays_collectives_for_everyone(self):
        from repro.core import MCRCommunicator

        def main(ctx):
            comm = MCRCommunicator(ctx, ["mvapich2-gdr"])
            ctx.launch(1000.0, label="compute")
            ctx.stream_synchronize()
            comm.all_reduce("mvapich2-gdr", ctx.zeros(16))
            comm.finalize()
            return ctx.now

        clean = max(Simulator(4).run(main).rank_results)
        skewed = max(Simulator(4, stragglers={3: 3.0}).run(main).rank_results)
        assert skewed > clean + 1500.0  # everyone waits for rank 3

    def test_invalid_straggler_spec(self):
        with pytest.raises(ValueError):
            Simulator(2, stragglers={5: 2.0})
        with pytest.raises(ValueError):
            Simulator(2, stragglers={0: 0.0})
