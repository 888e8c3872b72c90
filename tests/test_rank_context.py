"""RankContext: tensor factories, time primitives, device identity."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.tensor import float64, int64


def run1(fn):
    return Simulator(1).run(fn).rank_results[0]


class TestTensorFactories:
    def test_factories_on_rank_device(self):
        def main(ctx):
            tensors = [
                ctx.zeros(4), ctx.ones(4), ctx.full(4, 2.0), ctx.arange(4),
                ctx.rand(4), ctx.tensor([1, 2, 3]), ctx.virtual_tensor(100),
            ]
            return all(t.device.kind == "cuda" and t.device.index == ctx.rank for t in tensors)

        assert run1(main)

    def test_values(self):
        def main(ctx):
            return (
                float(ctx.zeros(2).data[0]),
                float(ctx.ones(2).data[0]),
                float(ctx.full(2, 7.5).data[0]),
                list(ctx.arange(3).data),
                list(ctx.tensor([4, 5]).data),
            )

        z, o, f, a, t = run1(main)
        assert (z, o, f) == (0.0, 1.0, 7.5)
        assert a == [0, 1, 2]
        assert t == [4, 5]

    def test_dtype_parameter(self):
        def main(ctx):
            return (
                ctx.zeros(2, dtype=float64).dtype.name,
                ctx.tensor([1], dtype=int64).dtype.name,
            )

        assert run1(main) == ("float64", "int64")

    def test_rand_in_unit_interval(self):
        def main(ctx):
            data = ctx.rand(256).data
            return float(data.min()), float(data.max())

        lo, hi = run1(main)
        assert 0 <= lo and hi < 1

    def test_devices_distinct_per_rank(self):
        res = Simulator(3).run(lambda ctx: str(ctx.device))
        assert res.rank_results == ["cuda:0", "cuda:1", "cuda:2"]


class TestLazyRng:
    def test_stream_matches_eager_generator(self):
        def main(ctx):
            return ctx.rng.random(8), ctx.rng.integers(0, 1 << 30, 8)

        res = Simulator(3, seed=11).run(main)
        for rank, (floats, ints) in enumerate(res.rank_results):
            ref = np.random.default_rng((11, rank))
            assert np.array_equal(floats, ref.random(8))
            assert np.array_equal(ints, ref.integers(0, 1 << 30, 8))

    def test_unused_rng_is_never_constructed(self, monkeypatch):
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a: built.append(a) or real(*a)
        )
        Simulator(4).run(lambda ctx: None)
        assert built == []
        Simulator(4, seed=3).run(lambda ctx: ctx.rng if ctx.rank == 2 else None)
        assert built == [((3, 2),)]


class TestTimePrimitives:
    def test_now_advances_with_sleep(self):
        def main(ctx):
            t0 = ctx.now
            ctx.sleep(123.0)
            return ctx.now - t0

        assert run1(main) == 123.0

    def test_launch_charges_launch_overhead_only(self):
        def main(ctx):
            t0 = ctx.now
            ctx.launch(10_000.0)
            return ctx.now - t0

        host_cost = run1(main)
        assert host_cost < 100.0  # async: host pays the launch, not the kernel

    def test_flags_roundtrip(self):
        def main(ctx):
            f = ctx.new_flag("x")
            f.fire(ctx.now + 50.0)
            ctx.wait_flag(f)
            return ctx.now

        assert run1(main) == 50.0

    def test_named_streams_are_cached(self):
        def main(ctx):
            return ctx.stream("a") is ctx.stream("a")

        assert run1(main)

    def test_shared_dict_is_cross_rank(self):
        def main(ctx):
            ctx.shared.setdefault("seen", []).append(ctx.rank)
            from repro.core import MCRCommunicator

            comm = MCRCommunicator(ctx, ["nccl"])
            comm.barrier()
            comm.finalize()
            return sorted(ctx.shared["seen"])

        res = Simulator(3).run(main)
        assert res.rank_results[0] == [0, 1, 2]
