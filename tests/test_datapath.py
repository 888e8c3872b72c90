"""Data-plane correctness for every collective (pure NumPy layer)."""

import numpy as np
import pytest

from repro.backends import datapath
from repro.backends.ops import ReduceOp


def bufs(p, n, fn):
    return [np.array([fn(r, i) for i in range(n)], dtype=np.float32) for r in range(p)]


class TestAllReduce:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_sum(self, p):
        ins = bufs(p, 4, lambda r, i: r + i)
        outs = [np.zeros(4, dtype=np.float32) for _ in range(p)]
        datapath.all_reduce(ins, outs, ReduceOp.SUM)
        expected = sum(range(p)) + np.arange(4) * p
        for out in outs:
            assert np.allclose(out, expected)

    def test_in_place_aliasing(self):
        ins = bufs(3, 4, lambda r, i: float(r))
        datapath.all_reduce(ins, ins, ReduceOp.SUM)
        for buf in ins:
            assert np.allclose(buf, 3.0)

    @pytest.mark.parametrize(
        "op,expected",
        [
            (ReduceOp.SUM, 6.0),
            (ReduceOp.PROD, 0.0),
            (ReduceOp.MIN, 0.0),
            (ReduceOp.MAX, 3.0),
            (ReduceOp.AVG, 1.5),
        ],
    )
    def test_ops(self, op, expected):
        ins = [np.full(2, float(r), dtype=np.float32) for r in range(4)]
        outs = [np.zeros(2, dtype=np.float32) for _ in range(4)]
        datapath.all_reduce(ins, outs, op)
        assert np.allclose(outs[0], expected)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            datapath.all_reduce(
                [np.zeros(3), np.zeros(4)], [np.zeros(3), np.zeros(4)], ReduceOp.SUM
            )


def _stacked(op: ReduceOp, arrays):
    """The p x n reference formulation ``ReduceOp.apply`` replaced."""
    stack = np.stack(arrays)
    if op is ReduceOp.AVG:
        return (stack.sum(axis=0, dtype=np.float64) / len(arrays)).astype(stack.dtype)
    reduce = {ReduceOp.SUM: np.add, ReduceOp.PROD: np.multiply,
              ReduceOp.MIN: np.minimum, ReduceOp.MAX: np.maximum}[op]
    return reduce.reduce(stack, axis=0, dtype=stack.dtype)


class TestReduceOpApply:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    @pytest.mark.parametrize("op", list(ReduceOp))
    def test_bit_equal_to_the_stacked_reduction(self, op, dtype, p):
        rng = np.random.default_rng([p, list(ReduceOp).index(op)])
        if np.issubdtype(dtype, np.integer):
            # wide enough that 8-way SUM and PROD wrap around
            arrays = [rng.integers(-(2**30), 2**30, size=1001).astype(dtype) for _ in range(p)]
        else:
            arrays = [(rng.standard_normal(1001) * 1e3).astype(dtype) for _ in range(p)]
        before = [a.copy() for a in arrays]
        got = op.apply(arrays)
        want = _stacked(op, arrays)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a fresh array: no input was written, none is aliased
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert not any(np.shares_memory(got, a) for a in arrays)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ReduceOp.SUM.apply([])


class TestReduceBroadcast:
    def test_reduce_to_root(self):
        ins = [np.full(3, float(r + 1), dtype=np.float32) for r in range(3)]
        root = np.zeros(3, dtype=np.float32)
        datapath.reduce(ins, root, ReduceOp.SUM)
        assert np.allclose(root, 6.0)

    def test_broadcast(self):
        src = np.arange(4, dtype=np.float32)
        outs = [np.zeros(4, dtype=np.float32) for _ in range(3)]
        datapath.broadcast(src, outs)
        for out in outs:
            assert np.array_equal(out, src)

    def test_broadcast_aliased_root(self):
        src = np.arange(4, dtype=np.float32)
        outs = [src, np.zeros(4, dtype=np.float32)]
        datapath.broadcast(src, outs)
        assert np.array_equal(outs[1], np.arange(4))


class TestAllGather:
    def test_rank_major_order(self):
        ins = [np.full(2, float(r), dtype=np.float32) for r in range(3)]
        outs = [np.zeros(6, dtype=np.float32) for _ in range(3)]
        datapath.all_gather(ins, outs)
        assert np.array_equal(outs[0], [0, 0, 1, 1, 2, 2])

    def test_v_variant_with_displacements(self):
        ins = [
            np.array([1, 1], dtype=np.float32),
            np.array([2, 2, 2], dtype=np.float32),
        ]
        rcounts, displs = [2, 3], [0, 2]
        outs = [np.zeros(5, dtype=np.float32) for _ in range(2)]
        datapath.all_gather_v(ins, outs, rcounts, displs)
        assert np.array_equal(outs[1], [1, 1, 2, 2, 2])

    def test_v_variant_gap_displacements(self):
        ins = [np.array([1.0], dtype=np.float32), np.array([2.0], dtype=np.float32)]
        outs = [np.full(4, -1, dtype=np.float32) for _ in range(2)]
        datapath.all_gather_v(ins, outs, [1, 1], [0, 3])
        assert np.array_equal(outs[0], [1, -1, -1, 2])

    def test_v_displacement_overflow_rejected(self):
        ins = [np.ones(2, dtype=np.float32)] * 2
        outs = [np.zeros(3, dtype=np.float32)] * 2
        with pytest.raises(ValueError):
            datapath.all_gather_v(ins, outs, [2, 2], [0, 2])


class TestReduceScatter:
    def test_chunks(self):
        ins = [np.arange(6, dtype=np.float32) for _ in range(3)]
        outs = [np.zeros(2, dtype=np.float32) for _ in range(3)]
        datapath.reduce_scatter(ins, outs, ReduceOp.SUM)
        assert np.array_equal(outs[0], [0, 3])
        assert np.array_equal(outs[2], [12, 15])

    def test_indivisible_rejected(self):
        ins = [np.zeros(5, dtype=np.float32)] * 2
        outs = [np.zeros(2, dtype=np.float32)] * 2
        with pytest.raises(ValueError):
            datapath.reduce_scatter(ins, outs, ReduceOp.SUM)


class TestAllToAll:
    def test_single_transpose(self):
        p = 3
        ins = [np.arange(p, dtype=np.float32) + 10 * r for r in range(p)]
        outs = [np.zeros(p, dtype=np.float32) for _ in range(p)]
        datapath.all_to_all_single(ins, outs)
        # rank j receives chunk j from every rank i, in rank order
        for j in range(p):
            assert np.array_equal(outs[j], [10 * i + j for i in range(p)])

    def test_single_roundtrip(self):
        p = 4
        rng = np.random.default_rng(0)
        ins = [rng.random(p * 2).astype(np.float32) for _ in range(p)]
        mid = [np.zeros(p * 2, dtype=np.float32) for _ in range(p)]
        back = [np.zeros(p * 2, dtype=np.float32) for _ in range(p)]
        datapath.all_to_all_single(ins, mid)
        datapath.all_to_all_single(mid, back)
        for a, b in zip(ins, back):
            assert np.allclose(a, b)

    def test_v_variant(self):
        # rank 0 sends [1] to r0, [2,2] to r1; rank 1 sends [3,3] to r0, [4] to r1
        ins = [
            np.array([1, 2, 2], dtype=np.float32),
            np.array([3, 3, 4], dtype=np.float32),
        ]
        outs = [np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.float32)]
        scounts = [[1, 2], [2, 1]]
        sdispls = [[0, 1], [0, 2]]
        rcounts = [[1, 2], [2, 1]]
        rdispls = [[0, 1], [0, 2]]
        datapath.all_to_all_v(ins, outs, scounts, sdispls, rcounts, rdispls)
        assert np.array_equal(outs[0], [1, 3, 3])
        assert np.array_equal(outs[1], [2, 2, 4])

    def test_v_count_mismatch_rejected(self):
        ins = [np.zeros(2, dtype=np.float32)] * 2
        outs = [np.zeros(2, dtype=np.float32)] * 2
        with pytest.raises(ValueError, match="scounts"):
            datapath.all_to_all_v(
                ins, outs, [[1, 1], [1, 1]], [[0, 1], [0, 1]],
                [[1, 2], [1, 1]], [[0, 1], [0, 1]],
            )


class TestGatherScatter:
    def test_gather(self):
        ins = [np.full(2, float(r), dtype=np.float32) for r in range(3)]
        root = np.zeros(6, dtype=np.float32)
        datapath.gather(ins, root)
        assert np.array_equal(root, [0, 0, 1, 1, 2, 2])

    def test_gather_v(self):
        ins = [np.array([1.0], dtype=np.float32), np.array([2.0, 2.0], dtype=np.float32)]
        root = np.zeros(3, dtype=np.float32)
        datapath.gather_v(ins, root, [1, 2], [0, 1])
        assert np.array_equal(root, [1, 2, 2])

    def test_scatter(self):
        src = np.arange(6, dtype=np.float32)
        outs = [np.zeros(2, dtype=np.float32) for _ in range(3)]
        datapath.scatter(src, outs)
        assert np.array_equal(outs[1], [2, 3])

    def test_scatter_v(self):
        src = np.arange(5, dtype=np.float32)
        outs = [np.zeros(2, dtype=np.float32), np.zeros(3, dtype=np.float32)]
        datapath.scatter_v(src, outs, [2, 3], [0, 2])
        assert np.array_equal(outs[0], [0, 1])
        assert np.array_equal(outs[1], [2, 3, 4])

    def test_scatter_v_overflow_rejected(self):
        src = np.arange(3, dtype=np.float32)
        outs = [np.zeros(2, dtype=np.float32)] * 2
        with pytest.raises(ValueError):
            datapath.scatter_v(src, outs, [2, 2], [0, 2])


class TestReduceOpApply:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReduceOp.SUM.apply([])

    def test_avg_preserves_dtype(self):
        arrays = [np.ones(2, dtype=np.float32) * v for v in (1.0, 2.0)]
        out = ReduceOp.AVG.apply(arrays)
        assert out.dtype == np.float32
        assert np.allclose(out, 1.5)

    def test_integer_sum(self):
        arrays = [np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)]
        assert np.array_equal(ReduceOp.SUM.apply(arrays), [4, 6])


class TestAliasing:
    """The aliasing-aware staging path (``_stage_if_aliased``).

    Staging copies are made only when an input view actually overlaps
    an output view; these tests pin both halves of that contract — no
    copies for disjoint buffers, correct results for aliased ones.
    """

    def test_stage_returns_same_objects_when_disjoint(self):
        srcs = [np.arange(4, dtype=np.float32) for _ in range(3)]
        dsts = [np.zeros(4, dtype=np.float32) for _ in range(3)]
        staged = datapath._stage_if_aliased(srcs, dsts)
        assert all(s is orig for s, orig in zip(staged, srcs))

    def test_stage_copies_everything_on_overlap(self):
        pool = np.zeros(8, dtype=np.float32)
        srcs = [pool[:4], np.arange(4, dtype=np.float32)]
        dsts = [pool[4:], pool[:4]]
        staged = datapath._stage_if_aliased(srcs, dsts)
        assert all(
            not np.shares_memory(s, d) for s in staged for d in dsts
        )
        assert np.array_equal(staged[1], srcs[1])

    def test_all_reduce_aliased_matches_fresh(self):
        p, n = 4, 8
        ins = bufs(p, n, lambda r, i: r * 10.0 + i)
        fresh_out = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        datapath.all_reduce([b.copy() for b in ins], fresh_out, ReduceOp.SUM)
        datapath.all_reduce(ins, ins, ReduceOp.SUM)  # fully in place
        for got, want in zip(ins, fresh_out):
            assert np.array_equal(got, want)

    def test_reduce_scatter_outputs_view_inputs(self):
        p, n = 4, 8
        ins = bufs(p, n, lambda r, i: r + i * 2.0)
        fresh_out = [np.zeros(n // p, dtype=np.float32) for _ in range(p)]
        datapath.reduce_scatter([b.copy() for b in ins], fresh_out, ReduceOp.SUM)
        # each rank receives its chunk into a view of its own input
        aliased_out = [ins[r][: n // p] for r in range(p)]
        datapath.reduce_scatter(ins, aliased_out, ReduceOp.SUM)
        for got, want in zip(aliased_out, fresh_out):
            assert np.array_equal(got, want)

    def test_all_to_all_single_fully_in_place(self):
        p, n = 4, 8
        ins = bufs(p, n, lambda r, i: r * 100.0 + i)
        fresh_out = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        datapath.all_to_all_single([b.copy() for b in ins], fresh_out)
        datapath.all_to_all_single(ins, ins)  # outputs alias inputs
        for got, want in zip(ins, fresh_out):
            assert np.array_equal(got, want)

    def test_all_to_all_single_disjoint_makes_no_copies(self, monkeypatch):
        copies = []
        real = np.array

        def counting_array(obj, *args, **kwargs):
            if kwargs.get("copy"):
                copies.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(datapath.np, "array", counting_array)
        p, n = 4, 8
        ins = bufs(p, n, lambda r, i: r * 100.0 + i)
        outs = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        datapath.all_to_all_single(ins, outs)
        assert copies == []  # disjoint buffers: zero staging copies

    def test_gather_v_root_output_aliases_an_input(self):
        # regression: gather_v never staged, so a root output
        # overlapping a contributing buffer could read corrupted data
        pool = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        ins = [np.array([9.0, 9.0], dtype=np.float32), pool[:2]]
        root = pool  # rank 1's buffer is a view of the root output
        datapath.gather_v(ins, root, [2, 2], [0, 2])
        assert np.array_equal(root, [9, 9, 1, 2])
