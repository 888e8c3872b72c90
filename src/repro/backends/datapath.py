"""Collective data movement (the correctness half of every backend).

These functions perform the actual NumPy data movement for each
collective once all participants have arrived at the rendezvous.  Every
backend shares them: backends differ in *time* and *synchronization*,
never in the bytes they deliver — which is precisely what makes
mix-and-match (and this reproduction's correctness tests) possible.

Inputs arrive as per-rank flat NumPy views, ordered by rank.  Outputs
are written **in place** into the per-rank output views.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.ops import ReduceOp


def _check_equal_sizes(buffers: Sequence[np.ndarray], what: str) -> int:
    sizes = {b.size for b in buffers}
    if len(sizes) != 1:
        raise ValueError(f"{what}: mismatched sizes across ranks: {sorted(sizes)}")
    return buffers[0].size


def _stage_if_aliased(
    sources: Sequence[np.ndarray], destinations: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Sources that are safe to read while the destinations are written.

    The movement loops below interleave reads of the inputs with writes
    to the outputs, so an output view overlapping an input view would
    corrupt later reads.  ``np.shares_memory`` proves (exactly, and
    cheaply for these flat views) whether any such overlap exists; only
    then are the inputs staged through copies.  The common case — every
    rank on its own buffer, or disjoint views of one shared pool — moves
    data with zero staging copies.
    """
    if any(np.shares_memory(s, d) for s in sources for d in destinations):
        return [np.array(s, copy=True) for s in sources]
    return list(sources)


def all_reduce(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray], op: ReduceOp
) -> None:
    _check_equal_sizes(inputs, "all_reduce inputs")
    # ReduceOp.apply materializes into a fresh accumulator before any
    # output is written, so aliased outputs need no staging.
    reduced = op.apply(list(inputs))
    for out in outputs:
        if out.size != reduced.size:
            raise ValueError("all_reduce: output size mismatch")
        out[:] = reduced


def reduce(
    inputs: Sequence[np.ndarray],
    root_output: np.ndarray,
    op: ReduceOp,
) -> None:
    _check_equal_sizes(inputs, "reduce inputs")
    reduced = op.apply(list(inputs))
    if root_output.size != reduced.size:
        raise ValueError("reduce: root output size mismatch")
    root_output[:] = reduced


def broadcast(root_input: np.ndarray, outputs: Sequence[np.ndarray]) -> None:
    src = _stage_if_aliased([root_input], outputs)[0]
    for out in outputs:
        if out.size != src.size:
            raise ValueError("broadcast: output size mismatch")
        out[:] = src


def all_gather(inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]) -> None:
    """Each rank contributes ``n``; every output receives ``p * n`` in
    rank order."""
    n = _check_equal_sizes(inputs, "all_gather inputs")
    # np.concatenate materializes the gathered vector before any write
    gathered = np.concatenate(list(inputs))
    for out in outputs:
        if out.size != n * len(inputs):
            raise ValueError(
                f"all_gather: output size {out.size} != {n * len(inputs)}"
            )
        out[:] = gathered


def all_gather_v(
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    rcounts: Sequence[int],
    displs: Sequence[int],
) -> None:
    """Vectored allgather: rank i contributes ``rcounts[i]`` elements,
    placed at ``displs[i]`` in every output."""
    if len(rcounts) != len(inputs) or len(displs) != len(inputs):
        raise ValueError("all_gather_v: counts/displs length mismatch")
    for i, buf in enumerate(inputs):
        if buf.size < rcounts[i]:
            raise ValueError(
                f"all_gather_v: rank {i} buffer ({buf.size}) < rcount {rcounts[i]}"
            )
    staged = _stage_if_aliased(list(inputs), outputs)
    contributions = [buf[: rcounts[i]] for i, buf in enumerate(staged)]
    for out in outputs:
        for i, chunk in enumerate(contributions):
            end = displs[i] + rcounts[i]
            if end > out.size:
                raise ValueError("all_gather_v: displacement past output end")
            out[displs[i] : end] = chunk


def reduce_scatter(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray], op: ReduceOp
) -> None:
    """Reduce full vectors, scatter contiguous 1/p chunks."""
    n = _check_equal_sizes(inputs, "reduce_scatter inputs")
    p = len(inputs)
    if n % p != 0:
        raise ValueError(f"reduce_scatter: size {n} not divisible by ranks {p}")
    reduced = op.apply(list(inputs))
    chunk = n // p
    for i, out in enumerate(outputs):
        if out.size != chunk:
            raise ValueError("reduce_scatter: output size mismatch")
        out[:] = reduced[i * chunk : (i + 1) * chunk]


def all_to_all_single(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
) -> None:
    """Element shuffle: rank i's chunk j goes to rank j's slot i."""
    n = _check_equal_sizes(inputs, "all_to_all inputs")
    p = len(inputs)
    if n % p != 0:
        raise ValueError(f"all_to_all: size {n} not divisible by ranks {p}")
    chunk = n // p
    staged = _stage_if_aliased(list(inputs), outputs)
    for j, out in enumerate(outputs):
        if out.size != n:
            raise ValueError("all_to_all: output size mismatch")
        for i in range(p):
            out[i * chunk : (i + 1) * chunk] = staged[i][j * chunk : (j + 1) * chunk]


def all_to_all_v(
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    scounts: Sequence[Sequence[int]],
    sdispls: Sequence[Sequence[int]],
    rcounts: Sequence[Sequence[int]],
    rdispls: Sequence[Sequence[int]],
) -> None:
    """Fully vectored alltoall.

    ``scounts[i][j]`` elements leave rank i for rank j from offset
    ``sdispls[i][j]``; they land in rank j at offset ``rdispls[j][i]``
    (which must expect ``rcounts[j][i] == scounts[i][j]`` elements).
    """
    p = len(inputs)
    staged = _stage_if_aliased(list(inputs), outputs)
    for i in range(p):
        for j in range(p):
            cnt = scounts[i][j]
            if cnt != rcounts[j][i]:
                raise ValueError(
                    f"all_to_all_v: scounts[{i}][{j}]={cnt} != "
                    f"rcounts[{j}][{i}]={rcounts[j][i]}"
                )
            if cnt == 0:
                continue
            src = staged[i][sdispls[i][j] : sdispls[i][j] + cnt]
            dst = outputs[j]
            if rdispls[j][i] + cnt > dst.size:
                raise ValueError("all_to_all_v: receive past output end")
            dst[rdispls[j][i] : rdispls[j][i] + cnt] = src


def gather(inputs: Sequence[np.ndarray], root_output: np.ndarray) -> None:
    n = _check_equal_sizes(inputs, "gather inputs")
    if root_output.size != n * len(inputs):
        raise ValueError("gather: root output size mismatch")
    # np.concatenate materializes before the root output is written
    root_output[:] = np.concatenate(list(inputs))


def gather_v(
    inputs: Sequence[np.ndarray],
    root_output: np.ndarray,
    rcounts: Sequence[int],
    displs: Sequence[int],
) -> None:
    staged = _stage_if_aliased(list(inputs), [root_output])
    for i, buf in enumerate(staged):
        cnt = rcounts[i]
        if buf.size < cnt:
            raise ValueError(f"gather_v: rank {i} buffer smaller than rcount")
        if displs[i] + cnt > root_output.size:
            raise ValueError("gather_v: displacement past root output end")
        root_output[displs[i] : displs[i] + cnt] = buf[:cnt]


def scatter(root_input: np.ndarray, outputs: Sequence[np.ndarray]) -> None:
    p = len(outputs)
    if root_input.size % p != 0:
        raise ValueError("scatter: root size not divisible by ranks")
    chunk = root_input.size // p
    staged = _stage_if_aliased([root_input], outputs)[0]
    for i, out in enumerate(outputs):
        if out.size != chunk:
            raise ValueError("scatter: output size mismatch")
        out[:] = staged[i * chunk : (i + 1) * chunk]


def scatter_v(
    root_input: np.ndarray,
    outputs: Sequence[np.ndarray],
    scounts: Sequence[int],
    displs: Sequence[int],
) -> None:
    staged = _stage_if_aliased([root_input], outputs)[0]
    for i, out in enumerate(outputs):
        cnt = scounts[i]
        if displs[i] + cnt > staged.size:
            raise ValueError("scatter_v: displacement past root input end")
        if out.size < cnt:
            raise ValueError(f"scatter_v: rank {i} output smaller than scount")
        out[:cnt] = staged[displs[i] : displs[i] + cnt]
