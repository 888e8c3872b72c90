"""Operation vocabulary shared by the API layer and the backends."""

from __future__ import annotations

import enum

import numpy as np


class ReduceOp(enum.Enum):
    """Reduction operators (the MPI/NCCL common subset)."""

    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    def __init__(self, value: str):
        #: ``value`` as a plain attribute: a rendezvous meta reads it on
        #: every post, and ``.value`` is a descriptor call
        self.code = value

    def apply(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Reduce a list of equally-shaped arrays element-wise.

        Accumulates rank by rank into one fresh array (never an alias of
        an input) — the same additions in the same order as reducing a
        ``np.stack`` over axis 0, without the p x n copy.
        """
        if not arrays:
            raise ValueError("reduce of empty list")
        first = arrays[0]
        if self is ReduceOp.AVG:
            acc = first.astype(np.float64)
            for a in arrays[1:]:
                np.add(acc, a, out=acc)
            return (acc / len(arrays)).astype(first.dtype)
        accumulate = _ACCUMULATE[self]
        acc = first.copy()
        for a in arrays[1:]:
            accumulate(acc, a, out=acc)
        return acc


_ACCUMULATE = {
    ReduceOp.SUM: np.add,
    ReduceOp.PROD: np.multiply,
    ReduceOp.MIN: np.minimum,
    ReduceOp.MAX: np.maximum,
}


class OpFamily(enum.Enum):
    """Collective operation families (tuning / cost-model granularity)."""

    ALLREDUCE = "allreduce"
    REDUCE = "reduce"
    BROADCAST = "broadcast"
    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    ALLTOALL = "alltoall"
    GATHER = "gather"
    SCATTER = "scatter"
    P2P = "p2p"
    BARRIER = "barrier"

    def __str__(self) -> str:
        return self.value
