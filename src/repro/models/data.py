"""Synthetic data generators for the workload models.

The paper trains DS-MoE on the Pile and DLRM on "synthetic data batches"
(§VI-4).  Neither dataset is needed for communication fidelity — only
the *distributional* properties that shape communication volumes are.
DLRM's categorical features follow heavy-tailed (Zipf-like) popularity,
which determines how lookups spread across table shards (alltoallv
imbalance); these generators produce real index arrays with that
property, deterministic under a seed.  (MoE gating imbalance is a
configurable skew, :func:`repro.models.common.skewed_counts`.)
"""

from __future__ import annotations

import numpy as np


def zipfian_indices(
    rng: np.random.Generator,
    n_rows: int,
    n_lookups: int,
    exponent: float = 1.05,
) -> np.ndarray:
    """Sample ``n_lookups`` embedding-row indices with Zipf popularity.

    Uses inverse-CDF sampling over a truncated Zipf distribution (NumPy's
    ``zipf`` is unbounded); exponent ~1.05 matches published DLRM traces'
    heavy tails.
    """
    if n_rows < 1 or n_lookups < 0:
        raise ValueError("n_rows must be >= 1 and n_lookups >= 0")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    ranks = np.arange(1, n_rows + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(n_lookups)
    return np.searchsorted(cdf, draws).astype(np.int64)


def shard_counts(indices: np.ndarray, n_shards: int) -> np.ndarray:
    """How many lookups land on each of ``n_shards`` row-range shards —
    the per-destination counts of DLRM's embedding alltoallv."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if indices.size == 0:
        return np.zeros(n_shards, dtype=np.int64)
    hi = int(indices.max()) + 1
    rows_per_shard = max(1, -(-hi // n_shards))
    shard = np.minimum(indices // rows_per_shard, n_shards - 1)
    return np.bincount(shard, minlength=n_shards).astype(np.int64)
