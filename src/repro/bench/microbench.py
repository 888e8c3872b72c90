"""OMB-style communication micro-benchmarks.

Measurement methodology (paper §VI-A):

* :func:`omb_latency_us` — the OSU Micro-Benchmarks reference: the raw
  library cost of one operation with no framework layer on top (the C
  benchmark loops directly over ``MPI_Alltoall``/``ncclAllReduce``).
* :func:`framework_latency_us` — the same operation issued through a
  framework (MCR-DL, PyTorch-distributed, ...) inside the simulator, so
  the framework's dispatch overheads and synchronization scheme are on
  the measured path.
* :func:`overhead_pct` — Fig. 7's metric: percent overhead of the
  framework over the OMB reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.backends.base import price_us
from repro.backends.ops import OpFamily
from repro.cluster.topology import SystemSpec
from repro.core.config import MCRConfig
from repro.core.tuner import simulated_latency_us

#: Fig. 2/7 sweep: 1 KiB .. 64 MiB
MICRO_MESSAGE_SIZES = tuple(1024 * (2**i) for i in range(17))


def omb_latency_us(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    nonblocking: bool = False,
) -> float:
    """C-level reference latency of one collective (no framework): the
    bare library's :func:`~repro.backends.base.price_us`.  A ``hier:*``
    name prices the composite's phase schedule, so Fig. 2-style sweeps
    compare it against its constituents at each size."""
    return price_us(
        system, backend_name, family, nbytes, world_size, nonblocking=nonblocking
    )


def effective_nbytes(nbytes: int, world_size: int) -> int:
    """The byte count a framework measurement actually exercises.

    Collective buffers hold float32 elements and must divide evenly by
    the world size, so a requested ``nbytes`` is realized as the largest
    element count ``<= nbytes // 4`` that is a multiple of
    ``world_size`` (at least one element per rank).  Overhead
    comparisons must price the OMB reference at this same size — pricing
    it at the raw ``nbytes`` compares the two sides at different
    payloads and inflates Fig. 7 overheads for sizes not divisible by
    ``4 * world_size``.
    """
    numel = max(world_size, nbytes // 4)
    numel -= numel % world_size
    return numel * 4


def framework_latency_us(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional[MCRConfig] = None,
    iterations: int = 5,
    nonblocking: bool = False,
) -> float:
    """Per-op latency through a framework's dispatch path: the one
    simulated harness (:func:`repro.core.tuner.simulated_latency_us`),
    one warmup post, at the :func:`effective_nbytes` payload."""
    numel = effective_nbytes(nbytes, world_size) // 4
    return simulated_latency_us(
        system, backend_name, family, numel, numel, world_size,
        config or MCRConfig(), iterations, 1, async_op=nonblocking,
    )


def overhead_pct(framework_us: float, omb_us: float) -> float:
    """Fig. 7's metric: percent overhead over the OMB reference."""
    if omb_us <= 0:
        raise ValueError(f"invalid OMB reference {omb_us}")
    return (framework_us - omb_us) / omb_us * 100.0


def framework_overhead_pct(
    system: SystemSpec,
    backend_name: str,
    family: OpFamily,
    nbytes: int,
    world_size: int,
    config: Optional[MCRConfig] = None,
    iterations: int = 5,
    nonblocking: bool = False,
) -> float:
    """Fig. 7 overhead with both sides priced at one effective payload.

    Computes :func:`effective_nbytes` once and feeds it to *both* the
    framework measurement and the OMB reference, so the comparison is
    apples-to-apples even when ``nbytes`` is not a multiple of
    ``4 * world_size``.
    """
    eff = effective_nbytes(nbytes, world_size)
    framework = framework_latency_us(
        system, backend_name, family, eff, world_size,
        config=config, iterations=iterations, nonblocking=nonblocking,
    )
    omb = omb_latency_us(
        system, backend_name, family, eff, world_size, nonblocking=nonblocking
    )
    return overhead_pct(framework, omb)


def _omb_cell(context: tuple, unit: tuple) -> float:
    """Sweep-engine worker: one (backend, message size) OMB cell.
    Top-level so the spawn pool can pickle it by reference."""
    system, family_value, world_size, nonblocking = context
    backend, msg = unit
    return omb_latency_us(
        system, backend, OpFamily(family_value), msg, world_size, nonblocking
    )


def sweep_backends(
    system: SystemSpec,
    backends: Sequence[str],
    family: OpFamily,
    world_size: int,
    message_sizes: Sequence[int] = MICRO_MESSAGE_SIZES,
    nonblocking: bool = False,
    jobs: int = 1,
    cache=None,
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 2: OMB latency series per backend over message sizes.

    Backend construction is hoisted out of the sweep loop (one cost
    backend per name, via :func:`repro.backends.base.cost_backend`);
    ``jobs``/``cache``
    fan cells out / serve them from the on-disk sweep cache exactly as
    :meth:`repro.core.tuner.Tuner.build_table` does.
    """
    from repro.bench.sweep import cell_keys, run_sweep

    family = OpFamily(family)
    cells = [(backend, msg) for backend in backends for msg in message_sizes]
    keys = None
    if cache is not None:
        keys = cell_keys(
            "microbench", system,
            [{"backend": backend, "msg": msg} for backend, msg in cells],
            family=str(family), world_size=world_size, nonblocking=nonblocking,
        )
    outcome = run_sweep(
        _omb_cell, cells, context=(system, family.value, world_size, nonblocking),
        jobs=jobs, cache=cache, keys=keys,
    )
    out: dict[str, list[tuple[int, float]]] = {}
    for (backend, msg), latency in zip(cells, outcome.results):
        out.setdefault(backend, []).append((msg, latency))
    return out
