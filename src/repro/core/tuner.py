"""The MCR-DL tuning suite (paper §V-F, C5).

Runs communication micro-benchmarks for every (backend, operation,
message size, world size) combination and records the winner in a
:class:`~repro.core.tuning.TuningTable` for later use by the ``"auto"``
backend.

Two measurement modes:

* ``simulated`` — actually runs the discrete-event simulator with an
  MCR-DL communicator issuing the operation in a timed loop (this is
  what the paper's suite does with OMB-style scripts) through
  :func:`simulated_latency_us`, the harness Fig. 7 also runs.  Cells are
  **timing-only**: the benchmark buffers are virtual tensors (declared
  size, one element of storage), so every op takes the runtime's
  ``timing_only`` path — same dispatch, rendezvous, stream placement,
  wire-lane contention and cost-model call, keyed on the declared byte
  count — and the data plane never runs.  A cell's latency is a pure
  function of sizes, never of buffer contents, so the values are
  bit-identical to measuring with real buffers (pinned by
  ``tests/test_tuner_simulated.py``) while a cell costs
  O(ranks x iterations) instead of O(world size x bytes): the full
  256 B .. 64 MiB :data:`DEFAULT_MESSAGE_SIZES` range is practical in
  this mode;
* ``analytic`` — prices the operation with
  :func:`~repro.backends.base.price_us`, the one analytic price (cost
  model x dispatch fraction, plus the dispatch and call overheads).
  Orders of magnitude faster for wide sweeps; the test suite verifies
  both modes agree on rankings and, for flat cells, on values.

Sweeps are embarrassingly parallel — every cell is a pure function of
its coordinates — so :meth:`Tuner.build_table` decomposes the grid into
picklable work units and hands them to the
:mod:`repro.bench.sweep` engine: ``jobs=N`` fans cells out over a
spawn pool, ``cache=`` serves unchanged cells from the content-addressed
on-disk cache.  The merge replays the exact serial ordering, so the
resulting table and report are byte-identical to a serial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.base import is_hier_name, price_us
from repro.backends.ops import OpFamily
from repro.cluster.topology import SystemSpec
from repro.core.comm import MCRCommunicator
from repro.core.config import MCRConfig
from repro.core.exceptions import TuningError
from repro.core.tuning import TuningTable
from repro.obs.metrics import ObsEvent
from repro.sim.simulator import Simulator
from repro.tensor.dtypes import float32

#: default sweep, 256 B .. 64 MiB in powers of two
DEFAULT_MESSAGE_SIZES = tuple(256 * (2**i) for i in range(19))

DEFAULT_OPS = (
    OpFamily.ALLREDUCE,
    OpFamily.ALLGATHER,
    OpFamily.ALLTOALL,
    OpFamily.REDUCE_SCATTER,
    OpFamily.BROADCAST,
    OpFamily.GATHER,
    OpFamily.SCATTER,
    OpFamily.REDUCE,
)


@dataclass
class TuningSample:
    """One micro-benchmark measurement."""

    op: str
    backend: str
    world_size: int
    msg_bytes: int
    latency_us: float


@dataclass
class TuningReport:
    """All samples from one tuning run plus the resulting table."""

    table: TuningTable
    samples: list[TuningSample] = field(default_factory=list)
    #: execution statistics from the sweep engine (jobs, cache hits /
    #: misses); excluded from equality so parallel and cached runs
    #: compare equal to serial ones when their measurements agree
    sweep_stats: Optional[object] = field(default=None, compare=False)

    def samples_for(self, op: str, world_size: int, msg_bytes: int) -> list[TuningSample]:
        return [
            s
            for s in self.samples
            if s.op == op and s.world_size == world_size and s.msg_bytes == msg_bytes
        ]


# One benchmark body per op family: ``make(ctx, numel, alltoall_numel)``
# builds the rank's buffers and returns ``post(comm, backend, async_op)``,
# which returns the op's handle (None for a synchronous post).  Buffers
# are virtual tensors (declared size, one element of storage), so the
# runtime prices each op from its declared bytes and never runs the data
# plane; each body builds only the ones its op posts.


def _allreduce(ctx, numel, alltoall_numel):
    x = ctx.virtual_tensor(numel)
    return lambda comm, b, a: comm.all_reduce(b, x, async_op=a)


def _allgather(ctx, numel, alltoall_numel):
    x, out = ctx.virtual_tensor(numel), ctx.virtual_tensor(numel * ctx.world_size)
    return lambda comm, b, a: comm.all_gather(b, out, x, async_op=a)


def _alltoall(ctx, numel, alltoall_numel):
    buf = ctx.virtual_tensor(alltoall_numel)
    return lambda comm, b, a: comm.all_to_all_single(b, buf, buf, async_op=a)


def _reduce_scatter(ctx, numel, alltoall_numel):
    shard = ctx.virtual_tensor(max(1, numel // ctx.world_size))
    padded = ctx.virtual_tensor(shard.numel() * ctx.world_size)
    return lambda comm, b, a: comm.reduce_scatter(b, shard, padded, async_op=a)


def _broadcast(ctx, numel, alltoall_numel):
    x = ctx.virtual_tensor(numel)
    return lambda comm, b, a: comm.bcast(b, x, root=0, async_op=a)


def _reduce(ctx, numel, alltoall_numel):
    x = ctx.virtual_tensor(numel)
    return lambda comm, b, a: comm.reduce(b, x, root=0, async_op=a)


def _gather(ctx, numel, alltoall_numel):
    x = ctx.virtual_tensor(numel)
    out = ctx.virtual_tensor(numel * ctx.world_size) if ctx.rank == 0 else None
    return lambda comm, b, a: comm.gather(b, x, out, root=0, async_op=a)


def _scatter(ctx, numel, alltoall_numel):
    x = ctx.virtual_tensor(numel)
    full = ctx.virtual_tensor(numel * ctx.world_size) if ctx.rank == 0 else None
    return lambda comm, b, a: comm.scatter(b, x, full, root=0, async_op=a)


_OP_RUNNERS = {
    OpFamily.ALLREDUCE: _allreduce,
    OpFamily.ALLGATHER: _allgather,
    OpFamily.ALLTOALL: _alltoall,
    OpFamily.REDUCE_SCATTER: _reduce_scatter,
    OpFamily.BROADCAST: _broadcast,
    OpFamily.REDUCE: _reduce,
    OpFamily.GATHER: _gather,
    OpFamily.SCATTER: _scatter,
}


def simulated_latency_us(
    system: SystemSpec,
    backend_name: str,
    op: OpFamily,
    numel: int,
    alltoall_numel: int,
    world_size: int,
    config: MCRConfig,
    iterations: int,
    warmup: int,
    async_op: bool = False,
) -> float:
    """Per-op latency of ``op`` measured end to end in the simulator:
    ``warmup`` posts, a barrier, then ``iterations`` posts each followed
    by its synchronize; the slowest rank's mean.  The one simulated
    harness: the tuner's simulated cells and Fig. 7's framework side
    both run it.

    Each rank posts ``numel`` float32 elements (a gathered buffer holds
    ``numel x world size``); ``all_to_all_single`` posts
    ``alltoall_numel`` elements in and out.  A ``hier:*`` name runs the
    composite over its constituents, or is +inf for a family it cannot
    decompose.
    """
    make = _OP_RUNNERS.get(op)
    if make is None:
        raise TuningError(f"cannot benchmark {op}")
    if is_hier_name(backend_name):
        from repro.backends.hierarchical import HIER_FAMILIES, parse_hier

        if op not in HIER_FAMILIES:
            return math.inf  # not decomposable; never simulate it
        spec = parse_hier(backend_name)
        comm_backends = list(dict.fromkeys((spec.intra, spec.inter)))
        #: "hier:*" is not a backend name; synchronize/barrier on the
        #: constituents (None = all, which also drains phase groups)
        sync_target, barrier_on = None, comm_backends[0]
    else:
        comm_backends = [backend_name]
        sync_target, barrier_on = backend_name, backend_name

    def bench(ctx):
        comm = MCRCommunicator(ctx, comm_backends, config=config)
        post = make(ctx, numel, alltoall_numel)

        def run_op():
            handle = post(comm, backend_name, async_op)
            if handle is not None:
                handle.synchronize()
            else:
                comm.synchronize(sync_target)

        for _ in range(warmup):
            run_op()
        comm.barrier(barrier_on)
        start = ctx.now
        for _ in range(iterations):
            run_op()
        elapsed = ctx.now - start
        comm.finalize()
        return elapsed / iterations

    result = Simulator(world_size, system=system).run(bench)
    return max(result.rank_results)


def _measure_cell(tuner: "Tuner", unit: tuple) -> float:
    """Sweep-engine worker: measure one (op, world size, msg, backend)
    cell.  Top-level so the spawn pool can pickle it by reference; the
    tuner itself is the context shipped once to each worker."""
    op_value, world_size, msg_bytes, backend = unit
    return tuner.measure(backend, OpFamily(op_value), msg_bytes, world_size)


class Tuner:
    """Builds tuning tables for a system over a set of backends."""

    def __init__(
        self,
        system: SystemSpec,
        backends: Sequence[str],
        config: Optional[MCRConfig] = None,
        mode: str = "analytic",
        iterations: int = 5,
        warmup: int = 1,
        metrics=None,
    ):
        if mode not in ("analytic", "simulated"):
            raise TuningError(f"unknown tuning mode {mode!r}")
        if not backends:
            raise TuningError("tuner needs at least one backend")
        self.system = system
        self.backends = list(backends)
        self.config = config or MCRConfig()
        self.mode = mode
        self.iterations = iterations
        self.warmup = warmup
        #: optional repro.obs.MetricsRegistry; every measured sample is
        #: reported as a kind="tuning" event
        self.metrics = metrics

    def __getstate__(self) -> dict:
        # sweep workers get the measurement context, never the observer
        return {**self.__dict__, "metrics": None}

    def measure(
        self, backend_name: str, op: OpFamily, msg_bytes: int, world_size: int
    ) -> float:
        """End-to-end per-operation latency in µs."""
        if self.mode == "analytic":
            return price_us(
                self.system, backend_name, op, msg_bytes, world_size,
                config=self.config,
            )
        numel = max(1, msg_bytes // float32.itemsize)
        return simulated_latency_us(
            self.system, backend_name, op, numel,
            # all_to_all_single posts ws x msg of local input here, while
            # analytic cells and "auto" lookups key on the local input
            # total: tests/test_tuner_simulated.py's strict alltoall xfail
            numel * world_size,
            world_size, self.config, self.iterations, self.warmup,
        )

    # -- sweep ------------------------------------------------------------

    def build_table(
        self,
        world_sizes: Sequence[int],
        message_sizes: Sequence[int] = DEFAULT_MESSAGE_SIZES,
        ops: Sequence[OpFamily] = DEFAULT_OPS,
        jobs: int = 1,
        cache=None,
    ) -> TuningReport:
        """Benchmark every combination and record the per-cell winner.

        ``jobs > 1`` fans independent cells out over a spawn pool;
        ``cache`` (a :class:`repro.bench.sweep.SweepCache`) serves
        already-measured cells from disk.  Both preserve byte-identical
        output relative to a serial, uncached sweep.
        """
        from repro.bench.sweep import cell_keys, config_fingerprint, run_sweep

        bad = [ws for ws in world_sizes if ws < 2]
        if bad:
            # validate before measuring anything so a bad sweep cannot
            # leave a partially populated report behind
            raise TuningError(f"tuning needs world sizes >= 2, got {bad}")

        # decompose into picklable units in the exact serial order
        cells = [
            (str(op), ws, msg, backend)
            for op in ops
            for ws in world_sizes
            for msg in message_sizes
            for backend in self.backends
        ]
        keys = None
        if cache is not None:
            keys = cell_keys(
                "tuning", self.system,
                [
                    {"op": op, "world_size": ws, "msg_bytes": msg, "backend": backend}
                    for (op, ws, msg, backend) in cells
                ],
                config=config_fingerprint(self.config), mode=self.mode,
                iterations=self.iterations, warmup=self.warmup,
            )
        outcome = run_sweep(
            _measure_cell, cells, context=self, jobs=jobs, cache=cache,
            keys=keys, metrics=self.metrics,
        )

        # deterministic merge: replay the serial loop order over the
        # index-aligned results, so samples, winners, and tie-breaks are
        # byte-identical no matter how the cells were computed
        table = TuningTable(system=self.system.name)
        report = TuningReport(table=table, sweep_stats=outcome.stats)
        latencies = outcome.results
        index = 0
        for op in ops:
            for ws in world_sizes:
                for msg in message_sizes:
                    best_backend, best_latency = None, float("inf")
                    cell_samples = []
                    for backend in self.backends:
                        latency = latencies[index]
                        index += 1
                        cell_samples.append(
                            TuningSample(str(op), backend, ws, msg, latency)
                        )
                        if latency < best_latency:
                            best_backend, best_latency = backend, latency
                    report.samples.extend(cell_samples)
                    self._observe_cell(cell_samples)
                    table.add(str(op), ws, msg, best_backend)
        return report

    def _observe_cell(self, cell_samples: Sequence[TuningSample]) -> None:
        """Batch-report one merged cell's samples as tuning events."""
        if self.metrics is None:
            return
        for s in cell_samples:
            self.metrics.observe(
                ObsEvent(
                    kind="tuning",
                    rank=-1,
                    stream="",
                    backend=s.backend,
                    family=s.op,
                    nbytes=s.msg_bytes,
                    step=-1,
                    start=0.0,
                    end=s.latency_us,
                    detail=f"ws={s.world_size}",
                )
            )
