"""The simulated (end-to-end) tuning path reproduces Table II's bands.

The fast analytic tuner backs the benchmarks; this validates that the
paper-faithful path — actually running the micro-benchmarks through the
runtime, as the real tuning suite does — lands on the same winners.
"""

import hashlib
import inspect
import json
import tracemalloc

import pytest

from repro.backends import datapath
from repro.backends.ops import OpFamily
from repro.cluster import lassen
from repro.core import Tuner
from repro.core.tuner import DEFAULT_MESSAGE_SIZES, DEFAULT_OPS

BACKENDS = ["mvapich2-gdr", "nccl", "msccl"]


@pytest.fixture(scope="module")
def simulated_table():
    tuner = Tuner(lassen(), BACKENDS, mode="simulated", iterations=3, warmup=1)
    report = tuner.build_table(
        world_sizes=[16],
        message_sizes=[256, 2048, 4096, 8192, 16384, 32768],
        ops=[OpFamily.ALLGATHER],
    )
    return report.table


class TestSimulatedTableII:
    def test_small_band(self, simulated_table):
        for msg in (256, 2048):
            assert simulated_table.lookup("allgather", 16, msg) == "mvapich2-gdr"

    def test_mid_band(self, simulated_table):
        for msg in (4096, 8192):
            assert simulated_table.lookup("allgather", 16, msg) == "nccl"

    def test_large_band(self, simulated_table):
        for msg in (16384, 32768):
            assert simulated_table.lookup("allgather", 16, msg) == "msccl"


class TestSimulatedMeasurements:
    def test_simulated_exceeds_analytic_by_dispatch_margin(self):
        """End-to-end numbers include the synchronization the analytic
        path doesn't; they must be close but never smaller."""
        analytic = Tuner(lassen(), BACKENDS, mode="analytic")
        simulated = Tuner(lassen(), BACKENDS, mode="simulated", iterations=3)
        for msg in (2048, 1 << 18):
            a = analytic.measure("nccl", OpFamily.ALLREDUCE, msg, 8)
            s = simulated.measure("nccl", OpFamily.ALLREDUCE, msg, 8)
            assert s >= a * 0.95
            assert s <= a * 3.0 + 50.0

    @pytest.mark.parametrize(
        "op",
        [
            OpFamily.REDUCE_SCATTER,
            OpFamily.BROADCAST,
            OpFamily.REDUCE,
            OpFamily.GATHER,
            OpFamily.SCATTER,
        ],
    )
    def test_simulated_covers_every_default_op(self, op):
        tuner = Tuner(lassen(), ["nccl"], mode="simulated", iterations=2)
        latency = tuner.measure("nccl", op, 4096, 4)
        assert latency > 0


class TestTimingOnlyCells:
    """Simulated cells are timing-only: a cell's latency is a pure
    function of declared sizes, so the benchmark buffers are virtual
    tensors and the data plane never runs."""

    #: SHA-256 over every sample of the grid below, captured from the
    #: real-buffer tuner this contract replaced.  A mismatch means a
    #: simulated tuning value moved: that needs a SWEEP_SCHEMA_VERSION
    #: bump (warm caches hold the old values), not a new hash here.
    REAL_BUFFER_SHA = "7880e59c45f662bbf866885f29ba5f00b340e01c233d2a83b0607602313fa95d"

    def test_values_bit_identical_to_real_buffer_tuner(self):
        tuner = Tuner(
            lassen(),
            ["nccl", "mvapich2-gdr", "msccl", "hier:nccl+mvapich2-gdr"],
            mode="simulated", iterations=3, warmup=1,
        )
        report = tuner.build_table(
            world_sizes=[8, 12],
            message_sizes=[1000, 4096, 65540, 1 << 20],
            ops=DEFAULT_OPS,
        )
        payload = json.dumps(
            [
                (s.op, s.backend, s.world_size, s.msg_bytes, repr(s.latency_us))
                for s in report.samples
            ]
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == self.REAL_BUFFER_SHA

    def test_sweep_never_enters_the_data_plane(self, monkeypatch):
        def moved(*args, **kwargs):
            raise AssertionError("simulated tuning cell moved bytes")

        for name, fn in list(vars(datapath).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                monkeypatch.setattr(datapath, name, moved)
        tuner = Tuner(
            lassen(), ["nccl", "hier:nccl+mvapich2-gdr"],
            mode="simulated", iterations=2, warmup=1,
        )
        report = tuner.build_table(
            world_sizes=[8], message_sizes=[4096, 1 << 16], ops=DEFAULT_OPS
        )
        assert len(report.samples) == len(DEFAULT_OPS) * 2 * 2

    @pytest.mark.parametrize("op", [OpFamily.ALLTOALL, OpFamily.ALLGATHER])
    def test_largest_default_cell_allocates_no_payload(self, op):
        """64 MiB x 16 ranks: real buffers need > 1 GiB per rank."""
        tuner = Tuner(lassen(), ["nccl"], mode="simulated", iterations=2)
        tracemalloc.start()
        try:
            latency = tuner.measure("nccl", op, DEFAULT_MESSAGE_SIZES[-1], 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert latency > 0
        assert peak < 32 << 20
