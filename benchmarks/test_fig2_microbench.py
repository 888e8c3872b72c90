"""Figure 2: backend collective micro-benchmarks at 64 GPUs on Lassen.

(a) non-blocking iAllreduce latency, (b) Alltoall latency, per backend,
across message sizes — the motivating observation that no single
backend wins everywhere.
"""

import pytest

from repro.backends.ops import OpFamily
from repro.bench.microbench import sweep_backends
from repro.bench.reporting import Report

BACKENDS = ["mvapich2-gdr", "nccl", "msccl", "openmpi"]
SIZES = [1024 * (4**i) for i in range(9)]  # 1 KiB .. 64 MiB
WORLD = 64  # 16 nodes x 4 ppn


def run_series(system, family, nonblocking):
    series = sweep_backends(
        system, BACKENDS, family, WORLD, message_sizes=SIZES, nonblocking=nonblocking
    )
    return {backend: [latency for _, latency in series[backend]] for backend in BACKENDS}


@pytest.mark.benchmark(group="fig2")
def test_fig2a_iallreduce(benchmark, lassen_system, publish):
    series = benchmark.pedantic(
        lambda: run_series(lassen_system, OpFamily.ALLREDUCE, nonblocking=True),
        rounds=1, iterations=1,
    )
    report = Report(
        experiment="fig2a",
        title="iAllreduce latency (us), 64 V100 GPUs on Lassen (16 nodes x 4 ppn)",
        header=["msg_bytes"] + BACKENDS + ["winner"],
    )
    for i, size in enumerate(SIZES):
        row = [series[b][i] for b in BACKENDS]
        winner = BACKENDS[row.index(min(row))]
        report.add_row(size, *row, winner)
    publish(report)

    # paper shape: MV2-GDR wins small messages; NCCL wins the MB range
    small = {b: series[b][0] for b in BACKENDS}
    assert min(small, key=small.get) == "mvapich2-gdr"
    large = {b: series[b][-1] for b in BACKENDS}
    assert min(large, key=large.get) == "nccl"


@pytest.mark.benchmark(group="fig2")
def test_fig2b_alltoall(benchmark, lassen_system, publish, publish_chart):
    series = benchmark.pedantic(
        lambda: run_series(lassen_system, OpFamily.ALLTOALL, nonblocking=False),
        rounds=1, iterations=1,
    )
    publish_chart(
        "fig2b",
        {b: list(zip(SIZES, series[b])) for b in BACKENDS},
        log_x=True, log_y=True,
        title="Fig 2(b): Alltoall latency vs message size, 64 GPUs (log-log)",
    )
    report = Report(
        experiment="fig2b",
        title="Alltoall latency (us), 64 V100 GPUs on Lassen (16 nodes x 4 ppn)",
        header=["msg_bytes"] + BACKENDS + ["winner"],
    )
    for i, size in enumerate(SIZES):
        row = [series[b][i] for b in BACKENDS]
        winner = BACKENDS[row.index(min(row))]
        report.add_row(size, *row, winner)
    publish(report)

    # paper shape: MVAPICH2-GDR's pairwise Alltoall dominates at this
    # scale across the sweep, and NCCL trails by a growing factor
    for i in range(len(SIZES)):
        row = {b: series[b][i] for b in BACKENDS}
        assert min(row, key=row.get) == "mvapich2-gdr", SIZES[i]
    assert series["nccl"][0] / series["mvapich2-gdr"][0] > 2.0
