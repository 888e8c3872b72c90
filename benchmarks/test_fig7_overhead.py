"""Figure 7: framework overhead over OMB for a fixed backend
(MVAPICH2-GDR Alltoall, 32 A100 GPUs on ThetaGPU).

MCR-DL's C++ backbone keeps Python overhead to ~5% for small messages
and ~1% for large; PyTorch-distributed pays ~18% and ~4%.
"""

import pytest

from repro.backends.ops import OpFamily
from repro.bench.microbench import (
    effective_nbytes,
    framework_overhead_pct,
    omb_latency_us,
)
from repro.bench.reporting import Report
from repro.core import MCRConfig
from repro.models.plan import PROFILES

#: OMB alltoall message sizes are per destination pair
PAIR_SIZES = [1024 * (4**i) for i in range(7)]  # 1 KiB .. 4 MiB per pair
WORLD = 32
BACKEND = "mvapich2-gdr"


def torch_config() -> MCRConfig:
    return PROFILES["torch-distributed"].to_config()


def run_sweep(system):
    rows = []
    for pair_size in PAIR_SIZES:
        # framework_overhead_pct prices both sides at one effective
        # payload (the framework rounds element counts to a multiple of
        # world size); the OMB column is priced at that payload too
        total = pair_size * WORLD
        omb = omb_latency_us(
            system, BACKEND, OpFamily.ALLTOALL, effective_nbytes(total, WORLD), WORLD
        )
        mcr = framework_overhead_pct(
            system, BACKEND, OpFamily.ALLTOALL, total, WORLD, config=MCRConfig()
        )
        torch = framework_overhead_pct(
            system, BACKEND, OpFamily.ALLTOALL, total, WORLD, config=torch_config()
        )
        rows.append((pair_size, omb, mcr, torch))
    return rows


@pytest.mark.benchmark(group="fig7")
def test_fig7_framework_overhead(benchmark, thetagpu_system, publish):
    rows = benchmark.pedantic(
        lambda: run_sweep(thetagpu_system), rounds=1, iterations=1
    )
    report = Report(
        experiment="fig7",
        title="Overhead over OMB, MVAPICH2-GDR Alltoall, 32 A100 (ThetaGPU)",
        header=["msg_bytes", "omb_us", "mcr_dl_overhead_%", "torch_dist_overhead_%"],
    )
    for row in rows:
        report.add_row(*row)
    report.add_note("paper: MCR-DL ~5% small -> ~1% large; torch ~18% -> ~4%")
    publish(report)

    small_mcr, small_torch = rows[0][2], rows[0][3]
    large_mcr, large_torch = rows[-1][2], rows[-1][3]

    # paper shape: torch is several x more expensive at both ends, and
    # both overheads shrink as messages grow
    assert small_torch > 2.0 * small_mcr
    assert large_torch > 2.0 * large_mcr
    assert small_mcr > large_mcr
    assert small_torch > large_torch
    # rough magnitudes (generous bands around 5/1 and 18/4)
    assert 1.0 < small_mcr < 12.0
    assert large_mcr < 3.0
    assert 8.0 < small_torch < 40.0
    assert large_torch < 8.0
