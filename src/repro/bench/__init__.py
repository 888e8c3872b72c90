"""Benchmark harness: OMB-style micro-benchmarks, sweeps, and reporting.

:mod:`repro.bench.microbench` reproduces the paper's measurement
methodology: a C-level OSU-Micro-Benchmarks reference (raw backend cost,
no framework dispatch) against framework-level measurements through the
real communicator — the basis of Figures 2 and 7.
"""

from repro.bench.microbench import (
    framework_latency_us,
    omb_latency_us,
    overhead_pct,
    MICRO_MESSAGE_SIZES,
)
from repro.bench.reporting import Report, format_table, save_report
from repro.bench.sweep import (
    SWEEP_SCHEMA_VERSION,
    SweepCache,
    SweepOutcome,
    SweepStats,
    run_sweep,
)

__all__ = [
    "run_sweep",
    "SweepCache",
    "SweepOutcome",
    "SweepStats",
    "SWEEP_SCHEMA_VERSION",
    "framework_latency_us",
    "omb_latency_us",
    "overhead_pct",
    "MICRO_MESSAGE_SIZES",
    "Report",
    "format_table",
    "save_report",
]
