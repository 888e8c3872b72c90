"""Tier-1 wrapper around ``scripts/perfgate.py``.

The perf gate's fingerprint check is the contract that fault-injection
gates and observability hooks (and any other runtime change) leave
healthy-path simulated timings bit-identical to the committed baseline.
Running it from the test suite means a fingerprint drift fails CI, not
just the optional perf workflow.  The gate runs without ``--timed``, so
only deterministic facts are checked: no wall-clock or CPU-count
assertion can make tier-1 depend on the host.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
PERFGATE = REPO / "scripts" / "perfgate.py"
BASELINE = REPO / "BENCH_simulator.json"


def load_perfgate():
    spec = importlib.util.spec_from_file_location("perfgate", PERFGATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not BASELINE.exists(), reason="no committed baseline")
def test_simulated_fingerprints_match_committed_baseline():
    perfgate = load_perfgate()
    assert perfgate.main(["--baseline", str(BASELINE), "--repeats", "1"]) == 0


def test_missing_baseline_is_unusable_not_a_pass(tmp_path):
    perfgate = load_perfgate()
    missing = tmp_path / "does_not_exist.json"
    assert perfgate.main(["--baseline", str(missing)]) == 2


def test_observability_has_zero_simulated_overhead():
    """Instrumentation records events without moving simulated time."""
    from repro.bench import perfregress

    metrics = perfregress.SCENARIOS["obs_overhead"]()
    assert metrics["events_recorded"] > 0
    assert metrics["sim_instrumented_step_us"] == metrics["sim_step_us"]
    assert metrics["sim_overhead_pct"] == 0.0


def _obs_metrics(overhead_pct: float) -> dict:
    return {
        "wall_s": 0.1,
        "events_recorded": 10,
        "sim_step_us": 100.0,
        "sim_instrumented_step_us": 100.0 + overhead_pct,
        "sim_overhead_pct": overhead_pct,
    }


def _run_gate_with(
    monkeypatch, tmp_path, baseline_metrics, fresh_metrics,
    scenario="obs_overhead", extra_args=(),
):
    perfgate = load_perfgate()
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"schema": 1, "after": {"scenarios": {scenario: baseline_metrics}}}
    ))
    monkeypatch.setattr(
        perfgate.perfregress, "run_scenarios",
        lambda *a, **k: {scenario: fresh_metrics},
    )
    return perfgate.main(["--baseline", str(path), "--repeats", "1", *extra_args])


def test_gate_fails_when_obs_budget_exceeded(monkeypatch, tmp_path):
    # fingerprints agree (baseline == fresh), so the only violation is
    # the instrumented path costing more than the 5% budget
    over = _obs_metrics(7.0)
    assert _run_gate_with(monkeypatch, tmp_path, over, dict(over)) == 1


def test_gate_passes_within_obs_budget(monkeypatch, tmp_path):
    ok = _obs_metrics(0.0)
    assert _run_gate_with(monkeypatch, tmp_path, ok, dict(ok)) == 0


def _tune_metrics(**overrides) -> dict:
    metrics = {
        "wall_s": 2.0,
        "serial_wall_s": 0.1,
        "parallel_wall_s": 1.0,
        "warm_wall_s": 0.01,
        "parallel_speedup": 0.1,
        "warm_speedup": 10.0,
        "jobs": 4,
        "host_cpus": 8,
        "cells": 24,
        "warm_recomputed": 0,
        "sim_table_picks": {"allreduce@8": "nccl"},
        "sim_tables_identical": True,
        "sim_samples_identical": True,
    }
    metrics.update(overrides)
    return metrics


def test_wall_and_cpu_checks_apply_only_when_timed(monkeypatch, tmp_path):
    # an 8-CPU host whose pool ran 10x slower than serial: a wall-clock
    # fact, so the default gate passes and --timed fails
    slow = _tune_metrics()

    def run(*extra):
        return _run_gate_with(
            monkeypatch, tmp_path, slow, dict(slow), "tune_sweep", extra
        )

    assert run() == 0
    assert run("--timed") == 1
    assert run("--timed", "--sweep-floor", "0.05") == 0


def test_untimed_gate_ignores_wall_regressions(monkeypatch, tmp_path):
    base = _obs_metrics(0.0)
    slower = dict(base, wall_s=base["wall_s"] * 10)
    assert _run_gate_with(monkeypatch, tmp_path, base, slower) == 0
    assert _run_gate_with(
        monkeypatch, tmp_path, base, slower, extra_args=["--timed"]
    ) == 1


def test_untimed_gate_still_requires_a_zero_recompute_warm_run(monkeypatch, tmp_path):
    base = _tune_metrics()
    assert _run_gate_with(
        monkeypatch, tmp_path, base, _tune_metrics(warm_recomputed=3), "tune_sweep"
    ) == 1
