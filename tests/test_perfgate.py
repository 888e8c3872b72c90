"""Tier-1 wrapper around ``scripts/perfgate.py``.

The perf gate's fingerprint check is the contract that fault-injection
gates and observability hooks (and any other runtime change) leave
healthy-path simulated timings bit-identical to the committed ledger.
Running it from the test suite means a fingerprint drift fails tier-1.
Everything the gate checks is a deterministic fact, so each of its
failure conditions can be shown failing on the committed rows.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

from repro.bench import perfregress

REPO = pathlib.Path(__file__).resolve().parent.parent
PERFGATE = REPO / "scripts" / "perfgate.py"
BASELINE = REPO / "BENCH_simulator.json"


def _load_perfgate():
    spec = importlib.util.spec_from_file_location("perfgate", PERFGATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfgate = _load_perfgate()


def test_simulated_fingerprints_match_committed_baseline():
    assert perfgate.main(["--baseline", str(BASELINE)]) == 0


def test_missing_baseline_is_unusable_not_a_pass(tmp_path):
    missing = tmp_path / "does_not_exist.json"
    assert perfgate.main(["--baseline", str(missing)]) == 2


def test_observability_has_zero_simulated_overhead():
    """Instrumentation records events without moving simulated time."""
    metrics = perfregress.SCENARIOS["obs_overhead"]()
    assert metrics["events_recorded"] > 0
    assert metrics["sim_instrumented_step_us"] == metrics["sim_step_us"]
    assert metrics["sim_overhead_pct"] == 0.0


def _gate(monkeypatch, tmp_path, baseline: dict, fresh: dict) -> int:
    """The gate's verdict on ``fresh`` rows against ``baseline`` rows,
    with the scenarios themselves stubbed out."""
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps({"schema": perfregress.SCHEMA_VERSION, "scenarios": baseline})
    )
    monkeypatch.setattr(perfregress, "run_scenarios", lambda **kw: fresh)
    return perfgate.main(["--baseline", str(path)])


def _committed(scenario=None, **perturbed) -> dict:
    rows = copy.deepcopy(perfregress.load(str(BASELINE)))
    if scenario is not None:
        rows[scenario].update(perturbed)
    return rows


#: the gate's ten contract conditions: (scenario, field, violating value)
CONDITIONS = {
    "obs-budget": ("obs_overhead", "sim_overhead_pct", 7.0),
    "warm-recompute": ("tune_sweep", "warm_recomputed", 3),
    "tables-identity": ("tune_sweep", "sim_tables_identical", False),
    "samples-identity": ("tune_sweep", "sim_samples_identical", False),
    "plan-identity": ("dispatch_cache", "sim_cached_equals_uncached", False),
    "plan-hit-floor": ("dispatch_cache", "plan_hit_rate", 0.9),
    "hier-floor": ("hier_allreduce", "hier_speedup", 1.01),
    "hier-pick": ("hier_allreduce", "sim_pick_large", "nccl"),
    "adapt-floor": ("adaptive_degraded_link", "adapt_recovery", 1.1),
    "zero-retunes": ("adaptive_degraded_link", "sim_retunes", 0),
}


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
def test_each_gate_condition_has_a_failing_case(monkeypatch, tmp_path, condition):
    # perturbed on both sides, so the fingerprints agree and the only
    # violation is the condition itself
    scenario, field, bad = CONDITIONS[condition]
    rows = _committed(scenario, **{field: bad})
    failures = perfgate.failures_of(rows, rows)
    assert len(failures) == 1 and failures[0].startswith(scenario), failures
    assert _gate(monkeypatch, tmp_path, rows, rows) == 1


def test_gate_fails_when_obs_budget_exceeded(monkeypatch, tmp_path):
    # just past the budget; exactly on it passes (next test)
    rows = _committed("obs_overhead", sim_overhead_pct=5.001)
    assert _gate(monkeypatch, tmp_path, rows, rows) == 1


def test_gate_passes_within_obs_budget(monkeypatch, tmp_path):
    # the budget is inclusive, and the committed rows themselves pass
    rows = _committed("obs_overhead", sim_overhead_pct=5.0)
    assert _gate(monkeypatch, tmp_path, rows, rows) == 0
    assert _gate(monkeypatch, tmp_path, _committed(), _committed()) == 0


def test_untimed_gate_still_requires_a_zero_recompute_warm_run(monkeypatch, tmp_path):
    # not a sim_* field: the fingerprint comparison cannot catch it
    fresh = _committed("tune_sweep", warm_recomputed=3)
    assert _gate(monkeypatch, tmp_path, _committed(), fresh) == 1


def test_moved_sim_value_fails(monkeypatch, tmp_path):
    moved = _committed("allreduce_ws16", sim_final_us=24167.0)
    assert _gate(monkeypatch, tmp_path, _committed(), moved) == 1


def test_scenario_absent_from_baseline_fails(monkeypatch, tmp_path):
    baseline = _committed()
    del baseline["tuned_step"]
    assert _gate(monkeypatch, tmp_path, baseline, _committed()) == 1


def test_committed_baseline_is_the_whole_ledger_and_nothing_else():
    data = json.loads(BASELINE.read_text())
    assert set(data) == {"schema", "scenarios"}
    assert set(data["scenarios"]) == set(perfregress.SCENARIOS)
    assert "wall" not in BASELINE.read_text()
