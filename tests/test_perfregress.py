"""The fingerprint ledger itself: scenario registry, determinism,
load/save, and the CLI round-trip.

The heavy scenarios run once, in ``tests/test_perfgate.py``'s gate run —
this file only runs cheap ones.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import perfregress

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_scenario_registry_complete():
    assert set(perfregress.SCENARIOS) == {
        "engine_events",
        "allreduce_ws16",
        "allreduce_ws64",
        "allreduce_ws128",
        "tuner_sweep",
        "dsmoe_step",
        "tuned_step",
        "obs_overhead",
        "tune_sweep",
        "dispatch_cache",
        "hier_allreduce",
        "adaptive_degraded_link",
    }


def test_cheap_scenarios_smoke_and_deterministic():
    names = ["tuner_sweep", "allreduce_ws16"]
    out = perfregress.run_scenarios(names)
    assert out["tuner_sweep"]["cells"] > 0
    assert out["allreduce_ws16"]["sim_final_us"] > 0
    assert perfregress.run_scenarios(names) == out


def test_run_scenarios_rejects_unknown_and_bad_repeats():
    with pytest.raises(KeyError, match="unknown scenario"):
        perfregress.run_scenarios(["nope"])
    # one run per scenario is the whole contract: best-of-N went with
    # the clock, so asking for repeats is an error, not a no-op
    with pytest.raises(TypeError):
        perfregress.run_scenarios(["tuner_sweep"], repeats=3)


def test_fingerprint_selects_sim_keys():
    m = {"sim_final_us": 42.0, "ops": 3, "sim_table_picks": {"a": "b"}}
    assert perfregress.fingerprint(m) == {
        "sim_final_us": 42.0,
        "sim_table_picks": {"a": "b"},
    }


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    # the schema-1 before/after timing file this ledger replaced
    path.write_text('{"schema": 1, "after": {"scenarios": {}}, "before": {}}')
    with pytest.raises(ValueError, match="unsupported schema"):
        perfregress.load(str(path))


def test_cli_perf_writes_output(tmp_path):
    from repro.cli import main

    out = tmp_path / "bench.json"
    assert main(["perf", "--out", str(out), "--scenarios", "tuner_sweep"]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == perfregress.SCHEMA_VERSION
    assert set(data["scenarios"]) == {"tuner_sweep"}
    # a second subset run adds its row and keeps the first
    assert main(["perf", "--out", str(out), "--scenarios", "engine_events"]) == 0
    assert set(perfregress.load(str(out))) == {"tuner_sweep", "engine_events"}


def test_tuned_step_does_not_depend_on_the_hash_seed():
    """A tuned plan's backend order once came from a set, so the
    ``"auto"`` step time was one hash seed's draw."""
    script = (
        "from repro.bench.perfregress import SCENARIOS;"
        "print(repr(SCENARIOS['tuned_step']()))"
    )

    def run(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    assert run("0") == run("2")
