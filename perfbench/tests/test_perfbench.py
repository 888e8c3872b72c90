"""Self-tests of the benchmark harness.

Not collected by tier-1 (``testpaths = ["tests"]``); run with
``python -m pytest perfbench/tests -q`` from the repo root (about two
minutes: one ``--quick`` suite run in pinned subprocesses).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import compare  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, Dataplane  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_py(*args: str, timeout: int = 600) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def quick_result() -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    out = os.path.join(WORK_DIR, f"quick-{os.getpid()}.json")
    try:
        proc = run_py("--quick", "--out", out)
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(out) as fh:
            return json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)


def test_spec_names_workloads_and_metrics():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert s["paths"] == ["perfbench"]
    assert {m["name"] for m in s["end_to_end"]} == {
        "setup_s", "wall_ops_per_s", "peak_rss_mb", "sim_elapsed_us", "sim_mix_gain"
    }
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_quick_suite_emits_every_metric_with_a_unit(quick_result):
    s = spec()
    assert sorted(quick_result["workloads"]) == sorted(WORKLOADS)
    assert set(quick_result["env"]) == {"nproc", "affinity", "python", "platform"}
    for name, doc in quick_result["workloads"].items():
        run = doc["runs"][0]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, name
        for declared, got in ((s["end_to_end"], run), (s["per_layer"], doc["traced"])):
            assert set(got["metrics"]) == {m["name"] for m in declared}, name
            for m in declared:
                cell = got["metrics"][m["name"]]
                assert cell["unit"] == m["unit"] and isinstance(cell["value"], (int, float))
        for m in s["end_to_end"]:
            assert run["metrics"][m["name"]]["value"] > 0, (name, m["name"])


def test_tracer_self_times_sum_to_the_traced_wall(quick_result):
    for name, doc in quick_result["workloads"].items():
        diag = doc["traced"]["diagnostics"]
        assert diag["self_sum_s"] == pytest.approx(diag["traced_wall_s"], rel=0.02), name
        per_rep = sum(
            cell["value"] for metric, cell in doc["traced"]["metrics"].items()
            if metric.endswith(".self_ms_per_rep")
        )
        assert per_rep * diag["traced_reps"] / 1e3 == pytest.approx(diag["self_sum_s"], rel=1e-6)


def test_wrappers_are_removed_after_the_traced_pass(quick_result):
    for name, doc in quick_result["workloads"].items():
        assert doc["traced"]["diagnostics"]["wrappers_left"] == [], name
    tracer = LayerTracer()
    assert LayerTracer.installed() == []
    tracer.install()
    try:
        assert len(LayerTracer.installed()) > 60
    finally:
        tracer.uninstall()
    assert LayerTracer.installed() == []


def test_a_wrong_oracle_makes_fail_frac_positive():
    workload = Dataplane(seed=5)
    good = child.Reps(workload)
    good.one()
    assert good.failed == 0 and good.attempted == workload.ops_per_rep
    op = workload.program[0]
    op.expected = [e + 1.0 for e in op.expected]
    bad = child.Reps(workload)
    bad.one()
    assert bad.failed == workload.world  # that op's output on every rank
    assert bad.failed / bad.attempted > 0


def test_driver_form_prints_the_contract_line():
    proc = run_py("--workload", "dataplane_ws8", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}


def test_compare_gates_end_to_end_rows_and_refuses_other_hosts(quick_result, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(quick_result))
    assert compare.main([str(base), str(base)]) == 0
    assert "0 worse/unresolved; 0 deterministic count(s) differ" in capsys.readouterr().out

    slower = json.loads(json.dumps(quick_result))
    for run in slower["workloads"]["moe_train_ws64"]["runs"]:
        run["metrics"]["wall_ops_per_s"]["value"] *= 0.7
        run["metrics"]["sim_elapsed_us"]["value"] += 1.0
    new = tmp_path / "new.json"
    new.write_text(json.dumps(slower))
    assert compare.main([str(base), str(new)]) == 1
    verdicts = {
        (row[0], row[1]): row[3]["verdict"]
        for row in compare.compare(quick_result, slower, spec())[0]
    }
    assert verdicts[("moe_train_ws64", "wall_ops_per_s")] == "worse"
    assert verdicts[("moe_train_ws64", "sim_elapsed_us")] == "worse"  # exact
    assert verdicts[("auto_mix_ws16", "wall_ops_per_s")] == "within"

    slower["env"]["nproc"] = 128
    new.write_text(json.dumps(slower))
    assert compare.main([str(base), str(new)]) == 2
