"""One event row per fact, one log per job (repro.obs.metrics.EventLog).

The tracer's intervals, the comm log's records and its fault trail are
``ObsEvent`` rows in one per-job log; ``Tracer`` and ``CommLogger`` are
views over it, and the log hands each row to the metrics registry
itself rather than a copy.
"""

from __future__ import annotations

import hashlib
import json

from repro.cli import main as cli_main
from repro.core import MCRCommunicator, MCRConfig
from repro.sim import Simulator
from repro.sim.faults import FaultSpec

#: SHA-256 of what ``repro train --world 8 --faults
#: 'backend=nccl:transient:prob=0.05' --trace T --metrics M`` writes:
#: DS-MoE on Lassen, steps=2, warmup=1, tracing and metrics on.  The
#: stdout JSON excludes the registry-only ``injected.*`` fault rows; the
#: metrics file's ``fault_counts`` includes them.  The metrics hash is
#: taken with the engine's event counters removed (``ENGINE_GAUGES``
#: pins them by value): they count the simulator's own work, which a
#: scheduler change may cut while every simulated value stays put.
GOLDEN_SHA256 = {
    "trace": "e1c1ae249a86bf9bd6f6b1299738ada333c7805110a3e391212e5b567c892935",
    "metrics": "90c4f38e70e20b38c359f814c92ba73112e18329bfb80f2fe4c64d35071b4ebb",
    "stdout": "20249646be63899d6c0b1f25d279a167edc141d0809483631370b8e67479dc08",
}
ENGINE_GAUGES = {
    "engine.events_dispatched": 1515,
    "engine.handoffs": 1296,
    "engine.inline": 218,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_observed_faulty_training_run_files_are_pinned(tmp_path, capsys):
    trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
    rc = cli_main([
        "train", "--world", "8", "--faults", "backend=nccl:transient:prob=0.05",
        "--trace", str(trace), "--metrics", str(metrics),
    ])
    assert rc == 0
    payload = json.loads(metrics.read_text())
    gauges = payload["metrics"]["gauges"]
    engine = {name: gauges.pop(name) for name in ENGINE_GAUGES}
    got = {
        "trace": _sha256(trace.read_bytes()),
        "metrics": _sha256(json.dumps(payload, indent=2, sort_keys=True).encode()),
        "stdout": _sha256(capsys.readouterr().out.encode()),
    }
    assert got == GOLDEN_SHA256
    assert engine == ENGINE_GAUGES


def _run(world=4, **sim_kwargs):
    def main(ctx):
        comm = MCRCommunicator(
            ctx, ["nccl", "mvapich2-gdr"], config=MCRConfig(enable_logging=True)
        )
        x = ctx.virtual_tensor(1 << 16)
        for _ in range(4):
            comm.all_reduce("nccl", x)
            comm.all_reduce("mvapich2-gdr", x, async_op=True).wait()
        comm.finalize()

    return Simulator(world, **sim_kwargs).run(main)


def test_registry_holds_the_logged_rows_not_copies():
    res = _run(
        trace=True, observe=True,
        faults=FaultSpec.parse("seed=3;backend=nccl:transient:prob=0.5"),
    )
    logger = res.shared["comm_logger"]
    log = res.shared["event_log"]
    assert logger.event_log is log and res.tracer.event_log is log
    assert log.registry is res.metrics

    comm = [e for e in res.metrics.events if e.kind == "comm"]
    assert comm and len(comm) == len(logger.records)
    assert all(a is b for a, b in zip(comm, logger.records))
    assert any(r.async_op for r in logger.records)

    # the comm log's fault trail is the registry's fault rows minus the
    # injector's registry-only ``injected.*`` rows
    faults = [e for e in res.metrics.events if e.kind == "fault"]
    handled = [e for e in faults if not e.family.startswith("injected.")]
    assert handled and len(handled) == len(logger.events)
    assert all(a is b for a, b in zip(handled, logger.events))
    assert "injected.transient" in res.metrics.fault_counts()
    assert "injected.transient" not in logger.event_counts()


def test_trace_rows_stay_out_of_the_registry_event_list():
    res = _run(trace=True, observe=True)
    assert res.tracer.records
    assert all(r.kind == "trace" for r in res.tracer.records)
    assert not any(e.kind == "trace" for e in res.metrics.events)
    assert res.metrics.counters["trace.sum_us.comm"] > 0


def test_clear_drops_rows_and_registry_view_in_one_call():
    res = _run(observe=True)
    logger = res.shared["comm_logger"]
    logger.clear()
    assert logger.records == [] and logger.events == []
    assert not any(e.kind in ("comm", "fault") for e in res.metrics.events)
    assert not any(k.startswith("comm.") for k in res.metrics.counters)
    assert not any(k.startswith("comm.") for k in res.metrics.histograms)


def test_no_log_without_tracing_or_logging():
    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        comm.all_reduce("nccl", ctx.virtual_tensor(1024))
        comm.finalize()

    for observe in (False, True):
        res = Simulator(2, observe=observe).run(main)
        assert "event_log" not in res.shared
        assert "comm_logger" not in res.shared
