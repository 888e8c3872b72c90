"""Golden-trace determinism tests for the scheduler fast paths.

The engine's direct-handoff optimizations (inline continue in
``_Proc.park``, run-ahead in ``wait_until``, the early-return in
``wait_flag``) are only admissible because they never reorder events:
simulated timestamps must be *byte-identical* to the pre-optimization
scheduler.  These tests pin that contract against golden traces that
were captured from the reference (pre-fast-path) engine.

``tests/golden/determinism_traces.json`` holds, for each scenario, the
exact per-rank ``ctx.now`` trace (and for the deadlock scenario, the
exact failure diagnostics).  JSON round-trips Python floats exactly
(``repr`` grammar), so equality below is bit-equality of timestamps.

To regenerate after an *intentional* timing-semantics change::

    PYTHONPATH=src python tests/test_determinism.py --regen

and review the diff — every changed number is a user-visible change in
simulated timing.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import MCRCommunicator
from repro.sim import DeadlockError, Simulator

GOLDEN = pathlib.Path(__file__).parent / "golden" / "determinism_traces.json"


# ----------------------------------------------------------------------
# scenarios: each returns a JSON-serializable structure of simulated
# timestamps.  Keep these byte-stable: any edit invalidates the golden.
# ----------------------------------------------------------------------


def scenario_mixed_flag_heavy() -> dict:
    """Flag-heavy mixed-backend traffic: async collectives on two
    backends, cross-backend waits, p2p, barriers — the pattern that
    exercises every park/handoff path in one program."""

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        trace = []
        x = ctx.zeros(256)
        big = ctx.zeros(256 * ctx.world_size)
        for i in range(5):
            h1 = comm.all_reduce("nccl", x, async_op=True)
            h2 = comm.all_gather("mvapich2-gdr", big, x, async_op=True)
            trace.append(ctx.now)
            h1.wait()
            h2.wait()
            comm.synchronize()
            trace.append(ctx.now)
            if ctx.rank % 2 == 0 and ctx.rank + 1 < ctx.world_size:
                comm.send("nccl", x, ctx.rank + 1, tag=i)
            elif ctx.rank % 2 == 1:
                comm.recv("nccl", x, ctx.rank - 1, tag=i)
            trace.append(ctx.now)
            comm.barrier()
            trace.append(ctx.now)
        comm.finalize()
        return trace

    result = Simulator(8).run(main)
    return {"traces": result.rank_results, "elapsed_us": result.elapsed_us}


def scenario_p2p_with_bystanders() -> dict:
    """Repeated p2p between two ranks while others advance on timers —
    stresses the FIFO tie-break between timer wakes and flag fires."""

    def main(ctx):
        comm = MCRCommunicator(ctx, ["openmpi"])
        t = ctx.ones(64)
        trace = []
        for _ in range(10):
            if ctx.rank == 0:
                comm.send("openmpi", t, 1)
            elif ctx.rank == 1:
                comm.recv("openmpi", t, 0)
            else:
                ctx.sleep(3.0)
            trace.append(ctx.now)
        comm.finalize()
        return trace

    result = Simulator(4).run(main)
    return {"traces": result.rank_results, "elapsed_us": result.elapsed_us}


def scenario_deadlock() -> dict:
    """An asymmetric program (rank 0 skips the collective) must still
    deadlock with identical diagnostics: same blocked-rank reasons and
    the same virtual time of detection."""

    captured: dict = {}

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        x = ctx.zeros(32)
        comm.all_reduce("nccl", x)
        comm.synchronize()
        captured[ctx.rank] = ctx.now
        if ctx.rank != 0:
            # everyone but rank 0 posts a second collective: no full
            # rendezvous can form, every live rank ends up parked
            comm.all_reduce("nccl", x)
            comm.synchronize()
        else:
            comm.finalize()
        return ctx.now

    with pytest.raises(DeadlockError) as err:
        Simulator(4).run(main)
    return {
        "blocked": dict(sorted(err.value.blocked.items())),
        "now_after_first_collective": {
            str(r): t for r, t in sorted(captured.items())
        },
    }


def scenario_megatron_msccl_ws4() -> dict:
    """One Megatron TP=2 step on msccl at 4 ranks (Fig. 10's SCCL column):
    collectives from several communicators share a wire lane, so the
    step time moves if a change reorders when rendezvous resolve — e.g.
    letting the resolving rank run ahead of its dispatch cost."""
    from repro.cluster import thetagpu
    from repro.models import BackendPlan, MegatronDenseModel, Trainer

    result = Trainer(thetagpu(), steps=1, warmup=0).run(
        MegatronDenseModel(), 4, BackendPlan.pure("msccl")
    )
    return {"step_time_us": result.step_time_us, "comm_by_family": result.comm_by_family}


SCENARIOS = {
    "mixed_flag_heavy": scenario_mixed_flag_heavy,
    "p2p_with_bystanders": scenario_p2p_with_bystanders,
    "deadlock": scenario_deadlock,
    "megatron_msccl_ws4": scenario_megatron_msccl_ws4,
}


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN.exists():  # pragma: no cover - repo integrity
        pytest.fail(f"golden file missing: {GOLDEN}; regenerate with --regen")
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, golden):
    fresh = json.loads(json.dumps(SCENARIOS[name]()))
    assert fresh == golden[name], (
        f"simulated timestamps for {name!r} drifted from the reference "
        "scheduler — a fast path reordered events"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_stable_across_reruns(name):
    a = json.loads(json.dumps(SCENARIOS[name]()))
    b = json.loads(json.dumps(SCENARIOS[name]()))
    assert a == b


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_determinism.py --regen")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = {name: json.loads(json.dumps(fn())) for name, fn in SCENARIOS.items()}
    with GOLDEN.open("w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
