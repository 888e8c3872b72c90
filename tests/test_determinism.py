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

import hashlib
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


HIER = "hier:nccl+mvapich2-gdr"


def _digest(tensors) -> str:
    return hashlib.sha256(b"".join(t.data.tobytes() for t in tensors)).hexdigest()


def scenario_hier_ws16() -> dict:
    """Every ``hier:*`` family at ws 16 on lassen, blocking and async, on
    real data.  A 4 KiB async flat nccl op stays in flight across each
    4 KiB composite all_reduce, so a phase that took the parent's stream
    round-robin position would land on another stream.  A host-path
    composite on an ``mpi-managed`` communicator leaves its last phase
    outstanding for the closing named ``synchronize``."""
    from repro.cluster import lassen
    from repro.core import MCRConfig

    def main(ctx):
        ws, rank = ctx.world_size, ctx.rank
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        host = MCRCommunicator(
            ctx, ["nccl", "mvapich2-gdr"], comm_id="host",
            config=MCRConfig(mpi_stream_mode="mpi-managed"),
        )
        trace, outs = [], []
        for async_op in (False, True):
            flat = ctx.full(1024, float(rank))
            handles = [comm.all_reduce("nccl", flat, async_op=True)]
            ar = ctx.full(1024, rank + 1.0)
            handles.append(comm.all_reduce(HIER, ar, async_op=async_op))
            bc = ctx.full(300, float(rank))
            handles.append(comm.bcast(HIER, bc, root=5, async_op=async_op))
            ag = ctx.zeros(7 * ws)
            handles.append(comm.all_gather(HIER, ag, ctx.full(7, float(rank)), async_op=async_op))
            a2a = ctx.zeros(2 * ws)
            src = ctx.tensor([100.0 * rank + j for j in range(2 * ws)])
            handles.append(comm.all_to_all_single(HIER, a2a, src, async_op=async_op))
            trace.append(ctx.now)
            for handle in handles:
                if handle is not None:
                    handle.wait()
            trace.append(ctx.now)
            outs += [flat, ar, bc, ag, a2a]
        rev = ctx.full(4096, rank + 1.0)
        host.all_reduce("hier:mvapich2-gdr+nccl", rev, async_op=True)
        trace.append(ctx.now)
        host.synchronize(["nccl", "mvapich2-gdr"])
        comm.synchronize(["nccl", "mvapich2-gdr"])
        trace.append(ctx.now)
        outs.append(rev)
        host.finalize()
        comm.finalize()
        return {"trace": trace, "sha256": _digest(outs)}

    result = Simulator(16, system=lassen()).run(main)
    return {"ranks": result.rank_results, "elapsed_us": result.elapsed_us}


def scenario_hier_uneven_ws6() -> dict:
    """Uneven placements at ws 6 on lassen (nodes of 4 and 2): the
    leader all_reduce, the AVG flat fallback, the uneven all_gather and
    all_to_all_single fallbacks, an uneven bcast, and an interleaved
    sub-group whose odd-length all_reduce leaves the sharded path."""
    from repro.backends.ops import ReduceOp
    from repro.cluster import lassen

    def main(ctx):
        ws, rank = ctx.world_size, ctx.rank
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        trace = []
        s = ctx.full(1024, rank + 1.0)
        comm.all_reduce(HIER, s)
        trace.append(ctx.now)
        avg = ctx.full(64, rank + 1.0)
        comm.all_reduce(HIER, avg, op=ReduceOp.AVG)
        trace.append(ctx.now)
        ag = ctx.zeros(5 * ws)
        comm.all_gather(HIER, ag, ctx.full(5, float(rank)))
        a2a = ctx.zeros(ws)
        comm.all_to_all_single(HIER, a2a, ctx.tensor([10.0 * rank + j for j in range(ws)]))
        trace.append(ctx.now)
        bc = ctx.full(32, float(rank))
        handle = comm.bcast(HIER, bc, root=4, async_op=True)
        handle.wait()
        trace.append(ctx.now)
        outs = [s, avg, ag, a2a, bc]
        if rank in (0, 4, 1, 5):
            sub = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], comm_id="sub", ranks=[0, 4, 1, 5])
            odd = ctx.full(7, rank + 1.0)
            sub.all_reduce(HIER, odd)
            gat = ctx.zeros(3 * 4)
            sub.all_gather(HIER, gat, ctx.full(3, float(sub.rank)))
            sub.synchronize()
            trace.append(ctx.now)
            outs += [odd, gat]
            sub.finalize()
        comm.synchronize()
        trace.append(ctx.now)
        comm.finalize()
        return {"trace": trace, "sha256": _digest(outs)}

    result = Simulator(6, system=lassen()).run(main)
    return {"ranks": result.rank_results, "elapsed_us": result.elapsed_us}


def scenario_hier_faults_ws8() -> dict:
    """Composites under faults at ws 8 on lassen: nccl fails permanently
    at op 2 of every scope and mvapich2-gdr faults transiently, so phase
    groups quarantine and fail over on their own while the parent does
    too.  Rows whose detail starts ``inherited``/``parent:`` (copies of
    the parent's quarantines) are left out."""
    from repro.cluster import lassen
    from repro.sim.faults import FaultSpec

    faults = FaultSpec.parse(
        "seed=11;backend=nccl:permanent:at=2;backend=mvapich2-gdr:transient:prob=0.3"
    )

    def main(ctx):
        ws, rank = ctx.world_size, ctx.rank
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr", "ucc"])
        trace, outs = [], []
        for i in range(4):
            x = ctx.full(256, rank + 1.0 + i)
            comm.all_reduce(HIER, x)
            y = ctx.full(64, float(rank))
            comm.all_reduce("nccl", y)
            g = ctx.zeros(3 * ws)
            handle = comm.all_gather(HIER, g, ctx.full(3, float(rank + i)), async_op=True)
            handle.wait()
            b = ctx.full(16, float(rank))
            comm.bcast(HIER, b, root=i % ws)
            trace.append(ctx.now)
            outs += [x, y, g, b]
        comm.synchronize()
        trace.append(ctx.now)
        comm.finalize()
        return {"trace": trace, "sha256": _digest(outs)}

    result = Simulator(8, system=lassen(), faults=faults).run(main)
    # per rank, in the order logged: ranks log at one instant in tie order
    rows: list[list] = [[] for _ in range(8)]
    for e in result.shared["comm_logger"].events:
        if not e.detail.startswith(("inherited", "parent:")):
            rows[e.rank].append([e.family, e.backend, e.start, e.detail])
    return {"ranks": result.rank_results, "elapsed_us": result.elapsed_us, "faults": rows}


SCENARIOS = {
    "mixed_flag_heavy": scenario_mixed_flag_heavy,
    "p2p_with_bystanders": scenario_p2p_with_bystanders,
    "deadlock": scenario_deadlock,
    "megatron_msccl_ws4": scenario_megatron_msccl_ws4,
    "hier_ws16": scenario_hier_ws16,
    "hier_uneven_ws6": scenario_hier_uneven_ws6,
    "hier_faults_ws8": scenario_hier_faults_ws8,
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
