"""Results under a permuted tie order (ROADMAP item 1).

Events at equal simulated times pop by ``(time, tie key, sequence)``,
and the tie key of each process comes from one factory,
``repro.sim.engine.tie_keys`` (the process index).  Each case here swaps
in a seeded permutation of the process indices and reruns the
determinism programs, the ``hier_allreduce`` and
``adaptive_degraded_link`` ledger scenarios and a real-data program.

Data identity and deadlock-freedom must hold under every order, and so
must simulated time on every case here.  A case whose time is known to
move goes in ``MOVES`` as a strict xfail naming why, so a change that
makes it order-free turns it red until the entry goes; the table is
empty today.
"""

from __future__ import annotations

import json
import pathlib
import random

import numpy as np
import pytest

import repro.sim.engine as engine_mod
from repro.bench import perfregress
from repro.cluster import lassen
from repro.core import MCRCommunicator
from repro.sim import Simulator

from .test_determinism import GOLDEN, SCENARIOS

SEEDS = (1, 2, 3)
LEDGER = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
LEDGER_SCENARIOS = {
    "hier_allreduce": perfregress.hier_allreduce,
    "adaptive_degraded_link": perfregress.adaptive_degraded_link,
}

#: (program, seed) pairs whose simulated times move with the tie order,
#: each with the reason; none is known today
MOVES: dict[tuple[str, int], str] = {}


def _permutation(seed: int):
    def tie_keys(n: int) -> list[int]:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        return order

    return tie_keys


def _real_data() -> list:
    """Mixed backends, a hier composite, async waits and a p2p ring on
    real tensors; every output is checked against NumPy."""

    def main(ctx):
        ws, rank = ctx.world_size, ctx.rank
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
        hier = ctx.full(4096, rank + 1.0)
        comm.all_reduce("hier:nccl+mvapich2-gdr", hier)
        flat = ctx.full(1 << 16, rank + 1.0)
        gathered = ctx.zeros(256 * ws)
        h1 = comm.all_reduce("nccl", flat, async_op=True)
        h2 = comm.all_gather("mvapich2-gdr", gathered, ctx.full(256, float(rank)), async_op=True)
        h1.wait()
        h2.wait()
        got = ctx.zeros(512)
        comm.isend("nccl", ctx.full(512, float(rank)), (rank + 1) % ws)
        comm.irecv("nccl", got, (rank - 1) % ws)
        comm.synchronize()
        out = [t.data.copy() for t in (hier, flat, gathered, got)]
        comm.finalize()
        return out

    return Simulator(8, system=lassen()).run(main).rank_results


@pytest.fixture(scope="module", params=SEEDS)
def permuted(request) -> tuple[int, dict]:
    """``(seed, {program: result})`` with the tie order permuted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "tie_keys", _permutation(request.param))
        results = {name: json.loads(json.dumps(fn())) for name, fn in SCENARIOS.items()}
        results.update({name: fn() for name, fn in LEDGER_SCENARIOS.items()})
        results["real_data"] = _real_data()
    return request.param, results


def test_data_identity_and_deadlock_freedom(permuted):
    _, results = permuted
    ws = 8
    for rank, (hier, flat, gathered, got) in enumerate(results["real_data"]):
        total = sum(range(1, ws + 1))
        assert np.array_equal(hier, np.full(4096, total, np.float32))
        assert np.array_equal(flat, np.full(1 << 16, total, np.float32))
        assert np.array_equal(gathered, np.repeat(np.arange(ws, dtype=np.float32), 256))
        assert np.array_equal(got, np.full(512, (rank - 1) % ws, np.float32))
    # every program ran to the end; the asymmetric one still deadlocks
    # with the same diagnostics
    golden = json.loads(GOLDEN.read_text())
    assert results["deadlock"]["blocked"] == golden["deadlock"]["blocked"]
    for name in ("mixed_flag_heavy", "p2p_with_bystanders"):
        traces = results[name]["traces"]
        assert len(traces) == len(golden[name]["traces"])
        assert [len(t) for t in traces] == [len(t) for t in golden[name]["traces"]]


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), *sorted(LEDGER_SCENARIOS)])
def test_simulated_time_identity(permuted, name, request):
    seed, results = permuted
    if (name, seed) in MOVES:
        request.applymarker(pytest.mark.xfail(strict=True, reason=MOVES[name, seed]))
    if name in LEDGER_SCENARIOS:
        expected = perfregress.fingerprint(perfregress.load(str(LEDGER))[name])
        assert perfregress.fingerprint(results[name]) == expected
    else:
        assert results[name] == json.loads(GOLDEN.read_text())[name]
