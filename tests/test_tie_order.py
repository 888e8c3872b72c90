"""Results under a permuted tie order (ROADMAP item 1).

Events at equal simulated times pop by ``(time, tie key, sequence)``,
and the tie key of each process comes from one factory,
``repro.sim.engine.tie_keys`` (the process index).  Two seeded
adversaries rerun the determinism programs, the ``hier_allreduce`` and
``adaptive_degraded_link`` ledger scenarios and a real-data program:

* ``permutation`` swaps in a permutation of the process indices, so
  one process order holds for the whole run;
* ``per_entry`` patches ``Engine._schedule`` here to draw a random tie
  key for every heap entry, so equal-time events may pop in any order.

Data identity and deadlock-freedom must hold under every order, and so
must simulated time on every case here.  A case whose time is known to
move goes in ``MOVES`` as a strict xfail naming why, so a change that
makes it order-free turns it red until the entry goes.
"""

from __future__ import annotations

import json
import pathlib
import random
from heapq import heappush

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

_LANES = (
    "wire-lane admission follows engine order: two transfers ready at one "
    "instant take the lane in the order their resolving ranks run "
    "(ROADMAP item 1(c))"
)
#: (adversary, program, seed) cases whose simulated times move with the
#: tie order, each with the reason
MOVES: dict[tuple[str, str, int], str] = {
    ("per_entry", name, seed): _LANES
    for name in ("megatron_msccl_ws4", "hier_allreduce", "adaptive_degraded_link")
    for seed in SEEDS
}


def _permutation(mp: pytest.MonkeyPatch, seed: int) -> None:
    def tie_keys(n: int) -> list[int]:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        return order

    mp.setattr(engine_mod, "tie_keys", tie_keys)


def _per_entry(mp: pytest.MonkeyPatch, seed: int) -> None:
    rng = random.Random(seed)

    def _schedule(self, time: float, proc) -> None:
        heappush(self._heap, (time, rng.random(), next(self._seq), proc, proc.epoch))

    mp.setattr(engine_mod.Engine, "_schedule", _schedule)


ADVERSARIES = {"permutation": _permutation, "per_entry": _per_entry}


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


@pytest.fixture(
    scope="module",
    params=[(a, seed) for a in ADVERSARIES for seed in SEEDS],
    # the permutation's cases keep their bare-seed ids
    ids=lambda p: str(p[1]) if p[0] == "permutation" else f"{p[0]}-{p[1]}",
)
def permuted(request) -> tuple[str, int, dict]:
    """``(adversary, seed, {program: result})`` under a seeded tie order."""
    adversary, seed = request.param
    with pytest.MonkeyPatch.context() as mp:
        ADVERSARIES[adversary](mp, seed)
        results = {name: json.loads(json.dumps(fn())) for name, fn in SCENARIOS.items()}
        results.update({name: fn() for name, fn in LEDGER_SCENARIOS.items()})
        results["real_data"] = _real_data()
    return adversary, seed, results


def test_data_identity_and_deadlock_freedom(permuted):
    _, _, results = permuted
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
    adversary, seed, results = permuted
    reason = MOVES.get((adversary, name, seed))
    if reason is not None:
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    if name in LEDGER_SCENARIOS:
        expected = perfregress.fingerprint(perfregress.load(str(LEDGER))[name])
        assert perfregress.fingerprint(results[name]) == expected
    else:
        assert results[name] == json.loads(GOLDEN.read_text())[name]
