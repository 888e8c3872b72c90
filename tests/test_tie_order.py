"""Results under a permuted tie order (ROADMAP item 1).

Events at equal simulated times pop by ``(time, tie key, sequence)``,
and the tie key of each process comes from one factory,
``repro.sim.engine.tie_keys`` (the process index).  Two seeded
adversaries rerun the determinism programs, every ledger scenario but
the two tuning sweeps and a real-data program, each program under a
fresh adversary:

* ``permutation`` swaps in a permutation of the process indices, so
  one process order holds for the whole run;
* ``per_entry`` patches ``Engine._schedule`` here to draw a random tie
  key for every heap entry, so equal-time events may pop in any order.

Data identity and deadlock-freedom must hold under every order, and so
must simulated time (a ledger row's ``sim_*`` values) on every case
here.  The two heaviest ledger scenarios run under the first seed only
(:data:`ONE_SEED`).  A case whose time is known to
move goes in ``MOVES`` as a strict xfail naming why, so a change that
makes it order-free turns it red until the entry goes.
"""

from __future__ import annotations

import functools
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
#: every ledger scenario but the two tuning sweeps
LEDGER_SCENARIOS = {
    name: perfregress.SCENARIOS[name]
    for name in (
        "engine_events",
        "allreduce_ws16",
        "allreduce_ws64",
        "allreduce_ws128",
        "dispatch_cache",
        "hier_allreduce",
        "adaptive_degraded_link",
        "dsmoe_step",
        "tuned_step",
        "obs_overhead",
    )
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


def _simulated(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


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


#: the heaviest ledger scenarios run under the first seed only, which
#: keeps this file under 10 s
ONE_SEED = ("dsmoe_step", "obs_overhead")
ORDERS = [(a, seed) for a in ADVERSARIES for seed in SEEDS]


def _runs_under(name: str, seed: int) -> bool:
    return name not in ONE_SEED or seed == SEEDS[0]


def _order_id(order: tuple[str, int]) -> str:
    # the permutation's cases keep their bare-seed ids
    adversary, seed = order
    return str(seed) if adversary == "permutation" else f"{adversary}-{seed}"


@functools.cache
def _under(order: tuple[str, int]) -> dict:
    """``{program: result}`` under the seeded tie order ``order``."""
    adversary, seed = order

    def run(fn):
        # each program gets its own adversary, so its order does not
        # depend on which programs ran before it
        with pytest.MonkeyPatch.context() as mp:
            ADVERSARIES[adversary](mp, seed)
            return fn()

    results = {name: json.loads(json.dumps(run(fn))) for name, fn in SCENARIOS.items()}
    results.update(
        {name: run(fn) for name, fn in LEDGER_SCENARIOS.items() if _runs_under(name, seed)}
    )
    results["real_data"] = run(_real_data)
    return results


@pytest.fixture(scope="module", autouse=True)
def _forget_results():
    yield
    _under.cache_clear()


@pytest.mark.parametrize("order", ORDERS, ids=_order_id)
def test_data_identity_and_deadlock_freedom(order):
    results = _under(order)
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


CASES = [
    (order, name)
    for order in ORDERS
    for name in (*sorted(SCENARIOS), *sorted(LEDGER_SCENARIOS))
    if _runs_under(name, order[1])
]


@pytest.mark.parametrize(
    "order, name", CASES, ids=[f"{_order_id(order)}-{name}" for order, name in CASES]
)
def test_simulated_time_identity(order, name, request):
    adversary, seed = order
    results = _under(order)
    reason = MOVES.get((adversary, name, seed))
    if reason is not None:
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    if name in LEDGER_SCENARIOS:
        # the simulated values only: a row's ``det_*`` handoff counts are
        # the engine's pop order, which the adversary changes by design
        expected = perfregress.load(str(LEDGER))[name]
        assert _simulated(results[name]) == _simulated(expected)
    else:
        assert results[name] == json.loads(GOLDEN.read_text())[name]
