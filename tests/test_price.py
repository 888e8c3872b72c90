"""One price per cell: every client prices a collective through
:func:`repro.backends.base.price_us` and its one backend cache.

* the source tree calls ``Backend.collective_cost_us`` from one place,
  ``price_us`` itself, so no client composes the price on its own, and
  ``_compile_plan`` from one, ``DispatchLayer._plan``, so every plan a
  post runs is an indexed one;
* ``clear_cost_caches`` really drops every cached cost: a cost-query
  backend built before the clear would keep serving pre-clear costs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends.base import backend_class, clear_cost_caches
from repro.backends.hierarchical import hier_collective_cost_us, parse_hier
from repro.backends.ops import OpFamily
from repro.bench.microbench import omb_latency_us
from repro.cluster import lassen

from .lint_harness import method_calls

#: the one (file, enclosing function) allowed to call collective_cost_us
_PRICER = ("src/repro/backends/base.py", "price_us")


def test_one_place_prices_a_collective():
    found = method_calls("collective_cost_us")
    strays = [hit for hit in found if hit[:2] != _PRICER]
    assert strays == [], "price a collective through price_us"
    assert [hit[:2] for hit in found] == [_PRICER]


def test_one_place_compiles_a_plan():
    """Every plan a post runs, a fault-gate reroute's and an epsilon
    trial's included, comes from the group's plan index: only
    ``DispatchLayer._plan`` compiles one."""
    found = method_calls("_compile_plan")
    assert [hit[:2] for hit in found] == [("src/repro/core/dispatch.py", "_plan")]


def _doubled_bandwidth(tuning):
    """nccl's calibration with every per-byte multiplier doubled."""
    ops = {
        key: dataclasses.replace(op, bandwidth_x=2.0 * op.bandwidth_x)
        for key, op in tuning.ops.items()
    }
    default = dataclasses.replace(
        tuning.default, bandwidth_x=2.0 * tuning.default.bandwidth_x
    )
    return dataclasses.replace(tuning, ops=ops, default=default)


#: one 1 MiB allreduce at world size 16 on lassen, priced flat (the OMB
#: reference) and as a composite; (before, after) doubling nccl's
#: per-byte multipliers
_CELL = (OpFamily.ALLREDUCE, 1 << 20, 16)
_HIER = parse_hier("hier:nccl+mvapich2-gdr")


@pytest.mark.parametrize(
    "price, before, after",
    [
        (lambda system: omb_latency_us(system, "nccl", *_CELL), 332.25, 633.14),
        (lambda system: hier_collective_cost_us(system, _HIER, *_CELL), 102.18, 123.96),
    ],
    ids=["omb", "composite"],
)
def test_clear_cost_caches_drops_cached_backends(monkeypatch, price, before, after):
    system = lassen()
    assert price(system) == pytest.approx(before, abs=0.01)

    cls = backend_class("nccl")
    monkeypatch.setattr(cls, "tuning", _doubled_bandwidth(cls.tuning))
    clear_cost_caches()
    try:
        # a system never priced before builds fresh backends: the truth
        fresh = price(lassen())
        assert fresh == pytest.approx(after, abs=0.01)
        assert price(system) == fresh
    finally:
        monkeypatch.undo()
        clear_cost_caches()


@pytest.mark.parametrize("late", [0, 1])
def test_mixed_blocking_posts_price_alike_whoever_resolves(late):
    """Rank 0 posts an all-reduce non-blocking, rank 1 blocking.  The
    transfer is priced non-blocking because a member posted so, not
    because the resolving (last-arriving) rank did: which rank comes
    last must not move the duration."""
    from repro.core import MCRCommunicator
    from repro.sim import Simulator

    def main(ctx):
        comm = MCRCommunicator(ctx, ["nccl"])
        if ctx.rank == late:
            ctx.sleep(500.0)
        handle = comm.all_reduce("nccl", ctx.virtual_tensor(65536), async_op=ctx.rank == 0)
        if handle is not None:
            handle.synchronize()
        comm.finalize()

    assert round(Simulator(2).run(main).elapsed_us, 3) == 546.197
