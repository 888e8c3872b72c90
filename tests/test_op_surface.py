"""The descriptor-driven op surface (core/comm.py + core/op_table.py).

Pins three contracts of the layered core:

* **one spelling of Listing 1** — each op is written once, as an
  :class:`MCRCommunicator` method; ``repro.core.api``'s wrappers
  forward to it with the same parameters, and the ``CommCore``
  protocol declares no op at all (its own members match the
  communicator's), checked by :func:`surface_drift`;
* **uniform pre-dispatch hook chain** — ``retuner.before_op`` fires for
  *every* collective family (historically it was hand-inlined into the
  4 hier-capable ops only), and routing every family through the shared
  chain leaves healthy-path simulated time byte-identical;
* **barrier default backend** — ``barrier(backend=None)`` picks
  ``next(iter(self.backends))``, i.e. deterministic constructor
  insertion order, and a quarantined default reroutes to a survivor
  instead of raising.
"""

import inspect
from types import FunctionType, SimpleNamespace

import numpy as np

from repro.backends.ops import ReduceOp
from repro.core import MCRCommunicator, MCRConfig, api, op_table
from repro.core.config import AdaptiveConfig
from repro.core.protocols import CommCore
from repro.sim import Simulator
from repro.sim.faults import BackendFault, FaultSpec

BACKENDS = ["nccl", "mvapich2-gdr"]


def _post_every_family(ctx, comm, backend="nccl"):
    """Post one collective of every family (world_size=2); returns the
    number posted and a data tensor whose final contents depend on most
    of them."""
    world = 2
    x = ctx.full(4, float(ctx.rank + 1))
    pair = ctx.zeros(4 * world)
    comm.all_reduce(backend, x)
    comm.reduce(backend, x, root=0)
    comm.bcast(backend, x, root=0)
    comm.all_gather(backend, pair, x)
    comm.reduce_scatter(backend, x, pair)
    comm.all_to_all_single(backend, pair, pair)
    comm.all_to_all(backend, [ctx.zeros(4), ctx.zeros(4)], [x, x])
    comm.gather(backend, x, pair if ctx.rank == 0 else None, root=0)
    comm.scatter(backend, x, pair if ctx.rank == 0 else None, root=0)
    comm.gatherv(backend, x, pair if ctx.rank == 0 else None, rcounts=[4, 4], root=0)
    comm.scatterv(backend, x, pair if ctx.rank == 0 else None, scounts=[4, 4], root=0)
    comm.all_gatherv(backend, pair, x, rcounts=[4, 4])
    comm.all_to_allv(backend, pair, pair, scounts=[4, 4], rcounts=[4, 4])
    comm.barrier(backend)
    comm.synchronize()
    return 14, x.data.copy()


class TestUniformHookChain:
    def test_pre_op_accounting_sees_every_family(self):
        """before_op increments the retuner's op index exactly once per
        posted collective — including reduce_scatter, reduce, and the
        vectored ops the old hand-inlined chain skipped."""

        def main(ctx):
            comm = MCRCommunicator(
                ctx,
                BACKENDS,
                config=MCRConfig(adaptive=AdaptiveConfig(enabled=True)),
            )
            posted, _ = _post_every_family(ctx, comm)
            snap = comm.retuner.snapshot()
            comm.finalize()
            return posted, snap["ops"]

        results = Simulator(2).run(main).rank_results
        for posted, ops in results:
            assert ops == posted == 14
        # symmetric accounting: every rank counted identically
        assert len({ops for _, ops in results}) == 1

    def test_vectored_and_reduce_families_counted_individually(self):
        def main(ctx):
            comm = MCRCommunicator(
                ctx,
                BACKENDS,
                config=MCRConfig(adaptive=AdaptiveConfig(enabled=True)),
            )
            x = ctx.full(4, 1.0)
            pair = ctx.zeros(8)
            before = comm.retuner.snapshot()["ops"]
            comm.reduce("nccl", x, root=0)
            comm.reduce_scatter("nccl", x, pair)
            comm.gatherv("nccl", x, pair if ctx.rank == 0 else None, rcounts=[4, 4])
            comm.all_to_allv("nccl", pair, pair, scounts=[4, 4], rcounts=[4, 4])
            comm.synchronize()
            after = comm.retuner.snapshot()["ops"]
            comm.finalize()
            return after - before

        for delta in Simulator(2).run(main).rank_results:
            assert delta == 4

    def test_healthy_path_time_identity_with_adaptive_enabled(self):
        """Routing every family through the shared hook chain must not
        move healthy-path simulated time: adaptive-on (epsilon=0, no
        drift) and adaptive-off runs are byte-identical."""

        def job(adaptive):
            def main(ctx):
                config = MCRConfig()
                if adaptive:
                    config.adaptive = AdaptiveConfig(enabled=True)
                comm = MCRCommunicator(ctx, BACKENDS, config=config)
                _, data = _post_every_family(ctx, comm)
                comm.finalize()
                return ctx.now, data

            return Simulator(2).run(main)

        on, off = job(True), job(False)
        assert on.elapsed_us == off.elapsed_us
        for (t_on, d_on), (t_off, d_off) in zip(on.rank_results, off.rank_results):
            assert t_on == t_off
            assert np.array_equal(d_on, d_off)


class TestBarrierDefault:
    def _barrier_backend(self, backends, faults=None):
        """Run one default-backend barrier under logging; return
        (recorded barrier backends, quarantined sets) per rank."""

        def main(ctx):
            comm = MCRCommunicator(
                ctx, backends, config=MCRConfig(enable_logging=True)
            )
            comm.barrier()
            comm.synchronize()
            quarantined = sorted(comm.health.quarantined)
            comm.finalize()
            return quarantined

        sim = Simulator(2, faults=faults) if faults else Simulator(2)
        res = sim.run(main)
        logger = res.shared["comm_logger"]
        barrier_backends = {r.backend for r in logger.records if r.family == "barrier"}
        return barrier_backends, res.rank_results

    def test_default_is_first_inserted_backend(self):
        used, _ = self._barrier_backend(["mvapich2-gdr", "nccl"])
        assert used == {"mvapich2-gdr"}
        used, _ = self._barrier_backend(["nccl", "mvapich2-gdr"])
        assert used == {"nccl"}

    def test_quarantined_default_reroutes_instead_of_raising(self):
        """With the insertion-order default permanently faulted, the
        barrier must fail over to the surviving backend."""
        faults = FaultSpec(
            backend_faults=(
                BackendFault(backend="mvapich2-gdr", kind="permanent", at_op=1),
            ),
        )
        used, quarantines = self._barrier_backend(["mvapich2-gdr", "nccl"], faults)
        assert used == {"nccl"}
        for quarantined in quarantines:
            assert "mvapich2-gdr" in quarantined


#: the p2p calls, which have no op-table row
P2P = ("send", "recv", "isend", "irecv")
#: second spellings of a collective, and the lifecycle calls the
#: module-level API forwards to the communicator
ALIASES = ("broadcast", "all_gather_base")
FORWARDS = ("finalize", "synchronize", "get_backends", "get_size", "get_rank", "invalidate_plans")


def op_names() -> list[str]:
    """Every op of Listing 1: one per op-table row, then the p2p calls."""
    rows = [v.name for v in vars(op_table).values() if isinstance(v, op_table.CollectiveSpec)]
    return rows + list(P2P)


def _params(fn, skip: int = 0) -> list[tuple]:
    """A signature as (name, kind, default) per parameter; annotations
    are not compared."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return [(p.name, p.kind, p.default) for p in params]


def surface_drift(module=api, protocol=CommCore) -> list[str]:
    """Every way ``module``'s wrappers or ``protocol``'s declarations
    disagree with the :class:`MCRCommunicator` methods (empty = none)."""
    problems = []
    for name in (*op_names(), *ALIASES, *FORWARDS):
        method, wrapper = getattr(MCRCommunicator, name, None), getattr(module, name, None)
        if not inspect.isfunction(method):
            problems.append(f"{name}: no MCRCommunicator method")
        elif not inspect.isfunction(wrapper):
            problems.append(f"{name}: no api function")
        elif _params(wrapper) != _params(method, skip=1):
            problems.append(f"{name}: api{inspect.signature(wrapper)} != method{inspect.signature(method)}")
    declared = {
        name: member for name, member in vars(protocol).items()
        if not name.startswith("__") and isinstance(member, (property, FunctionType))
    }
    for name in {*op_names(), *ALIASES} & {*declared, *getattr(protocol, "__annotations__", {})}:
        problems.append(f"{name}: {protocol.__name__} declares an op of the op surface")
    for name, member in declared.items():
        ours = inspect.getattr_static(MCRCommunicator, name, None)
        if isinstance(member, property):
            if not isinstance(ours, property):
                problems.append(f"{name}: not an MCRCommunicator property")
        elif not inspect.isfunction(ours):
            problems.append(f"{name}: no MCRCommunicator method")
        elif _params(member) != _params(ours):
            problems.append(
                f"{name}: {protocol.__name__}{inspect.signature(member)} != "
                f"method{inspect.signature(ours)}"
            )
    return problems


class TestOneSpelling:
    def test_tree_has_no_drift(self):
        assert surface_drift() == []

    def test_every_row_and_p2p_call_is_covered(self):
        names = op_names()
        assert {"all_reduce", "all_to_allv", "barrier", *P2P} <= set(names)
        assert len(names) == len(set(names))

    def test_injected_wrapper_drift_is_reported(self):
        def all_reduce(backend, tensor, op=ReduceOp.SUM, async_op=True):
            raise AssertionError("never called")

        def gatherv(backend, input, output=None, displs=None, rcounts=None, root=0, async_op=False):
            raise AssertionError("never called")

        module = SimpleNamespace(**{**vars(api), "all_reduce": all_reduce, "gatherv": gatherv})
        del module.irecv
        problems = surface_drift(module)
        assert [p.split(":")[0] for p in problems] == ["all_reduce", "gatherv", "irecv"], problems

    def test_injected_protocol_drift_is_reported(self):
        class Drifted:
            sync: object
            all_gather: object

            def all_reduce(self, backend, tensor): ...

            def _post(self, *args, **kwargs): ...

            @property
            def get_size(self): ...

        problems = sorted(p.split(":")[0] for p in surface_drift(protocol=Drifted))
        assert problems == ["_post", "all_gather", "all_reduce", "all_reduce", "get_size"], problems
