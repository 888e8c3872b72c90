"""Outside-in per-layer attribution with one global cursor.

``LayerTracer.install()`` replaces each layer's public entry points with
a wrapper that records a span; ``uninstall()`` puts the originals back.
Nothing inside ``src/repro`` is edited: the spans are recorded from the
benchmark's own files, around the calls into each layer (ROADMAP item 2
later replaces these wrappers with in-program counters, keeping the
metric names).

Why a global cursor
-------------------
Ranks are OS threads that hand a baton: exactly one runs at a time.  A
per-thread "duration minus children" self time would charge the whole
time rank A spends parked in ``wait_flag`` — while ranks B, C, ... do
their work — to ``sim.engine``, many times over.  Instead there is one
cursor for the process: at every span enter/exit, on whichever thread,
the wall time since the previous event is charged to the layer on top of
the *logging* thread's stack.  So the interval from rank A entering
``wait_flag`` to rank B leaving its own is charged to ``sim.engine``
(that *is* the handoff), not to A's caller, and the per-layer self times
sum to the traced wall time exactly.
"""

from __future__ import annotations

import inspect
import time
from _thread import get_ident
from typing import Callable

import numpy as np

#: the remainder: time outside every span (the generated programs' own
#: loops, oracle copies, the repetition loop)
HARNESS = "harness"


def _entry_points() -> dict:
    """Layer name -> [(owner, attribute name)], resolved at install time."""
    import repro.bench.sweep as sweep
    from repro.backends import datapath
    from repro.backends.base import Backend
    from repro.bench.sweep import SweepCache
    from repro.cluster.topology import SystemSpec
    from repro.core.comm import MCRCommunicator
    from repro.core.handles import WorkHandle
    from repro.core.tuner import Tuner
    from repro.core.tuning import TuningTable
    from repro.ext.fusion import FusedHandle, TensorFusion
    from repro.ext.logging_ext import CommLogger
    from repro.models import DSMoEModel, Trainer
    from repro.models.plan import CommDriver
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine, Flag
    from repro.sim.process import RankContext
    from repro.sim.simulator import Simulator
    from repro.sim.streams import GPU, Stream

    def methods(owner, *names):
        return [(owner, n) for n in names]

    def public(owner):
        return [
            (owner, n) for n, v in vars(owner).items()
            if not n.startswith("_") and inspect.isfunction(v)
        ]

    return {
        "models": methods(Trainer, "run") + methods(DSMoEModel, "run_step")
        + methods(CommDriver, "__init__") + public(CommDriver),
        # op surface, dispatch and rendezvous are one mixin object today,
        # so from outside they are one layer
        "core": methods(
            MCRCommunicator, "__init__", "all_reduce", "reduce", "bcast",
            "all_gather", "reduce_scatter", "all_to_all_single", "all_to_all",
            "gather", "scatter", "gatherv", "scatterv", "all_gatherv",
            "all_to_allv", "barrier", "send", "recv", "isend", "irecv",
            "synchronize", "finalize",
        ) + methods(WorkHandle, "wait", "synchronize"),
        "core.tuning": methods(TuningTable, "lookup"),
        "core.tuner": methods(Tuner, "measure", "build_table"),
        "backends.cost": methods(
            Backend, "collective_cost_us", "p2p_cost_us", "call_overhead_us"
        ),
        # op_table reaches these through ``datapath.<name>`` attribute
        # lookups, so replacing the module attributes is enough
        "backends.datapath": public(datapath),
        "sim.engine": methods(
            Engine, "run", "add_process", "sleep", "wait_until", "wait_flag",
            "wait_flag_deadline", "new_flag",
        ) + methods(Flag, "fire"),
        "sim.streams": methods(
            Stream, "enqueue", "enqueue_collective_member", "record_event",
            "wait_event", "synchronize",
        ) + methods(GPU, "synchronize"),
        # kernel launches, host sleeps and the tensor factories
        "sim.process": public(RankContext),
        "sim.simulator": methods(Simulator, "__init__", "run"),
        "cluster": methods(SystemSpec, "comm_path", "comm_path_for_ranks"),
        "obs": methods(MetricsRegistry, "observe", "inc", "begin_step", "end_step"),
        "ext.logging_ext": methods(CommLogger, "log", "defer", "log_event"),
        "ext.fusion": methods(TensorFusion, "all_reduce", "flush", "flush_all")
        + methods(FusedHandle, "wait", "synchronize"),
        # Tuner.build_table imports run_sweep from the module at call time
        "bench.sweep": methods(sweep, "run_sweep") + methods(SweepCache, "get", "put"),
    }


#: every layer a traced run reports, in report order
LAYERS = (
    "models", "core", "core.tuning", "core.tuner", "backends.cost",
    "backends.datapath", "sim.engine", "sim.streams", "sim.process", "sim.simulator",
    "cluster", "obs", "ext.logging_ext", "ext.fusion", "bench.sweep", HARNESS,
)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o) for o in obj)
    return 0


class LayerTracer:
    """Spans kept in memory as per-layer sums; read out after the pass."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: counts taken at the same boundaries as the spans
        self.engine_events = 0
        self.datapath_bytes = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plans_resident = 0
        self._stacks: dict[int, list] = {}
        self._cursor = [0]
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, after: "Callable | None" = None):
        clock = time.perf_counter_ns
        stacks, cursor = self._stacks, self._cursor
        self_ns, calls = self.self_ns, self.calls

        def span(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            now = clock()
            self_ns[stack[-1] if stack else HARNESS] += now - cursor[0]
            cursor[0] = now
            stack.append(layer)
            calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if after is not None:
                    after(*args)
                now = clock()
                self_ns[layer] += now - cursor[0]
                cursor[0] = now
                stack.pop()

        span.__wrapped__ = fn
        return span

    # counts recorded where the work happens --------------------------------

    def _after_engine_run(self, engine) -> None:
        self.engine_events += engine.stats()["events_dispatched"]

    def _after_datapath(self, *args) -> None:
        self.datapath_bytes += _array_bytes(args)

    def _after_finalize(self, comm, *_) -> None:
        stats = comm.plan_stats
        self.plan_hits += stats["hits"]
        self.plan_misses += stats["misses"]
        self.plans_resident = max(self.plans_resident, stats["plans"])

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        from repro.backends import datapath
        from repro.core.comm import MCRCommunicator
        from repro.sim.engine import Engine

        hooks = {
            (Engine, "run"): self._after_engine_run,
            (MCRCommunicator, "finalize"): self._after_finalize,
        }
        for layer, points in _entry_points().items():
            for owner, name in points:
                original = vars(owner)[name]
                after = hooks.get((owner, name))
                if owner is datapath:
                    after = self._after_datapath
                setattr(owner, name, self._wrap(original, layer, after))
                self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @staticmethod
    def installed() -> list:
        """Entry points that currently carry a span wrapper."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for points in _entry_points().values()
            for owner, name in points
            if hasattr(vars(owner)[name], "__wrapped__")
        ]

    # -- the traced window (one per repetition) --------------------------------

    def start(self) -> None:
        self._cursor[0] = time.perf_counter_ns()

    def stop(self) -> None:
        """Charge the tail since the last event to the harness."""
        now = time.perf_counter_ns()
        self.self_ns[HARNESS] += now - self._cursor[0]
        self._cursor[0] = now
