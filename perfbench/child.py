"""One measuring subprocess of the benchmark.

``run.py`` starts this file once per measurement with one JSON job as
its only argument and reads one JSON object from the last line of its
standard output.  The process pins itself to one CPU *before* importing
``numpy`` or ``repro``: the engine's baton protocol runs exactly one
thread at a time, so one core is the honest setting — unpinned, the
kernel may wake the next rank thread on the other core and the same
repetition takes 3-4x longer (see README).

Modes: ``timed`` (set-up, warm-up, timed repetitions), ``traced`` (plain
then traced repetitions, per-layer attribution), ``layers`` (direct
layer timings), ``handoff`` (the engine handoff loop only, used unpinned).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def pin() -> "int | None":
    """Pin this process to the first CPU it is allowed on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError) as exc:
        print(
            f"perfbench: WARNING: cannot pin to one CPU ({exc!r}); wall-clock "
            "numbers from this run measure the scheduler, not the program",
            file=sys.stderr,
        )
        return None


class Reps:
    """Closed-loop repetitions of one workload's fixed program."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        #: a LayerTracer whose window opens and closes with each
        #: repetition's clock, so checking outputs is not attributed
        self.tracer = tracer
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: simulated time of the first repetition; every later one must
        #: repeat it bit for bit
        self.sim_us: "float | None" = None
        self.last = None

    def one(self, timed: bool = True) -> None:
        ops = self.workload.ops_per_rep
        gc.collect()
        if self.tracer is not None:
            self.tracer.start()
        start = time.perf_counter()
        try:
            rep = self.workload.rep()
        except Exception:  # a raising or deadlocked program fails all its ops
            traceback.print_exc()
            rep = None
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.stop()
        self.attempted += ops
        if rep is None:
            self.failed += ops
            return
        if self.sim_us is None:
            self.sim_us = rep.sim_us
        if rep.sim_us != self.sim_us:
            print(
                f"perfbench: simulated time moved between repetitions: "
                f"{self.sim_us!r} -> {rep.sim_us!r}", file=sys.stderr,
            )
            self.failed += ops
        elif rep.check is not None:
            self.failed += rep.check()
        rep.check = None  # lets go of the outputs it holds
        self.last = rep
        if timed:
            self.walls.append(wall)

    def loop(self, seconds: float, min_reps: int = 2) -> float:
        """Repeat for ``seconds``; returns the window's process CPU / wall."""
        start, cpu = time.perf_counter(), time.process_time()
        while len(self.walls) < min_reps or time.perf_counter() - start < seconds:
            self.one()
        return (time.process_time() - cpu) / (time.perf_counter() - start)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(job: dict) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]](job["seed"])
    reps = Reps(workload)
    reps.one(timed=False)  # warm-up: caches fill, lazy imports finish
    setup_s = time.time() - job["spawned_at"]
    cpu_frac = reps.loop(job["seconds"])
    out = {
        "setup_s": setup_s,
        "walls": reps.walls,
        "ops_per_rep": workload.ops_per_rep,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "sim_us": reps.sim_us,
        "cpu_frac": cpu_frac,
        "rss_mb": _rss_mb(),
    }
    if job.get("side_runs") and reps.last is not None:
        out["mix_gain"] = workload.mix_gain(reps.last)
    return out


def run_traced(job: dict) -> dict:
    from tracer import HARNESS, LAYERS, LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]](job["seed"])
    plain = Reps(workload)
    plain.one(timed=False)
    cpu_frac = plain.loop(job["seconds"] / 2)

    tracer = LayerTracer()
    traced = Reps(workload, tracer)
    tracer.install()
    try:
        traced.loop(job["seconds"] / 2)
    finally:
        tracer.uninstall()
    leftover = LayerTracer.installed()
    n = len(traced.walls)

    failed = plain.failed + traced.failed
    if traced.sim_us != plain.sim_us or leftover:
        print(
            f"perfbench: traced pass changed the program: sim {plain.sim_us!r} -> "
            f"{traced.sim_us!r}, wrappers left {leftover}", file=sys.stderr,
        )
        failed += traced.attempted
    observed = workload.rep(observe=True)
    if observed.sim_us != plain.sim_us:
        failed += workload.ops_per_rep

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_rep"] = tracer.self_ns[layer] / 1e6 / n
        if layer != HARNESS:
            metrics[f"{layer}.calls_per_rep"] = tracer.calls[layer] / n
    posts = tracer.plan_hits + tracer.plan_misses
    metrics.update({
        "sim.engine.events_per_rep": tracer.engine_events / n,
        "core.dispatch.plan_hit_rate": tracer.plan_hits / posts if posts else 0.0,
        "core.dispatch.plans_resident": tracer.plans_resident,
        "obs.events_per_rep": observed.obs_events,
        "backends.datapath.bytes_per_rep": tracer.datapath_bytes / n,
        "harness.trace_overhead_frac": (
            statistics.median(traced.walls) / statistics.median(plain.walls) - 1.0
        ),
        "harness.cpu_frac": cpu_frac,
    })
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted + workload.ops_per_rep,
        "failed": failed,
        "sim_us": plain.sim_us,
        "traced_reps": n,
        "traced_wall_s": sum(traced.walls),
        "self_sum_s": sum(tracer.self_ns.values()) / 1e9,
        "wrappers_left": leftover,
    }


def run_layers(job: dict) -> dict:
    import layers

    return {"metrics": layers.measure(quick=job.get("quick", False))}


def run_handoff(job: dict) -> dict:
    import layers

    return {"handoff_us": layers.engine_handoff_us()}


MODES = {
    "timed": run_timed, "traced": run_traced,
    "layers": run_layers, "handoff": run_handoff,
}


def main() -> int:
    job = json.loads(sys.argv[1])
    pinned = pin() if job.get("pin", True) else None
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    out = MODES[job["mode"]](job)
    out["pinned_cpu"] = pinned
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
