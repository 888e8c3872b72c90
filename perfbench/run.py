"""The repo's benchmark: two clocks, five workloads, one command.

Driver form (one run of one workload, the contract in ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object on the last line of stdout: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.

Suite form (every workload, both passes, every metric by name)::

    python3 perfbench/run.py [--runs N] [--seconds S] [--quick] [--out FILE]

prints a table and writes a result file ``compare.py`` can read.

All measuring happens in pinned child processes (``child.py``); this
file only starts them one at a time, waits for each, and aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: fresh pinned subprocesses per timed run: each pays set-up once, so
#: ``setup_s`` is a median of this many set-ups
CHILDREN = 3
#: a child whose process CPU / wall falls below this shared its core
NOISY_CPU_FRAC = 0.9
MAX_RERUNS = 2
#: a child normally ends in under 15 s; a hung one must not carry the
#: run past the driver's 180 s limit
CHILD_TIMEOUT_S = 55


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(job: dict) -> dict:
    """Run one child to completion and return the JSON it printed."""
    job = dict(job, spawned_at=time.time())
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {job['mode']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return {"n": n, "percentile": None, "wall_s": None}
    return {
        "n": n,
        "percentile": round(100.0 * (n - 10) / n, 1),
        "wall_s": sorted(walls)[n - 11],
    }


def measure_timed(workload: str, seed: int, seconds: float, children: int = CHILDREN) -> dict:
    """One end-to-end run: ``children`` pinned subprocesses, tracing off."""
    kept, every, reruns = [], [], 0
    for k in range(children):
        job = {
            "mode": "timed", "workload": workload, "seed": seed,
            "seconds": seconds / children, "side_runs": k == children - 1,
        }
        while True:
            out = spawn(job)
            noisy = out["cpu_frac"] < NOISY_CPU_FRAC
            every.append({"cpu_frac": out["cpu_frac"], "reps": len(out["walls"]), "noisy": noisy})
            if not noisy or reruns == MAX_RERUNS:
                break
            reruns += 1
            log(f"perfbench: {workload}: noisy child (cpu_frac {out['cpu_frac']:.2f}), rerunning")
        kept.append(out)

    walls = [w for out in kept for w in out["walls"]]
    attempted = sum(out["attempted"] for out in kept)
    failed = sum(out["failed"] for out in kept)
    sim_us = kept[0]["sim_us"]
    if any(out["sim_us"] != sim_us for out in kept):
        log(f"perfbench: {workload}: simulated time differs between processes")
        failed = attempted
    ops_per_s = kept[0]["ops_per_rep"] / statistics.median(walls)
    return {
        "correct": failed == 0 and sim_us is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(out["setup_s"] for out in kept),
            "wall_ops_per_s": ops_per_s,
            "peak_rss_mb": statistics.median(out["rss_mb"] for out in kept),
            "sim_elapsed_us": sim_us,
            "sim_mix_gain": kept[-1].get("mix_gain"),
        },
        "diagnostics": {
            "harness.cpu_frac": statistics.median(out["cpu_frac"] for out in kept),
            "rep_tail": tail(walls),
            "children": every,
            "pinned_cpu": kept[0]["pinned_cpu"],
        },
    }


def measure_layers(quick: bool) -> dict:
    """The direct layer timings, plus the unpinned handoff loop."""
    metrics = spawn({"mode": "layers", "quick": quick})["metrics"]
    unpinned = spawn({"mode": "handoff", "pin": False})["handoff_us"]
    metrics["sim.engine.unpinned_slowdown"] = unpinned / metrics["sim.engine.handoff_us"]
    return metrics


def measure_traced(workload: str, seed: int, seconds: float, layers: dict) -> dict:
    """One per-layer run: plain then traced repetitions in one child."""
    out = spawn({"mode": "traced", "workload": workload, "seed": seed, "seconds": seconds})
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {**out["metrics"], **layers},
        "diagnostics": {
            k: out[k] for k in ("sim_us", "traced_reps", "traced_wall_s", "self_sum_s", "wrappers_left")
        },
    }


def with_units(metrics: dict, declared: list) -> dict:
    """Attach the declared units; the key sets must match exactly."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics) or any(v is None for v in metrics.values()):
        raise SystemExit(
            f"perfbench: measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}, "
            f"empty {sorted(k for k, v in metrics.items() if v is None)}"
        )
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def drive(args, spec: dict) -> int:
    """The driver form: one workload, one seed, one JSON line."""
    if args.trace:
        result = measure_traced(
            args.workload, args.seed, args.seconds, measure_layers(args.quick)
        )
        declared = spec["per_layer"]
    else:
        result = measure_timed(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    log(f"perfbench: {args.workload} seed {args.seed}: {json.dumps(result['diagnostics'])}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(result["metrics"], declared),
    }))
    return 0 if result["correct"] else 1


def suite(args, spec: dict) -> int:
    """Every workload: ``runs`` timed runs on seeds 1..runs, one traced run."""
    names = [w["name"] for w in spec["workloads"]]
    children = 2 if args.quick else CHILDREN
    layers = measure_layers(args.quick)
    doc = {
        "schema": 1,
        "env": environment(),
        "settings": {"seconds": args.seconds, "runs": args.runs, "quick": args.quick},
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            result = measure_timed(name, seed, args.seconds, children)
            result["seed"] = seed
            result["metrics"] = with_units(result["metrics"], spec["end_to_end"])
            runs.append(result)
            log(f"perfbench: {name} seed {seed} done")
        traced = measure_traced(name, 1, args.seconds, layers)
        traced["seed"] = 1
        traced["metrics"] = with_units(traced["metrics"], spec["per_layer"])
        doc["workloads"][name] = {"runs": runs, "traced": traced}
        ok = ok and traced["correct"] and all(r["correct"] for r in runs)

        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {name}  ({len(runs)} run(s), fail_frac {failed / attempted:.6f} = {failed}/{attempted})")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            print(f"  {m['name']:<44} {statistics.median(values):>16.6g} {m['unit']}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<44} {traced['metrics'][m['name']]['value']:>16.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="driver form: run this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="suite form: timed runs per workload")
    parser.add_argument("--quick", action="store_true", help="few repetitions, one round")
    parser.add_argument("--out", help="suite form: write the result file here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log("perfbench: src/repro not found next to perfbench/: nothing to measure")
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    if args.runs is None:
        args.runs = 1 if args.quick else 10
    known = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; have {known}")
        return drive(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
