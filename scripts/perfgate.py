#!/usr/bin/env python
"""Perf gate: fail when the simulator drifts from the committed ledger.

Runs every :mod:`repro.bench.perfregress` scenario fresh and compares it
against the committed ``BENCH_simulator.json``.  Only deterministic
facts are checked — the same verdict on any host, at any load, under
any hash seed — and no clock is read; speed is ``perfbench/``'s job.
Tier-1 runs this gate through ``tests/test_perfgate.py``.

* **simulated fingerprints** (``sim_*`` metrics): any difference from
  the ledger fails — timing-semantics drift is never expected.  A
  scenario with no row in the ledger fails too: record it with
  ``python -m repro perf``.
* **observability budget** (``obs_overhead``): the simulated step-time
  delta between an uninstrumented and a fully instrumented (trace +
  metrics) run may not exceed :data:`OBS_BUDGET_PCT`, the paper's C3
  overhead budget.
* **dispatch plan cache** (``dispatch_cache``): a steady-state loop with
  the plan cache on and force-disabled must agree on simulated time,
  and the plan hit rate must meet :data:`PLAN_HIT_FLOOR`.
* **hierarchical composite** (``hier_allreduce``): at 4 MiB the
  ``hier:nccl+mvapich2-gdr`` composite must beat the best flat backend
  by :data:`HIER_SPEEDUP_FLOOR` and the tuned large-message pick must
  be a ``hier:*`` entry.
* **adaptive retuning** (``adaptive_degraded_link``): under a mid-run
  4x link slowdown the adaptive run's tail must recover at least
  :data:`ADAPT_FLOOR` over the static table's and must have committed
  at least one retune.
* **sweep engine** (``tune_sweep``): the same simulated-mode tuning
  sweep run serial, on a 4-worker pool and warm from the on-disk sweep
  cache must agree byte-for-byte, and the warm run must recompute
  **zero** cells.

Usage::

    PYTHONPATH=src python scripts/perfgate.py [--baseline BENCH_simulator.json]

Exit status 0 = pass, 1 = regression, 2 = unusable baseline.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench import perfregress  # noqa: E402

#: max simulated step-time cost of tracing + metrics, percent (paper C3)
OBS_BUDGET_PCT = 5.0
#: min steady-state dispatch plan hit rate
PLAN_HIT_FLOOR = 0.95
#: min simulated speedup of the hier composite over the best flat backend
HIER_SPEEDUP_FLOOR = 1.05
#: min static-tail / adaptive-tail ratio under the degraded link
ADAPT_FLOOR = 1.2


def failures_of(baseline: dict, fresh: dict) -> list[str]:
    """Every way ``fresh`` (a full ``run_scenarios()``) misses the gate."""
    failures = []
    for name, cur in sorted(fresh.items()):
        base = baseline.get(name)
        if base is None:
            failures.append(
                f"{name}: no row in the baseline — record it with `repro perf`"
            )
            continue
        was, now = perfregress.fingerprint(base), perfregress.fingerprint(cur)
        moved = sorted(k for k in was.keys() | now.keys() if was.get(k) != now.get(k))
        if moved:
            failures.append(
                f"{name}: simulated fingerprint changed ({', '.join(moved)})"
            )

    obs, plan = fresh["obs_overhead"], fresh["dispatch_cache"]
    tune, hier = fresh["tune_sweep"], fresh["hier_allreduce"]
    adapt = fresh["adaptive_degraded_link"]
    contracts = [
        (
            obs["sim_overhead_pct"] <= OBS_BUDGET_PCT,
            f"obs_overhead: instrumented simulated step time "
            f"+{obs['sim_overhead_pct']:.2f}% exceeds the {OBS_BUDGET_PCT:.1f}% budget",
        ),
        (
            tune["sim_tables_identical"],
            "tune_sweep: parallel/warm tuning tables differ from serial",
        ),
        (
            tune["sim_samples_identical"],
            "tune_sweep: parallel/warm sample streams differ from serial",
        ),
        (
            tune["warm_recomputed"] == 0,
            f"tune_sweep: warm-cache run recomputed {tune['warm_recomputed']} "
            "cell(s); expected 0",
        ),
        (
            plan["sim_cached_equals_uncached"],
            "dispatch_cache: cached and uncached dispatch produced different "
            "simulated times",
        ),
        (
            plan["plan_hit_rate"] >= PLAN_HIT_FLOOR,
            f"dispatch_cache: steady-state plan hit rate {plan['plan_hit_rate']:.3f} "
            f"below the {PLAN_HIT_FLOOR:.2f} floor",
        ),
        (
            hier["sim_pick_large"].startswith("hier:"),
            f"hier_allreduce: tuned large-message pick is {hier['sim_pick_large']!r}, "
            "expected a hier:* composite",
        ),
        (
            hier["hier_speedup"] >= HIER_SPEEDUP_FLOOR,
            f"hier_allreduce: composite only {hier['hier_speedup']:.3f}x the best "
            f"flat backend (floor {HIER_SPEEDUP_FLOOR:.2f}x)",
        ),
        (
            adapt["sim_retunes"] >= 1,
            "adaptive_degraded_link: retuner never committed a new pick under "
            "the degraded link",
        ),
        (
            adapt["adapt_recovery"] >= ADAPT_FLOOR,
            f"adaptive_degraded_link: adaptive tail only {adapt['adapt_recovery']:.3f}x "
            f"the static table (floor {ADAPT_FLOOR:.2f}x)",
        ),
    ]
    return failures + [message for ok, message in contracts if not ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_simulator.json"),
    )
    args = parser.parse_args(argv)

    try:
        baseline = perfregress.load(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"perfgate: unusable baseline: {exc}", file=sys.stderr)
        return 2

    fresh = perfregress.run_scenarios(progress=print)
    failures = failures_of(baseline, fresh)
    if failures:
        print("\nperfgate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(
        f"\nperfgate passed: {len(fresh)} scenario(s) match {args.baseline}; "
        f"obs overhead {fresh['obs_overhead']['sim_overhead_pct']:+.3f}%, "
        f"plan hit rate {fresh['dispatch_cache']['plan_hit_rate']:.3f}, "
        f"hier {fresh['hier_allreduce']['hier_speedup']:.2f}x, "
        f"adaptive recovery {fresh['adaptive_degraded_link']['adapt_recovery']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
