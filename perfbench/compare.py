"""Compare two perfbench result files: A/A, or parent against change.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses to compare files whose recorded ``env`` blocks differ (a wall
number from another host or affinity is not comparable).  Prints one row
per workload x end-to-end metric with the base and new medians, their
ratio, the bound from ``BENCHMARK.json`` and a verdict:

``better``      the new median is better by more than the base's own spread
``within``      no worse than the bound allows
``worse``       worse by more than the bound
``unresolved``  the base's own run-to-run spread (interquartile range over
                median) exceeds the bound, so the bound cannot be checked

The simulated-clock metrics are exact: they are ``within`` only when
every same-seed pair of runs agrees bit for bit; any change is a change
of modelled behaviour and shows as ``better`` or ``worse`` whatever its
size.  Per-layer metrics are listed, never gated; deterministic counts
are marked ``=`` or ``!=``.  Exit status 1 when any row is ``worse`` or
``unresolved``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metrics on the simulated clock: must repeat bit for bit
EXACT = ("sim_elapsed_us", "sim_mix_gain")
#: per-layer metrics that are counts of the program's own work
COUNT_SUFFIXES = (
    ".calls_per_rep", ".events_per_rep", ".plan_hit_rate", ".plans_resident",
    ".warm_recomputed", ".bytes_per_rep",
)


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    delta = (new - base) / base
    return delta if better == "lower" else -delta


def judge(metric: dict, base_runs: list, new_runs: list) -> dict:
    name = metric["name"]
    base = [r["metrics"][name]["value"] for r in base_runs]
    new = [r["metrics"][name]["value"] for r in new_runs]
    b, n = statistics.median(base), statistics.median(new)
    worse_by = worsening(b, n, metric["better"])
    own = spread(base)
    if name in EXACT:
        new_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in new_runs}
        same = all(
            new_by_seed.get(r["seed"]) == r["metrics"][name]["value"] for r in base_runs
        )
        verdict = "within" if same else ("worse" if worse_by > 0 else "better")
    elif own > metric["bound"]:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "worse"
    elif -worse_by > own:
        verdict = "better"
    else:
        verdict = "within"
    return {
        "base": b, "new": n, "ratio": n / b, "spread": own,
        "bound": 0.0 if name in EXACT else metric["bound"], "verdict": verdict,
    }


def fail_row(base_runs: list, new_runs: list) -> dict:
    """fail_frac = failed / attempted; its bound is zero."""
    def frac(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    b, n = frac(base_runs), frac(new_runs)
    verdict = "worse" if n > b else ("better" if n < b else "within")
    return {"base": b, "new": n, "ratio": None, "spread": 0.0, "bound": 0.0, "verdict": verdict}


def compare(base: dict, new: dict, spec: dict) -> "tuple[list, list]":
    """(end-to-end rows, per-layer rows) for every workload in both files."""
    rows, layer_rows = [], []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        b, n = base["workloads"][workload], new["workloads"][workload]
        for metric in spec["end_to_end"]:
            rows.append((workload, metric["name"], metric["unit"], judge(metric, b["runs"], n["runs"])))
        rows.append((workload, "fail_frac", "ratio", fail_row(b["runs"], n["runs"])))
        for metric in spec["per_layer"]:
            name = metric["name"]
            bv = b["traced"]["metrics"][name]["value"]
            nv = n["traced"]["metrics"][name]["value"]
            mark = ""
            if name.endswith(COUNT_SUFFIXES):
                mark = "=" if bv == nv else "!="
            layer_rows.append((workload, name, metric["unit"], bv, nv, mark))
    return rows, layer_rows


def render(rows: list, layer_rows: list) -> str:
    lines = [
        f"{'workload':<22} {'metric':<16} {'base':>13} {'new':>13} {'ratio':>7} "
        f"{'spread':>7} {'bound':>6}  verdict",
        "-" * 100,
    ]
    for workload, name, unit, r in rows:
        ratio = f"{r['ratio']:.4f}" if r["ratio"] is not None else "-"
        lines.append(
            f"{workload:<22} {name:<16} {r['base']:>13.6g} {r['new']:>13.6g} {ratio:>7} "
            f"{r['spread']:>7.4f} {r['bound']:>6.2f}  {r['verdict']}  [{unit}]"
        )
    lines += ["", "per-layer metrics (listed, never gated; counts marked = or !=)", "-" * 100]
    for workload, name, unit, bv, nv, mark in layer_rows:
        ratio = f"{nv / bv:.3f}" if bv else "-"
        lines.append(
            f"{workload:<22} {name:<42} {bv:>13.6g} {nv:>13.6g} {ratio:>7} {mark:>2}  [{unit}]"
        )
    return "\n".join(lines)


def main(argv: "list | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if base["env"] != new["env"]:
        print(
            "perfbench: refusing to compare: the env blocks differ\n"
            f"  base: {base['env']}\n  new:  {new['env']}", file=sys.stderr,
        )
        return 2
    rows, layer_rows = compare(base, new, spec)
    print(render(rows, layer_rows))
    bad = [r for r in rows if r[3]["verdict"] in ("worse", "unresolved")]
    moved = [r for r in layer_rows if r[5] == "!="]
    print(
        f"\n{len(rows)} end-to-end rows: {len(bad)} worse/unresolved; "
        f"{len(moved)} deterministic count(s) differ"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
