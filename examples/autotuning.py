#!/usr/bin/env python
"""The tuning suite and the "auto" backend (paper §V-F, Table II).

Builds a static tuning table for Lassen, prints the Allgather slice
(the paper's Table II), and then routes a single workload's operations
through ``backend="auto"`` — showing different backends being selected
per (operation, message size) at runtime.

Run:  python examples/autotuning.py
"""

from repro import mcr_dl
from repro.backends.ops import OpFamily
from repro.cluster import lassen
from repro.core import Tuner
from repro.sim import Simulator

WORLD = 16


def build_table(system):
    tuner = Tuner(system, ["mvapich2-gdr", "nccl", "msccl"])
    report = tuner.build_table(
        world_sizes=[WORLD],
        message_sizes=[256 * (2**i) for i in range(12)],
        ops=[OpFamily.ALLGATHER, OpFamily.ALLREDUCE, OpFamily.ALLTOALL],
    )
    return report.table


def main():
    system = lassen()
    table = build_table(system)

    print(f"Table II — all_gather tuning table at world size {WORLD}:")
    print(f"  {'Message Size':>12}  Backend")
    for msg, backend in table.rows("allgather", WORLD):
        print(f"  {msg:>12}  {backend}")

    table.save("results/tuning_table_lassen.json") if __import__("pathlib").Path(
        "results"
    ).is_dir() else None

    def workload(ctx):
        comm = mcr_dl.init(["nccl", "mvapich2-gdr", "msccl"], tuning_table=table)
        # small allreduce -> tuned to MVAPICH2-GDR; large -> NCCL;
        # the user just says "auto"
        mcr_dl.all_reduce("auto", ctx.zeros(64))
        mcr_dl.all_reduce("auto", ctx.virtual_tensor(1 << 20))
        mcr_dl.all_to_all_single(
            "auto", ctx.virtual_tensor(1 << 18), ctx.virtual_tensor(1 << 18)
        )
        mcr_dl.finalize()

    sim = Simulator(WORLD, system=system, trace=True)
    result = sim.run(workload)
    chosen = sorted(
        {r.detail for r in result.tracer.filter(rank=0, category="comm")}
    )
    print("\noperations issued with backend='auto' actually ran on:")
    for label in chosen:
        print(f"  {label}")
    backends_used = {label.split(":")[1] for label in chosen}
    print(f"\n{len(backends_used)} distinct backends chosen automatically: "
          f"{sorted(backends_used)}")


if __name__ == "__main__":
    main()
