"""The comm log's row order is part of its contract.

``CommLogger.records`` (the log's ``comm`` rows) and the registry's
``events`` come out in flag-callback order: a collective's rows wait on
its flag together with the adaptive observation the resolver queues, a
fusion copy-back and a ``hier:*`` phase's shuffle, and an observation
that decides a retune puts its ``adapt`` rows between a collective's
rows.  One observed, logged program that touches each of them, the host
path, p2p and a ws-1 communicator is pinned here, field by field and in
order.
"""

from __future__ import annotations

import hashlib
import re

from repro.cluster import lassen
from repro.core import MCRCommunicator, MCRConfig, TuningTable
from repro.core.config import AdaptiveConfig
from repro.ext.fusion import FusionConfig, TensorFusion
from repro.obs.metrics import ObsEvent
from repro.sim import Simulator
from repro.sim.faults import FaultSpec

WORLD = 8  # two Lassen nodes: the hier composite has both phases
NBYTES = 1 << 20
FIELDS = tuple(ObsEvent.__dataclass_fields__)

#: SHA-256 of the ``repr`` of each list of field tuples, and its length
GOLDEN = {
    "comm": ("1b30dbd70aa76981399fef7a088f22b05ac97d59f02413bb8ed5e6f0216f309d", 1296),
    "events": ("6c0eefeb80388171c636bc41a4979c668a37e2f7de091fb9f960b189f7f4de1e", 1364),
}


def _program():
    table = TuningTable(system="lassen")
    for world in (4, WORLD):
        table.add("allreduce", world, NBYTES, "nccl")
    adaptive = AdaptiveConfig(enabled=True, min_samples=5, explore_ops=3, drift_ratio=1.5)

    def main(ctx):
        registry, rank = ctx.shared["obs"], ctx.rank
        registry.begin_step(rank, 0, ctx.now)
        # an adaptive "auto" loop that retunes off the degraded nccl link
        # onto the composite: the resolver's observation waits on each
        # flag with the rows
        adapt = MCRConfig(enable_logging=True, adaptive=adaptive)
        comm = MCRCommunicator(
            ctx, ["nccl", "mvapich2-gdr"], tuning_table=table, comm_id="adapt", config=adapt
        )
        x, small = ctx.virtual_tensor(NBYTES // 4), ctx.virtual_tensor(256)
        for _ in range(60):
            comm.all_reduce("auto", x, async_op=True).synchronize()
        comm.finalize()
        if rank < 4:
            # again on one node, where every candidate is a flat stream op:
            # a blocking side op gates the default stream, so the "auto" op
            # ranks 1.. post behind a kernel there stays unfired until rank
            # 0, its last arrival, posts its own side op.  Rank 0's row
            # then opens a batch after the adaptive observation
            node = range(4)
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr"], tuning_table=table, comm_id="adapt-node",
                config=adapt, ranks=node,
            )
            side = MCRCommunicator(
                ctx, ["msccl"], comm_id="side", config=MCRConfig(enable_logging=True),
                ranks=node,
            )
            for _ in range(60):
                if rank:
                    side.all_reduce("msccl", small)
                    ctx.launch(5.0)
                else:
                    ctx.sleep(20.0)
                handle = comm.all_reduce("auto", x, async_op=True)
                if not rank:
                    side.all_reduce("msccl", small)
                handle.synchronize()
            side.finalize()
            comm.finalize()
        registry.begin_step(rank, 1, ctx.now)

        config = MCRConfig(enable_logging=True, mpi_stream_mode="mpi-managed")
        comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"], config=config, comm_id="mix")
        y = ctx.zeros(4096)
        comm.all_reduce("mvapich2-gdr", y)  # host path: fires at its last arrival
        handle = comm.all_reduce("mvapich2-gdr", x, async_op=True)
        comm.all_reduce("nccl", x, async_op=True)
        hier = "hier:nccl+mvapich2-gdr"  # real tensors: the alltoall's phase shuffles
        comm.all_reduce(hier, ctx.zeros(1 << 14))
        comm.all_to_all_single(hier, ctx.zeros(1 << 14), ctx.zeros(1 << 14), async_op=True).wait()
        handle.wait()
        peer = rank ^ 1
        for size in (16, 1 << 16):  # eager and rendezvous protocol
            buf = ctx.virtual_tensor(size)
            if rank % 2:
                comm.recv("nccl", buf, peer)
                comm.send("nccl", buf, peer, tag=1)
            else:
                comm.send("nccl", buf, peer)
                comm.recv("nccl", buf, peer, tag=1)
        registry.begin_step(rank, 2, ctx.now)
        fusion = TensorFusion(comm, FusionConfig(max_buffer_bytes=1 << 12))
        handles = [fusion.all_reduce("nccl", ctx.zeros(256)) for _ in range(6)]
        fusion.flush_all()
        for h in handles:
            h.wait()
        comm.synchronize()
        comm.finalize()

        solo = MCRCommunicator(ctx, ["nccl"], config=config, comm_id="solo", ranks=[rank])
        solo.all_reduce("nccl", x)
        solo.all_reduce("nccl", x, async_op=True).wait()
        solo.finalize()

    faults = FaultSpec.parse("link=10000:inf:4.0:backend=nccl")
    return Simulator(WORLD, system=lassen(), faults=faults, observe=True).run(main)


def _digest(rows) -> tuple[str, int]:
    tuples = [tuple(getattr(r, f) for f in FIELDS) for r in rows]
    return hashlib.sha256(repr(tuples).encode()).hexdigest(), len(tuples)


def test_comm_rows_and_registry_events_keep_their_order():
    res = _program()
    comm, events = res.shared["event_log"].rows["comm"], res.metrics.events
    # the program reaches every path that orders rows: the host path, a
    # ws-1 communicator (its rows are the only nccl ones on "host"), p2p,
    # both composite phases, and adapt rows between comm rows (each
    # loop's drift and explore pair, and its retune)
    assert {r.stream for r in comm} >= {"host", "p2p"}
    assert sum(r.backend == "nccl" and r.stream == "host" for r in comm) == 2 * WORLD
    assert {r.phase for r in comm} == {"", "intra", "inter"}
    assert {r.step for r in comm} == {0, 1, 2}
    kinds = "".join(e.kind[0] for e in events)
    assert "f" in kinds and len(re.findall("ca+c", kinds)) == 4
    assert {"comm": _digest(comm), "events": _digest(events)} == GOLDEN
