"""Stream/event/graph semantics: FIFO order, gating, deferred resolution.

These are the CUDA-ordering behaviours MCR-DL's synchronization design
(paper §V-C, Fig. 4) depends on.
"""

import math

import pytest

from repro.core.comm import MCRCommunicator
from repro.core.rendezvous import WireLanes
from repro.sim import DeadlockError, Simulator
from repro.sim.errors import SimError


def run1(fn, **kw):
    return Simulator(1, **kw).run(fn)


class TestStreamFifo:
    def test_kernels_serialize_on_one_stream(self):
        def body(ctx):
            a = ctx.launch(100, label="a")
            b = ctx.launch(50, label="b")
            ctx.stream_synchronize()
            return (a.start, a.end, b.start, b.end)

        a_start, a_end, b_start, b_end = run1(body).rank_results[0]
        assert b_start == a_end
        assert b_end == a_end + 50

    def test_streams_run_concurrently(self):
        def body(ctx):
            a = ctx.launch(100, stream=ctx.stream("s1"))
            b = ctx.launch(100, stream=ctx.stream("s2"))
            ctx.device_synchronize()
            return (a.start, b.start, ctx.now)

        a_start, b_start, end = run1(body).rank_results[0]
        # second launch starts while the first still runs (offset only by
        # the host launch overhead)
        assert b_start < a_start + 100
        assert end < 200 + 20

    def test_kernel_starts_no_earlier_than_host(self):
        def body(ctx):
            ctx.sleep(500)
            node = ctx.launch(10)
            ctx.stream_synchronize()
            return node.start

        assert run1(body).rank_results[0] >= 500

    def test_negative_duration_rejected(self):
        def body(ctx):
            ctx.launch(-5)

        with pytest.raises(SimError):
            run1(body)

    def test_negative_launch_overhead_rejected(self):
        def body(ctx):
            ctx.launch(5)

        with pytest.raises(SimError, match="launch overhead"):
            run1(body, kernel_launch_overhead_us=-1.0)

    def test_nan_duration_rejected(self):
        # used to pass the ``< 0`` check and drop the kernel silently
        with pytest.raises(SimError, match="negative kernel duration nan"):
            run1(lambda ctx: ctx.launch(math.nan))

    def test_nan_launch_overhead_rejected(self):
        # used to pass the ``< 0`` check and make every launch free
        with pytest.raises(SimError, match="launch overhead nan"):
            run1(lambda ctx: None, kernel_launch_overhead_us=math.nan)


class TestEvents:
    def test_record_then_wait_orders_across_streams(self):
        def body(ctx):
            s1, s2 = ctx.stream("s1"), ctx.stream("s2")
            a = ctx.launch(100, stream=s1)
            ev = ctx.record_event(s1)
            s2.wait_event(ev)
            b = ctx.launch(10, stream=s2)
            ctx.device_synchronize()
            return (a.end, b.start)

        a_end, b_start = run1(body).rank_results[0]
        assert b_start >= a_end

    def test_event_on_idle_stream_is_timestamp(self):
        def body(ctx):
            ev = ctx.record_event(ctx.stream("empty"))
            return ev.completion_time()

        assert run1(body).rank_results[0] == 0.0

    def test_event_synchronize_blocks_host(self):
        def body(ctx):
            node = ctx.launch(250)
            ev = ctx.record_event()
            ctx.event_synchronize(ev)
            return ctx.now

        assert run1(body).rank_results[0] >= 250

    def test_unrecorded_event_rejected(self):
        from repro.sim.streams import CudaEvent

        def body(ctx):
            ctx.stream("s").wait_event(CudaEvent("raw"))

        with pytest.raises(SimError):
            run1(body)

    def test_unresolved_event_completion_time_raises(self):
        # an event on a collective that has not resolved cannot be polled
        from repro.sim.streams import CudaEvent

        ev = CudaEvent("never")
        with pytest.raises(SimError):
            ev.completion_time()


class TestDeviceSync:
    def test_device_sync_covers_all_streams(self):
        def body(ctx):
            ctx.launch(100, stream=ctx.stream("a"))
            ctx.launch(300, stream=ctx.stream("b"))
            ctx.device_synchronize()
            return ctx.now

        assert run1(body).rank_results[0] >= 300

    def test_implicit_device_sync_at_exit(self):
        def body(ctx):
            ctx.launch(1000, label="tail")
            return None  # no explicit sync: Simulator joins the device

        assert run1(body).elapsed_us >= 1000

    def test_tail_time_raises_on_pending_work(self):
        # a stream holding an unresolved collective member must not
        # expose a bogus tail
        def body(ctx):
            if ctx.rank == 0:
                comm = MCRCommunicator(ctx, ["nccl"])
                comm.all_reduce("nccl", ctx.zeros(4), async_op=True)
                stream = ctx.stream("nccl:comm0")
                with pytest.raises(SimError):
                    stream.tail_time
                raise KeyboardInterrupt("checked")  # abort the sim quickly

        with pytest.raises((KeyboardInterrupt, DeadlockError)):
            Simulator(2).run(body)


class TestTrace:
    def test_trace_records_intervals(self):
        def body(ctx):
            ctx.launch(100, label="k", category="compute")

        res = Simulator(1, trace=True).run(body)
        recs = res.tracer.filter(label_contains="k")
        assert len(recs) == 1
        assert recs[0].duration == 100

    def test_busy_time_merges_overlaps(self):
        from repro.sim.trace import Tracer

        t = Tracer()
        t.record(0, "s", "a", "c", 0, 10)
        t.record(0, "s", "b", "c", 5, 15)
        t.record(0, "s", "c", "c", 20, 30)
        assert t.busy_time(t.records) == 25

    def test_overlap_time(self):
        from repro.sim.trace import Tracer

        t = Tracer()
        t.record(0, "s", "a", "c", 0, 10)
        t.record(0, "s", "b", "c", 5, 20)
        a = t.filter(label_contains="a")
        b = t.filter(label_contains="b")
        assert t.overlap_time(a, b) == 5

    def test_category_totals(self):
        def body(ctx):
            ctx.launch(100, label="k", category="compute")
            ctx.launch(40, stream=ctx.stream("c"), label="x", category="comm")

        res = Simulator(1, trace=True).run(body)
        totals = res.tracer.category_totals(rank=0)
        assert totals["compute"] == 100
        assert totals["comm"] == 40


class TestWireLane:
    def test_same_lane_serializes(self):
        lanes = WireLanes(0.5)
        s1 = lanes.admit("a", 100.0, 0.0)
        s2 = lanes.admit("a", 100.0, 0.0)
        assert s1 == 0.0
        assert s2 == 100.0

    def test_cross_lane_partial_overlap(self):
        lanes = WireLanes(0.5)
        lanes.admit("a", 100.0, 0.0)
        s2 = lanes.admit("b", 100.0, 0.0)
        assert s2 == 50.0  # throttled by the shared tail, not fully serial

    def test_zero_interference_is_independent(self):
        lanes = WireLanes(0.0)
        lanes.admit("a", 100.0, 0.0)
        assert lanes.admit("b", 100.0, 0.0) == 0.0

    def test_full_interference_is_shared_wire(self):
        lanes = WireLanes(1.0)
        lanes.admit("a", 100.0, 0.0)
        assert lanes.admit("b", 100.0, 0.0) == 100.0


def test_collective_group_starts_as_a_fresh_flag():
    # CollectiveGroup.__init__ sets Flag's fields itself, one call per
    # collective fewer than through Flag.__init__: every field a Flag
    # starts with, a collective starts with too
    from repro.sim.engine import Engine, Flag
    from repro.sim.graph import CollectiveGroup

    engine = Engine()
    group, flag = CollectiveGroup(engine, 2, "c"), Flag(engine, "c")
    assert {s: getattr(group, s) for s in Flag.__slots__} == {
        s: getattr(flag, s) for s in Flag.__slots__
    }
    assert group._waiters is not flag._waiters and group.callbacks is not flag.callbacks
