"""Discrete-event engine: clock, scheduling, flags, deadlocks, errors."""

import _thread
import gc
import math
import multiprocessing
import os
import sys
import threading
import time
import weakref

import pytest

import repro.sim.engine as engine_mod
from repro.sim import DeadlockError, Engine, Flag, Simulator
from repro.sim.errors import SimError

NAN = math.nan


def run_procs(*fns, max_events=1_000_000):
    engine = Engine(max_events=max_events)
    for i, fn in enumerate(fns):
        engine.add_process(f"p{i}", lambda fn=fn, e=engine: fn(e))
    return engine.run()


class TestClock:
    def test_starts_at_zero_and_advances(self):
        times = []

        def body(e):
            times.append(e.now)
            e.sleep(10)
            times.append(e.now)

        assert run_procs(body) == 10.0
        assert times == [0.0, 10.0]

    def test_sleep_zero_keeps_time(self):
        def body(e):
            e.sleep(0)
            assert e.now == 0.0

        run_procs(body)

    def test_negative_sleep_rejected(self):
        def body(e):
            e.sleep(-1)

        with pytest.raises(SimError):
            run_procs(body)

    def test_nan_sleep_rejected(self):
        # a NaN duration used to pass the check and make the job's
        # elapsed time NaN
        def body(e):
            e.sleep(NAN)

        with pytest.raises(SimError, match="negative sleep nan"):
            run_procs(body)

    def test_wait_until_past_is_noop(self):
        def body(e):
            e.sleep(50)
            e.wait_until(10)
            assert e.now == 50

        run_procs(body)

    def test_interleaving_is_time_ordered(self):
        order = []

        def fast(e):
            e.sleep(5)
            order.append("fast")

        def slow(e):
            e.sleep(20)
            order.append("slow")

        run_procs(slow, fast)
        assert order == ["fast", "slow"]

    def test_fifo_tiebreak_at_equal_times(self):
        order = []

        def make(tag):
            def body(e):
                e.sleep(10)
                order.append(tag)

            return body

        run_procs(make("a"), make("b"), make("c"))
        assert order == ["a", "b", "c"]


class TestFlags:
    def test_fire_future_time_resumes_at_ready(self):
        def producer(e):
            e.sleep(10)
            flags["f"].fire(100.0)

        def consumer(e):
            e.wait_flag(flags["f"])
            assert e.now == 100.0

        engine = Engine()
        flags = {"f": engine.new_flag("f")}
        engine.add_process("prod", lambda: producer(engine))
        engine.add_process("cons", lambda: consumer(engine))
        assert engine.run() == 100.0

    def test_wait_already_fired_past(self):
        def body(e):
            f = e.new_flag()
            f.fire(0.0)
            e.sleep(5)
            e.wait_flag(f)
            assert e.now == 5.0

        run_procs(body)

    def test_double_fire_rejected(self):
        def body(e):
            f = e.new_flag()
            f.fire(1.0)
            f.fire(2.0)

        with pytest.raises(SimError):
            run_procs(body)

    def test_negative_fire_rejected(self):
        def body(e):
            e.new_flag().fire(-1.0)

        with pytest.raises(SimError):
            run_procs(body)

    def test_nan_fire_rejected(self):
        def body(e):
            e.new_flag().fire(NAN)

        with pytest.raises(SimError, match="negative time nan"):
            run_procs(body)

    def test_callbacks_invoked_once(self):
        calls = []

        def body(e):
            f = e.new_flag()
            f.callbacks.append(lambda: calls.append(1))
            f.fire(0.0)

        run_procs(body)
        assert calls == [1]

    def test_multiple_waiters_all_resume(self):
        resumed = []
        engine = Engine()
        flag = engine.new_flag("x")

        def waiter(e):
            e.wait_flag(flag)
            resumed.append(e.now)

        def firer(e):
            e.sleep(3)
            flag.fire(7.0)

        engine.add_process("w1", lambda: waiter(engine))
        engine.add_process("w2", lambda: waiter(engine))
        engine.add_process("f", lambda: firer(engine))
        engine.run()
        assert resumed == [7.0, 7.0]


class TestFailures:
    def test_deadlock_detected_with_diagnostics(self):
        def body(e):
            e.wait_flag(e.new_flag("never"), reason="stuck-on-x")

        with pytest.raises(DeadlockError) as err:
            run_procs(body, body)
        assert "stuck-on-x" in str(err.value)

    def test_user_exception_propagates(self):
        def bad(e):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_procs(bad)

    def test_other_ranks_unwound_after_failure(self):
        def bad(e):
            e.sleep(1)
            raise ValueError("boom")

        def waiter(e):
            e.wait_flag(e.new_flag("never"))

        with pytest.raises(ValueError):
            run_procs(bad, waiter)  # must not hang

    def test_event_budget(self):
        def spinner(e):
            while True:
                e.sleep(1)

        with pytest.raises(SimError, match="event budget"):
            run_procs(spinner, max_events=100)

    def test_event_budget_charges_launch_lookahead(self):
        # a launch advances the clock without an event; a runaway loop of
        # them must still hit the budget
        def spinner(ctx):
            while True:
                ctx.launch(1.0)

        with pytest.raises(SimError, match="event budget"):
            Simulator(1, max_events=100).run(spinner)

    def test_event_budget_charges_post_lookahead(self):
        # posts that never resolve run ahead without an event; they once
        # ran past the budget and ended in a DeadlockError at the join
        from repro.core import MCRCommunicator

        def main(ctx):
            if ctx.rank == 1:
                return
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.virtual_tensor(64)
            for _ in range(5000):
                comm.all_reduce("nccl", x, async_op=True)

        with pytest.raises(SimError, match="event budget"):
            Simulator(2, max_events=100).run(main)

    def test_run_twice_rejected(self):
        engine = Engine()
        engine.add_process("p", lambda: None)
        engine.run()
        with pytest.raises(SimError):
            engine.run()

    def test_add_process_after_start_rejected(self):
        engine = Engine()
        engine.add_process("p", lambda: None)
        engine.run()
        with pytest.raises(SimError):
            engine.add_process("late", lambda: None)

    def test_empty_engine_runs(self):
        assert Engine().run() == 0.0


class TestSimulatorFacade:
    def test_rank_results_collected(self):
        res = Simulator(3).run(lambda ctx: ctx.rank * 10)
        assert res.rank_results == [0, 10, 20]

    def test_elapsed_units(self):
        res = Simulator(1).run(lambda ctx: ctx.sleep(2500))
        assert res.elapsed_us == 2500
        assert res.elapsed_ms == 2.5
        assert res.elapsed_s == 0.0025

    def test_world_size_validated_against_system(self):
        from repro.cluster import thetagpu

        with pytest.raises(ValueError):
            Simulator(24 * 8 + 1, system=thetagpu())

    def test_args_passed_through(self):
        res = Simulator(2).run(lambda ctx, a, b=0: a + b + ctx.rank, 5, b=1)
        assert res.rank_results == [6, 7]

    def test_per_rank_rng_deterministic_and_distinct(self):
        def body(ctx):
            return float(ctx.rand(4).data[0])

        r1 = Simulator(2, seed=7).run(body).rank_results
        r2 = Simulator(2, seed=7).run(body).rank_results
        assert r1 == r2
        assert r1[0] != r1[1]

    def test_nan_host_sleep_rejected(self):
        # one rank's NaN sleep used to make the job's elapsed_us NaN
        def body(ctx):
            ctx.sleep(NAN if ctx.rank == 0 else 1.0)

        with pytest.raises(SimError, match="negative sleep"):
            Simulator(2).run(body)

    def test_nan_straggler_factor_rejected(self):
        # a NaN factor used to drop the straggler's kernels
        with pytest.raises(ValueError, match="straggler factor"):
            Simulator(2, stragglers={0: NAN})


class TestEngineScalability:
    def test_256_rank_job_completes_quickly(self):
        """Guard against scheduler regressions: a 256-rank job with a few
        collectives per rank must stay interactive (the Fig-8 sweeps run
        thousands of these).  Asserted on the deterministic proxy — the
        scheduler events the job costs — not on this host's clock
        (``scripts/lint.py``)."""
        from repro.cluster import lassen
        from repro.core import MCRCommunicator

        world, ops = 256, 4

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            for _ in range(ops):
                h = comm.all_reduce("nccl", ctx.virtual_tensor(1 << 20), async_op=True)
                h.wait()
            comm.finalize()

        result = Simulator(world, system=lassen(), observe=True).run(main)
        gauges = result.metrics.gauges
        # 5 per rank today; 7 when every post yielded for its dispatch cost
        assert gauges["engine.events_dispatched"] <= 3 * world * ops
        # every event but the final one is a handoff or an inline advance
        assert (
            gauges["engine.handoffs"] + gauges["engine.inline"] + 1
            == gauges["engine.events_dispatched"]
        )


    @pytest.mark.parametrize("world", [16, 64])
    def test_dispatch_cost_is_not_a_handoff(self, world):
        """The dispatch-cost lookahead, as a count: 50 synchronous 4 MiB
        all-reduces alternating nccl and mvapich2-gdr cost 1.56 baton
        handoffs per rank-op when every post yielded for its dispatch
        cost, 0.56 now (only the resolving rank and the host waits
        yield)."""
        from repro.core import MCRCommunicator

        ops = 50

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl", "mvapich2-gdr"])
            x = ctx.virtual_tensor(1 << 20)
            for i in range(ops):
                comm.all_reduce("nccl" if i % 2 == 0 else "mvapich2-gdr", x)
            comm.finalize()

        gauges = Simulator(world, observe=True).run(main).metrics.gauges
        assert gauges["engine.handoffs"] / (world * ops) <= 0.6

    def test_kernel_launch_is_not_a_handoff(self):
        """The launch-overhead lookahead, as a count: a kernel launch and
        an async 256 KiB nccl all-reduce per step cost 1.06 baton
        handoffs per rank-op when each launch slept through its overhead
        and a rank already ahead yielded at its next post, 0.06 now."""
        from repro.core import MCRCommunicator

        world, ops = 8, 50

        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            x = ctx.virtual_tensor(65536)
            for _ in range(ops):
                ctx.launch(10.0)
                comm.all_reduce("nccl", x, async_op=True)
            comm.synchronize()

        gauges = Simulator(world, observe=True).run(main).metrics.gauges
        assert gauges["engine.handoffs"] / (world * ops) <= 0.1


class TestTieOrder:
    def test_equal_times_pop_by_process_index_not_push_order(self):
        order = []

        def late_pusher(e):  # pushes its wake at 10 last, at time 1
            e.sleep(1)
            e.sleep(9)
            order.append("p0")

        def make(tag):
            def body(e):
                e.sleep(10)
                order.append(tag)

            return body

        run_procs(late_pusher, make("p1"), make("p2"))
        assert order == ["p0", "p1", "p2"]

    def test_flag_waiters_wake_by_process_index(self):
        engine = Engine()
        flag = engine.new_flag("x")
        woke = []

        def waiter(tag, delay):
            def body():
                engine.sleep(delay)  # p1 registers on the flag before p0
                engine.wait_flag(flag)
                woke.append(tag)

            return body

        def firer():
            engine.sleep(5)
            flag.fire(7.0)

        engine.add_process("p0", waiter("p0", 2))
        engine.add_process("p1", waiter("p1", 1))
        engine.add_process("f", firer)
        engine.run()
        assert woke == ["p0", "p1"]


class TestLookahead:
    """``advance`` moves the running process's own clock without
    yielding; a process past the earliest pending event is ``ahead``."""

    def test_ahead_waiter_resumes_at_its_own_clock(self):
        engine = Engine()
        flag = engine.new_flag("f")
        seen = {}

        def ahead():
            engine.advance(50.0)
            seen["ahead"] = engine.ahead
            engine.wait_flag(flag)
            seen["resumed"] = engine.now

        def firer():
            engine.sleep(5.0)
            flag.fire(engine.now)  # fired at 5, before the waiter's clock

        engine.add_process("ahead", ahead)
        engine.add_process("firer", firer)
        assert engine.run() == 50.0
        assert seen == {"ahead": True, "resumed": 50.0}

    def test_run_returns_the_latest_clock(self):
        engine = Engine()
        engine.add_process("far", lambda: engine.advance(100.0))
        engine.add_process("near", lambda: engine.sleep(10.0))
        assert engine.run() == 100.0
        assert engine.stats()["now_us"] == 100.0

    def test_settle_parks_only_when_ahead(self):
        engine = Engine()
        order = []

        def runner():
            engine.settle()  # level with the other process: no park
            order.append(("runner", engine.now, engine.stats()["events_dispatched"]))
            engine.advance(20.0)
            engine.settle()  # ahead: the other process runs to 10 first
            order.append(("runner", engine.now, engine.stats()["events_dispatched"]))

        def other():
            engine.sleep(10.0)
            order.append(("other", engine.now))

        engine.add_process("runner", runner)
        engine.add_process("other", other)
        engine.run()
        assert order == [("runner", 0.0, 1), ("other", 10.0), ("runner", 20.0, 4)]


class TestPollSitesSettle:
    """Every read of another rank's progress settles first.  Rank 0 posts
    op B by lookahead, which puts its clock past the instant at which
    rank 1 resolves op A; read without settling, A would still look
    pending.  Each case fails if its read site does not settle."""

    @staticmethod
    def _run(read):
        from repro.core import MCRCommunicator, MCRConfig

        def main(ctx):
            # a large dispatch cost widens the lookahead window
            comm = MCRCommunicator(
                ctx, ["nccl", "mvapich2-gdr", "msccl"],
                config=MCRConfig(dispatch_overhead_us=1000.0),
            )
            x = ctx.virtual_tensor(256)
            if ctx.rank == 1:
                ctx.sleep(1500.0)  # resolves A while rank 0 runs ahead
            h = comm.all_reduce("nccl", x, async_op=True)  # A
            event = ctx.record_event(ctx.stream("nccl:comm0"))
            if ctx.rank == 0:
                ctx.sleep(1000.0)
            comm.all_reduce("mvapich2-gdr", x, async_op=True)  # B
            got = read(ctx, comm, h, event) if ctx.rank == 0 else None
            comm.synchronize()
            done = h.completion_time
            comm.finalize()
            return got, done

        return Simulator(2).run(main).rank_results[0]

    def test_work_handle_is_completed(self):
        got, _ = self._run(lambda ctx, comm, h, event: h.is_completed())
        assert got is True

    def test_stream_tail_time(self):
        got, done = self._run(lambda ctx, comm, h, event: ctx.stream("nccl:comm0").tail_time)
        assert got == done

    def test_cuda_event_completion_time(self):
        got, done = self._run(lambda ctx, comm, h, event: event.completion_time())
        assert got == done

    def test_stream_pressure_probe(self):
        # A finished: nccl carries no load and wins the tie by order
        got, _ = self._run(
            lambda ctx, comm, h, event: comm.sync.least_busy_backend(["nccl", "msccl"])
        )
        assert got == "nccl"


def interleaved_then_solo(e: Engine) -> Engine:
    """Two processes whose sleeps interleave, then run solo.

    Hand trace (h = baton handoff, i = inline):
    main -> p0@0 (h1); p0 sleeps to 1 -> p1@0 (h2); p1 to 1.5 -> p0@1
    (h3); p0 to 2 -> p1@1.5 (h4); p1 to 11.5 -> p0@2 (h5); p0 to 7 with
    nothing scheduled before it (i1, ``wait_until`` fast path); p0 exits
    -> p1@11.5 (h6); p1 waits on a flag that never fires until 14.5, its
    own deadline entry is the next pop (i2, ``_dispatch_next`` of the
    parker); p1 exits -> heap empty, the run ends.  Nine events.
    """
    e.add_process("p0", lambda: (e.sleep(1), e.sleep(1), e.sleep(5)))
    e.add_process(
        "p1",
        lambda: (
            e.sleep(1.5),
            e.sleep(10),
            e.wait_flag_deadline(e.new_flag("never"), e.now + 3),
        ),
    )
    return e


class TestHandoffCounters:
    def test_counts_match_hand_trace(self):
        engine = interleaved_then_solo(Engine())
        assert engine.run() == 14.5
        stats = engine.stats()
        assert (stats["events_dispatched"], stats["handoffs"], stats["inline"]) == (9, 6, 2)


@pytest.fixture
def empty_pool(monkeypatch):
    """An empty rank-thread pool for one test, so its runs start new
    threads whatever ran before; the threads it starts join the
    process-wide pool afterwards."""
    outer, fresh = engine_mod._idle, []
    monkeypatch.setattr(engine_mod, "_idle", fresh)
    yield fresh
    outer.extend(fresh)


class TestThreadPolicy:
    """A new pooled thread asks for ``SCHED_BATCH`` once, as its first
    act, and a reused one never asks again; the calling thread's policy
    is never touched; a platform or sandbox that refuses changes nothing
    simulated."""

    def test_each_process_thread_requests_batch_once(self, monkeypatch, empty_pool):
        batch = object()
        calls = []

        def record(pid, policy, param):
            calls.append((_thread.get_ident(), pid, policy, param))

        monkeypatch.setattr(os, "sched_setscheduler", record, raising=False)
        monkeypatch.setattr(os, "SCHED_BATCH", batch, raising=False)
        monkeypatch.setattr(os, "sched_param", lambda priority: ("param", priority), raising=False)
        before = _thread._count()
        interleaved_then_solo(Engine()).run()
        threads = {ident for ident, *_ in calls}
        assert len(calls) == len(threads) == 2 == _thread._count() - before
        assert _thread.get_ident() not in threads
        assert [call[1:] for call in calls] == [(0, batch, ("param", 0))] * 2
        # the same two threads run the next engine and ask nothing
        interleaved_then_solo(Engine()).run()
        assert len(calls) == 2 and _thread._count() - before == 2

    @pytest.mark.skipif(
        not hasattr(os, "sched_getscheduler"), reason="no scheduling policies here"
    )
    def test_calling_thread_policy_unchanged(self):
        before = os.sched_getscheduler(0)
        interleaved_then_solo(Engine()).run()
        assert os.sched_getscheduler(0) == before

        def bad(e):
            e.sleep(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_procs(bad, lambda e: e.wait_flag(e.new_flag("never")))
        assert os.sched_getscheduler(0) == before

    @pytest.mark.parametrize("refusal", ["raises", "missing"])
    def test_refused_policy_runs_the_same(self, monkeypatch, refusal, empty_pool):
        # refuse before the run: a thread asks only when it is created,
        # and on the empty pool both of this run's threads are new
        asked = []
        if refusal == "raises":
            def refuse(*args):
                asked.append(_thread.get_ident())
                raise OSError(1, "Operation not permitted")

            monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setscheduler", raising=False)
        before = _thread._count()
        engine = interleaved_then_solo(Engine())
        assert repr(engine.run()) == repr(14.5)
        assert _thread._count() - before == 2 == len(empty_pool)
        stats = engine.stats()
        assert (stats["events_dispatched"], stats["handoffs"], stats["inline"]) == (9, 6, 2)
        if refusal == "raises":
            assert len(set(asked)) == len(asked) == 2


def _noop(ctx) -> None:
    pass


def _forked_child(queue) -> None:
    queue.put(Simulator(4).run(lambda ctx: ctx.rank).rank_results)


class TestThreadPool:
    """Rank threads outlive a run: the next run borrows them, a parked
    thread keeps nothing of the run it served, and a forked child starts
    with a pool of its own."""

    def test_second_run_starts_no_thread(self):
        Simulator(16).run(_noop)
        before = _thread._count()
        assert Simulator(16).run(lambda ctx: ctx.rank).rank_results == list(range(16))
        assert _thread._count() == before

    def test_run_returns_with_every_thread_idle(self, empty_pool):
        engine = interleaved_then_solo(Engine())
        engine.run()
        assert len(empty_pool) == 2
        assert all(worker.proc is None for worker in empty_pool)

    def test_concurrent_runs_share_the_pool(self, empty_pool):
        # engines on several caller threads borrow from and return to one
        # pool at once; a lost or doubly parked thread breaks the count
        results, callers = [], []

        def caller():
            for _ in range(10):
                results.append(interleaved_then_solo(Engine()).run())

        before = _thread._count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [14.5] * 40
        assert len({id(worker) for worker in empty_pool}) == len(empty_pool)
        assert _thread._count() - before == len(empty_pool) <= 8

    def test_finished_engine_is_collected(self):
        engine = interleaved_then_solo(Engine())
        engine.run()
        ref = weakref.ref(engine)
        del engine
        # the last thread drops its reference a few instructions after
        # it counted itself out of the run
        for _ in range(200):
            gc.collect()
            if ref() is None:
                break
            time.sleep(0.005)
        assert ref() is None

    def test_forked_child_runs_a_simulator(self):
        Simulator(4).run(_noop)  # the parent's pool holds idle threads
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_forked_child, args=(queue,))
        child.start()
        try:
            # without a fresh pool the child would hand its ranks to
            # threads it does not have, and never finish
            assert queue.get(timeout=60) == [0, 1, 2, 3]
        finally:
            child.join(timeout=60)
            if child.exitcode is None:  # pragma: no cover - hung child
                child.kill()
        assert child.exitcode == 0
