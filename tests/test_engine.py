"""Discrete-event engine: clock, scheduling, flags, deadlocks, errors."""

import pytest

from repro.sim import DeadlockError, Engine, Flag, Simulator
from repro.sim.errors import SimError


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


class TestEngineScalability:
    def test_256_rank_job_completes_quickly(self):
        """Guard against scheduler regressions: a 256-rank job with a few
        collectives per rank must stay interactive (the Fig-8 sweeps run
        thousands of these).  Asserted on the deterministic proxy — the
        scheduler events the job costs — not on this host's clock
        (``scripts/check_tests_hostfree.py``)."""
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
        # 7 per rank today: start, one park per rendezvous, the final joins
        assert result.metrics.gauges["engine.events_dispatched"] <= 3 * world * ops
