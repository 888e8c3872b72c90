"""Cooperative-thread discrete-event engine.

Each simulated rank runs user code on a dedicated OS thread, but a baton
protocol guarantees **exactly one** thread executes at any moment, so no
user-visible locking is needed and execution is fully deterministic.
Virtual time (microseconds, float) only advances when the running thread
blocks on a future event; ties are broken FIFO by a sequence counter.

This is the classic process-interaction DES style (as in SimPy), using
threads instead of generators so that deeply nested user code — a whole
training loop calling into MCR-DL collectives — can block naturally
anywhere in its call stack, exactly like an MPI program.

The baton is a raw ``_thread`` lock per process (a binary semaphore:
held while the process runs or is parked, released exactly once to wake
it) rather than a ``threading.Event`` — the handoff is the engine's
hottest path and the raw lock roughly halves its cost.  Two direct-
handoff fast paths avoid the cross-thread round-trip entirely when the
next event belongs to the process that is already running:

* :meth:`Engine.wait_until` advances the clock inline when no other
  event is scheduled before the requested wake time (no heap churn, no
  lock operations);
* :meth:`_Proc.park` continues inline when the popped event is its own
  (same pop order as a schedule/park round-trip, minus the baton).

Neither fast path reorders events: both fire only when the parking
process would have been popped next anyway, so simulated timestamps are
identical with and without them.
"""

from __future__ import annotations

import _thread
import itertools
import threading
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.errors import DeadlockError, SimAborted, SimError


class _Kill(BaseException):
    """Internal: unwinds a parked rank thread during teardown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class Flag:
    """A one-shot completion signal with a *timestamped* fire.

    Work handles and rendezvous completions fire flags with the simulated
    time at which the underlying operation finishes (possibly in the
    future relative to the firing rank's clock); waiters resume at
    ``max(their local now, ready_time)``.
    """

    __slots__ = ("_engine", "ready_time", "_waiters", "label", "callbacks")

    def __init__(self, engine: "Engine", label: str = "flag"):
        self._engine = engine
        self.ready_time: Optional[float] = None
        self._waiters: list["_Proc"] = []
        self.label = label
        #: called synchronously at fire time with no arguments (used by
        #: deferred logging; keep callbacks free of blocking calls)
        self.callbacks: list[Callable[[], None]] = []

    @property
    def is_set(self) -> bool:
        return self.ready_time is not None

    def fire(self, ready_time: float) -> None:
        """Mark complete at ``ready_time`` and schedule all waiters."""
        if self.ready_time is not None:
            raise SimError(f"flag {self.label!r} fired twice")
        if ready_time < 0:
            raise SimError(f"flag {self.label!r} fired at negative time {ready_time}")
        self.ready_time = ready_time
        if self._waiters:
            engine = self._engine
            wake = max(ready_time, engine.now)
            for proc in self._waiters:
                engine._schedule(wake, proc)
            self._waiters.clear()
        for cb in self.callbacks:
            cb()
        self.callbacks.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flag({self.label!r}, ready={self.ready_time})"


class _Proc:
    """One simulated process (rank or helper) backed by a raw OS thread.

    ``wake`` is a raw lock used as a binary semaphore: it is held (locked)
    from construction onward, both while the process runs and while it is
    parked; waking the process is exactly one ``release()``, and parking
    is exactly one blocking ``acquire()``.  The thread itself is started
    with ``_thread.start_new_thread`` by :meth:`Engine.run`: the baton is
    the only handshake a rank needs, so it does not pay for a ``Thread``
    object, its started-event and its join lock.
    """

    __slots__ = (
        "engine",
        "name",
        "fn",
        "wake",
        "finished",
        "blocked_on",
        "result",
        "epoch",
        "_kill_sent",
    )

    def __init__(self, engine: "Engine", name: str, fn: Callable[[], object]):
        self.engine = engine
        self.name = name
        self.fn = fn
        self.wake = _thread.allocate_lock()
        self.wake.acquire()  # parked until first dispatched
        self.finished = False
        self.blocked_on: Optional[str] = None
        self.result: object = None
        #: dispatch generation; heap entries carry the epoch they were
        #: scheduled under, and entries from an older epoch are skipped
        #: (lazy cancellation — see wait_flag_deadline)
        self.epoch = 0
        #: teardown wake already delivered (guards double-release in _fail)
        self._kill_sent = False

    def _body(self) -> None:
        try:
            self.wake.acquire()
            if self.engine._failure is not None:
                return
            try:
                self.result = self.fn()
            except _Kill:
                return
            except BaseException as exc:  # propagate user errors to run()
                self.finished = True
                self.engine._fail(exc)
                return
            self.finished = True
            self.engine._proc_exited(self)
        finally:
            # let go of the rank's closure (its context, GPU, streams)
            # and tell run() when the last thread has left
            self.fn = None
            self.engine._thread_left()

    def park(self, reason: str) -> None:
        """Hand the baton off and sleep until re-scheduled.

        Direct handoff: when the earliest scheduled event is this very
        process, ``_dispatch_next`` returns True and no lock round-trip
        happens — execution continues inline with the clock advanced.
        """
        self.blocked_on = reason
        if not self.engine._dispatch_next(self):
            self.wake.acquire()
        self.blocked_on = None
        if self.engine._failure is not None:
            raise _Kill()


class Engine:
    """The virtual clock and scheduler.

    Not reentrant: one simulation per Engine. Time is in microseconds.
    """

    def __init__(self, max_events: int = 200_000_000):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, _Proc, int]] = []
        self._seq = itertools.count()
        self._procs: list[_Proc] = []
        self._failure: Optional[BaseException] = None
        self._main_baton = threading.Event()
        #: rank threads still alive, and the raw lock the last one to
        #: leave releases (run() holds it while any is alive)
        self._threads_alive = 0
        self._count_lock = _thread.allocate_lock()
        self._all_left = _thread.allocate_lock()
        self._started = False
        self._events_dispatched = 0
        self._max_events = max_events
        self._current: Optional[_Proc] = None

    def stats(self) -> dict:
        """Engine-level counters for observability exports."""
        return {
            "events_dispatched": self._events_dispatched,
            "processes": len(self._procs),
            "now_us": self.now,
        }

    # -- process management -------------------------------------------

    def add_process(self, name: str, fn: Callable[[], object]) -> None:
        if self._started:
            raise SimError("cannot add processes after run() started")
        self._procs.append(_Proc(self, name, fn))

    def run(self) -> float:
        """Run to completion; return final simulated time (microseconds)."""
        if self._started:
            raise SimError("Engine.run() called twice")
        self._started = True
        if not self._procs:
            return self.now
        self._all_left.acquire()
        self._threads_alive = len(self._procs)
        for proc in self._procs:
            _thread.start_new_thread(proc._body, ())
            self._schedule(0.0, proc)
        self._dispatch_next()
        self._main_baton.wait()
        if not self._all_left.acquire(timeout=30.0):  # pragma: no cover - defensive
            raise SimError(
                f"{self._threads_alive} simulation thread(s) failed to exit"
            )
        if self._failure is not None:
            raise self._failure
        return self.now

    def _thread_left(self) -> None:
        """Called by every rank thread as its last act."""
        with self._count_lock:
            self._threads_alive -= 1
            last = self._threads_alive == 0
        if last:
            self._all_left.release()

    # -- scheduling core (only ever touched by the single running
    #    thread, or by main before dispatch starts) --------------------

    def _schedule(self, time: float, proc: _Proc) -> None:
        heappush(self._heap, (time, next(self._seq), proc, proc.epoch))

    def _dispatch_next(self, parking: Optional[_Proc] = None) -> bool:
        """Hand the baton to the earliest scheduled process (or finish).

        Returns True when the caller (``parking``) must *not* block: the
        popped event was its own (direct handoff — continue inline) or the
        simulation is tearing down (the caller re-checks ``_failure`` and
        raises).  Returns False after waking another process.
        """
        if self._failure is not None:
            # teardown already in progress; wake main.
            self._main_baton.set()
            return True
        self._events_dispatched += 1
        if self._events_dispatched > self._max_events:
            self._fail(SimError(f"event budget exceeded ({self._max_events})"))
            return True
        while self._heap:
            time, _, proc, epoch = heappop(self._heap)
            if epoch != proc.epoch:
                # stale entry: the process was already woken through a
                # different event (e.g. a flag fired before its deadline
                # timer, or vice versa) — skip it.
                continue
            if time > self.now:
                self.now = time
            self._current = proc
            proc.epoch += 1
            if proc is parking:
                return True
            proc.wake.release()
            return False
        live = [p for p in self._procs if not p.finished]
        if not live:
            self._main_baton.set()
            return False
        self._fail(DeadlockError({p.name: p.blocked_on or "?" for p in live}))
        return True

    def _proc_exited(self, proc: _Proc) -> None:
        self._dispatch_next()

    def _fail(self, exc: BaseException) -> None:
        """Abort the simulation: record the error, unwind every thread."""
        if self._failure is None:
            self._failure = exc
        for proc in self._procs:
            # parked threads wake, see _failure, and raise _Kill; the
            # _kill_sent guard keeps the one-release-per-park invariant
            # if _fail is ever re-entered during teardown
            if not proc.finished and not proc._kill_sent:
                proc._kill_sent = True
                try:
                    proc.wake.release()
                except RuntimeError:  # pragma: no cover - mid-handoff race
                    pass
        self._main_baton.set()

    # -- blocking primitives (called from rank threads) -----------------

    def current_proc(self) -> _Proc:
        proc = self._current
        if proc is None:  # pragma: no cover - defensive
            raise SimError("no process is running")
        return proc

    def wait_until(self, time: float, reason: str = "timer") -> None:
        """Block the calling process until virtual ``time``."""
        proc = self._current
        if proc is None:  # pragma: no cover - defensive
            raise SimError("no process is running")
        if time <= self.now:
            return
        heap = self._heap
        if not heap or time < heap[0][0]:
            # direct handoff to self: no other event can run before
            # ``time``, so a schedule/park round-trip would pop this very
            # process — advance the clock inline instead.  The event
            # budget is still charged so runaway single-process loops are
            # caught exactly as before.
            self._events_dispatched += 1
            if self._events_dispatched > self._max_events:
                self._fail(SimError(f"event budget exceeded ({self._max_events})"))
                raise _Kill()
            self.now = time
            return
        self._schedule(time, proc)
        proc.park(reason)

    def sleep(self, duration: float, reason: str = "sleep") -> None:
        if duration < 0:
            raise SimError(f"negative sleep {duration}")
        self.wait_until(self.now + duration, reason)

    def wait_flag(self, flag: Flag, reason: Optional[str] = None) -> None:
        """Block until ``flag`` fires; resume at its ready_time."""
        ready = flag.ready_time
        if ready is not None:
            # already fired: either a pure time advance or a no-op
            if ready > self.now:
                self.wait_until(ready, reason or flag.label)
            return
        proc = self.current_proc()
        flag._waiters.append(proc)
        proc.park(reason or flag.label)

    def wait_flag_deadline(
        self, flag: Flag, deadline: float, reason: Optional[str] = None
    ) -> bool:
        """Block until ``flag`` fires or virtual ``deadline`` passes.

        Returns True when the flag completed at or before ``deadline``
        (the caller resumes at the usual wake time); returns False on
        timeout (the caller resumes at ``deadline`` and is no longer
        registered as a waiter, so a later fire cannot wake it).

        Implemented with *two* heap entries — the deadline timer and the
        eventual flag wake — relying on epoch-based lazy cancellation in
        :meth:`_dispatch_next` to discard whichever loses the race.
        """
        ready = flag.ready_time
        if ready is not None:
            if ready <= deadline:
                if ready > self.now:
                    self.wait_until(ready, reason or flag.label)
                return True
            if deadline > self.now:
                self.wait_until(deadline, reason or flag.label)
            return False
        if deadline <= self.now:
            return False
        proc = self.current_proc()
        flag._waiters.append(proc)
        self._schedule(deadline, proc)
        proc.park(reason or flag.label)
        ready = flag.ready_time
        if ready is not None and ready <= deadline:
            return True
        # timed out (or the flag fired past the deadline): deregister so
        # a later fire cannot deliver a spurious wake into an unrelated
        # park of this process.
        try:
            flag._waiters.remove(proc)
        except ValueError:
            pass
        return False

    def new_flag(self, label: str = "flag") -> Flag:
        return Flag(self, label)
