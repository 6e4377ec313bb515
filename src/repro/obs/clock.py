"""Clock abstraction: monotonic time + cancellable deadline timers.

``repro.obs`` is the only package under ``repro`` allowed to touch
``time`` (see ``tests/test_telemetry_audit.py``), so anything else
that needs a notion of *now* — most importantly the serving
frontend's request coalescer, whose deadline trigger flushes a
half-full batch after ``max_wait`` — goes through a :class:`Clock`.

Both implementations keep their timers in one shared structure, a
deadline heap of ``(when, seq, handle)`` entries: ordered by deadline,
ties by arming order.  ``cancel()`` only drops the handle's callback;
the heap discards a cancelled entry when it reaches the head, or in a
sweep once pushes outnumber the live entries two to one, so deadlines
armed and cancelled by the thousand never pile up.

* :class:`MonotonicClock` — the real thing.  ``now()`` is
  ``time.monotonic()``; ``call_at(when, fn)`` pushes onto the heap of
  the process's **one timer thread**, a daemon that sleeps on a
  condition until the head falls due (arming wakes it only when the
  new deadline is the new head).  Arming is a heap push, not a thread
  start: the serving frontend arms a deadline per coalesced batch and
  cancels almost all of them.

  Due callbacks run on reused daemon *runner* threads, never on the
  timer thread, and a new runner starts only while every runner is
  busy.  So a callback that blocks holds up no other timer — the case
  that matters is the coalescer's deadline drain under
  ``overload="block"`` waiting on a full queue, which may be waiting
  on a supervisor restart that is itself a timer.  (Not a
  ``ThreadPoolExecutor``: its workers are joined at interpreter exit,
  so one blocked callback would hang shutdown.)  A callback that raises
  is reported through :func:`threading.excepthook`, like an uncaught
  exception in any thread, and the timers go on.

  Timers are the arming process's, like its threads: a forked child
  inherits none of them, and its first ``call_at`` starts the child's
  own timer thread.
* :class:`FakeClock` — a deterministic shim for tests.  Time only
  moves when the test calls :meth:`FakeClock.advance`, which runs any
  timers that came due *synchronously on the advancing thread*, in
  deadline order, with ``now()`` pinned to each timer's deadline while
  it runs.  No test that uses it ever sleeps on the wall clock.

Both give the same contract: timers fire at most once, ``cancel()``
before firing suppresses the callback, and callbacks run without any
clock-internal lock held (so they may re-arm new timers freely).
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

__all__ = ["Clock", "MonotonicClock", "FakeClock", "TimerHandle"]


class TimerHandle:
    """A cancellable one-shot timer returned by :meth:`Clock.call_at`."""

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[], None]):
        self._callback: Optional[Callable[[], None]] = callback

    def cancel(self) -> None:
        """Suppress the callback unless it already started.  Drops the
        reference to it at once, so a cancelled timer keeps nothing its
        callback closed over alive."""
        self._callback = None

    @property
    def cancelled(self) -> bool:
        return self._callback is None


#: The fewest pushes between two sweeps of cancelled entries.
_SWEEP_FLOOR = 1024

_Entry = Tuple[float, int, TimerHandle]


class _TimerHeap:
    """Deadline-ordered one-shot timers; the owning clock holds its
    lock around every call."""

    __slots__ = ("_entries", "_seq", "_sweep_at")

    def __init__(self) -> None:
        self._entries: List[_Entry] = []
        self._seq = 0
        self._sweep_at = _SWEEP_FLOOR

    def push(self, when: float,
             callback: Callable[[], None]) -> Tuple[TimerHandle, bool]:
        """Arm a timer: its handle, and whether it is the new head."""
        handle = TimerHandle(callback)
        seq = self._seq = self._seq + 1
        entries = self._entries
        heappush(entries, (when, seq, handle))
        first = entries[0][2] is handle
        if seq >= self._sweep_at:
            # Amortised O(1): the sweep is O(heap), and the next one is
            # at least twice the surviving entries' worth of pushes away.
            live = [entry for entry in entries
                    if entry[2]._callback is not None]
            heapify(live)
            self._entries = live
            self._sweep_at = seq + max(_SWEEP_FLOOR, 2 * len(live))
        return handle, first

    def head(self) -> Optional[float]:
        """The earliest live deadline (``None`` when there is none),
        dropping the cancelled entries ahead of it."""
        entries = self._entries
        while entries and entries[0][2]._callback is None:
            heappop(entries)
        return entries[0][0] if entries else None

    def pop_due(self, now: float) -> Optional[_Entry]:
        """Remove and return the earliest live entry if it is due."""
        when = self.head()
        if when is None or when > now:
            return None
        return heappop(self._entries)

    def pending(self) -> int:
        """Armed, uncancelled timers."""
        return sum(1 for *_rest, handle in self._entries
                   if handle._callback is not None)


class Clock:
    """Interface: a monotonic ``now()`` plus one-shot deadline timers."""

    def now(self) -> float:
        raise NotImplementedError

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Arrange for ``callback()`` once ``now() >= when``."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread until ``seconds`` have passed.

        The retry/backoff primitive for code outside ``repro.obs``
        (which may not import ``time``): :class:`MonotonicClock` really
        sleeps; :class:`FakeClock` advances virtual time instead, so a
        test's retry loop runs instantly and any timers due within the
        backoff window fire synchronously, in order.
        """
        raise NotImplementedError


class _TimerThread:
    """The process's timer thread, and the runners it hands due
    callbacks to."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._heap = _TimerHeap()
        self._jobs: "queue.SimpleQueue[TimerHandle]" = queue.SimpleQueue()
        self._idle = 0  # runners waiting on _jobs (under _lock)
        threading.Thread(target=self._run, name="repro-clock",
                         daemon=True).start()

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        with self._lock:
            handle, first = self._heap.push(when, callback)
            if first:
                self._wake.notify()
        return handle

    def _run(self) -> None:
        heap, wake, monotonic = self._heap, self._wake, time.monotonic
        while True:
            with self._lock:
                entry = heap.pop_due(monotonic())
                while entry is None:
                    when = heap.head()
                    wake.wait(None if when is None else when - monotonic())
                    entry = heap.pop_due(monotonic())
                idle = self._idle
                if idle:
                    self._idle = idle - 1
            self._jobs.put(entry[2])
            entry = None
            if not idle:
                # No arguments: a runner never returns, so a Thread's
                # stored args would keep its first callback alive.
                threading.Thread(target=self._runner,
                                 name="repro-clock-runner",
                                 daemon=True).start()

    def _runner(self) -> None:
        while True:
            handle = self._jobs.get()
            callback = handle._callback
            if callback is not None:
                try:
                    callback()
                except Exception:
                    # Reported as an uncaught exception in a thread
                    # would be, and this runner stays in service.
                    threading.excepthook(threading.ExceptHookArgs(
                        (*sys.exc_info(), threading.current_thread())))
            callback = handle = None
            with self._lock:
                self._idle += 1


_timer_thread: Optional[_TimerThread] = None
_timer_thread_start = threading.Lock()


def _process_timer_thread() -> _TimerThread:
    global _timer_thread
    with _timer_thread_start:
        if _timer_thread is None:
            _timer_thread = _TimerThread()
        return _timer_thread


def _forget_parent_timers() -> None:
    """In a forked child: the parent's timer thread did not come along
    (and its locks may have been held at the fork), so the child's
    first ``call_at`` starts its own."""
    global _timer_thread, _timer_thread_start
    _timer_thread, _timer_thread_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_timers)


class MonotonicClock(Clock):
    """Real wall-clock time (monotonic, immune to clock steps)."""

    #: ``time.monotonic`` itself rather than a method around it: the
    #: serving path reads the clock on every request.
    now = staticmethod(time.monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        timers = _timer_thread
        if timers is None:
            timers = _process_timer_thread()
        return timers.call_at(when, callback)


class FakeClock(Clock):
    """Virtual time for deterministic tests: advances only on demand.

    Thread-safe; due callbacks run on the thread calling
    :meth:`advance`, outside the clock's lock, with ``now()`` set to
    the timer's deadline (so a callback that re-arms ``now() + wait``
    schedules relative to its own due time, exactly like a real timer
    wheel).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self._timers = _TimerHeap()

    def now(self) -> float:
        with self._lock:
            return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        with self._lock:
            return self._timers.push(float(when), callback)[0]

    def sleep(self, seconds: float) -> None:
        """Virtual sleep: advances the clock (fires due timers)."""
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration ({seconds})")
        self.advance(seconds)

    def pending_timers(self) -> int:
        """Armed (uncancelled) timers — a determinism probe for tests."""
        with self._lock:
            return self._timers.pending()

    def advance(self, dt: float) -> None:
        """Move virtual time forward, firing due timers in order."""
        if dt < 0:
            raise ValueError(f"cannot advance time backwards ({dt})")
        with self._lock:
            target = self._now + dt
        while True:
            with self._lock:
                entry = self._timers.pop_due(target)
                if entry is None:
                    self._now = target
                    break
                # Time reaches the deadline before the callback runs.
                self._now = max(self._now, entry[0])
            callback = entry[2]._callback
            if callback is not None:
                callback()
