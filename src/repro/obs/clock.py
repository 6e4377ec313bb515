"""Clock abstraction: monotonic time + cancellable deadline timers.

``repro.obs`` is the only package under ``repro`` allowed to touch
``time`` (see ``tests/test_telemetry_audit.py``), so anything else
that needs a notion of *now* — most importantly the serving
frontend's request coalescer, whose deadline trigger flushes a
half-full batch after ``max_wait`` — goes through a :class:`Clock`.

Two implementations:

* :class:`MonotonicClock` — the real thing.  ``now()`` is
  ``time.monotonic()``; ``call_at(when, fn)`` arms a daemonic
  :class:`threading.Timer` that fires ``fn`` once the deadline
  passes.
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

import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional, Tuple

__all__ = ["Clock", "MonotonicClock", "FakeClock", "TimerHandle"]


class TimerHandle:
    """A cancellable one-shot timer returned by :meth:`Clock.call_at`."""

    __slots__ = ("_cancel", "_cancelled")

    def __init__(self, cancel: Optional[Callable[[], None]] = None):
        self._cancel = cancel
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        if self._cancel is not None:
            self._cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


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


class MonotonicClock(Clock):
    """Real wall-clock time (monotonic, immune to clock steps)."""

    #: ``time.monotonic`` itself rather than a method around it: the
    #: serving path reads the clock on every request.
    now = staticmethod(time.monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle()

        def fire() -> None:
            if not handle.cancelled:
                callback()

        timer = threading.Timer(max(0.0, when - self.now()), fire)
        timer.daemon = True
        handle._cancel = timer.cancel
        timer.start()
        return handle


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
        self._sequence = itertools.count()
        self._timers: List[Tuple[float, int, Callable[[], None], TimerHandle]] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle()
        with self._lock:
            heapq.heappush(
                self._timers,
                (float(when), next(self._sequence), callback, handle),
            )
        return handle

    def sleep(self, seconds: float) -> None:
        """Virtual sleep: advances the clock (fires due timers)."""
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration ({seconds})")
        self.advance(seconds)

    def pending_timers(self) -> int:
        """Armed (uncancelled) timers — a determinism probe for tests."""
        with self._lock:
            return sum(1 for *_rest, handle in self._timers
                       if not handle.cancelled)

    def advance(self, dt: float) -> None:
        """Move virtual time forward, firing due timers in order."""
        if dt < 0:
            raise ValueError(f"cannot advance time backwards ({dt})")
        with self._lock:
            target = self._now + dt
        while True:
            with self._lock:
                if not self._timers or self._timers[0][0] > target:
                    self._now = target
                    break
                when, _seq, callback, handle = heapq.heappop(self._timers)
                # Time reaches the deadline before the callback runs.
                self._now = max(self._now, when)
            if not handle.cancelled:
                callback()
