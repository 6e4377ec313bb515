"""The load generator: one generator thread plus one reaper thread.

The calling thread generates; a second thread reaps.  Neither ever
spins: the closed loop blocks on a semaphore the reaper releases, the
open loop paces with ``time.sleep`` only, and the reaper blocks on each
handle's own event.  A spinning generator holds the interpreter lock
the server's workers need and inflates every latency it measures.

``submit`` is any callable taking a request (a list of addresses) and
returning a handle with ``wait(timeout) -> bool``; the benchmark passes
``LookupServer.submit``, the instrument check passes :func:`stub_submit`.
"""

from __future__ import annotations

import collections
import queue
import threading
from time import perf_counter, sleep

#: A request not answered within this many seconds counts as failed.
WAIT_S = 10.0


class Round:
    """What the generator and the reaper saw during one pass.

    ``latency_s[i]`` runs from submit (closed loop) or from the due
    time (open loop) to the moment the reaper saw handle ``i`` complete.
    ``lateness_s[i]`` is how late request ``i`` was sent: after its slot
    in the window freed (closed loop) or after its due time (open loop).
    ``submit_s[i]`` is the ``(start, end)`` of the submit call itself,
    recorded only when tracing.
    """

    def __init__(self, requests, traced):
        n = len(requests)
        self.requests = requests
        self.lookups = sum(len(request) for request in requests)
        self.handles = [None] * n
        self.latency_s = [0.0] * n
        self.lateness_s = [0.0] * n
        self.sent_s = [0.0] * n
        self.done_s = [0.0] * n
        self.submit_s = [None] * n if traced else None
        self.backlog_max = 0
        self.wall_s = 0.0


class _Raised:
    """Stands in for the handle of a request whose submit call raised."""

    def __init__(self, error):
        self.error = error

    def wait(self, timeout=None):
        return True

    def result(self, timeout=None):
        raise self.error


class _Reaper:
    """Waits on handles in submission order and stamps their completion."""

    def __init__(self, rnd, on_done=None):
        self.inbox = queue.SimpleQueue()
        self.reaped = 0
        self._rnd = rnd
        self._on_done = on_done
        # Daemonic: if the generator raises, the run must end, not hang
        # on a reaper still waiting for handles that will never come.
        self._thread = threading.Thread(target=self._run, name="bench-reaper",
                                        daemon=True)
        self._thread.start()

    def _run(self):
        done_s = self._rnd.done_s
        on_done = self._on_done
        for i in range(len(done_s)):
            self.inbox.get().wait(WAIT_S)
            now = perf_counter()
            done_s[i] = now
            self.reaped = i + 1
            if on_done is not None:
                on_done(now)

    def join(self):
        self._thread.join()


def _submit(submit, request):
    try:
        return submit(request)
    except Exception as error:  # the request counts as failed, the run goes on
        return _Raised(error)


def closed_loop(submit, requests, window, every=0, tick=None, traced=False):
    """Keep ``window`` requests outstanding until ``requests`` are sent.

    ``tick(i)`` runs on the generator thread before request ``i`` in the
    middle of every run of ``every`` requests (the workloads commit a
    churn batch there, never at a round's idle edges), so its cost is
    inside the round's wall time and reads stall behind it exactly as a
    caller's would.
    """
    rnd = Round(requests, traced)
    slots = threading.Semaphore(window)
    start = perf_counter()
    freed = collections.deque([start] * window)

    def on_done(now):
        freed.append(now)
        slots.release()

    reaper = _Reaper(rnd, on_done)
    put = reaper.inbox.put
    for i, request in enumerate(requests):
        slots.acquire()
        if every and i % every == every // 2:
            tick(i)
        freed_at = freed.popleft()
        sent = perf_counter()
        handle = _submit(submit, request)
        if traced:
            rnd.submit_s[i] = (sent, perf_counter())
        rnd.handles[i] = handle
        rnd.sent_s[i] = sent
        rnd.lateness_s[i] = sent - freed_at
        put(handle)
    reaper.join()
    rnd.wall_s = perf_counter() - start
    rnd.backlog_max = min(window, len(requests))
    rnd.latency_s = [done - sent for done, sent in zip(rnd.done_s, rnd.sent_s)]
    return rnd


def open_loop(submit, requests, rate, traced=False):
    """Send request ``i`` at ``start + i / rate`` whatever the server does.

    Latency is timed from the due time, so a stall charges every request
    it delays; ``lateness_s`` and ``backlog_max`` say whether the
    generator itself kept the schedule.
    """
    rnd = Round(requests, traced)
    reaper = _Reaper(rnd)
    put = reaper.inbox.put
    interval = 1.0 / rate
    due_s = [0.0] * len(requests)
    start = perf_counter()
    for i, request in enumerate(requests):
        due = start + i * interval
        sent = perf_counter()
        if sent < due:
            sleep(due - sent)
            sent = perf_counter()
        handle = _submit(submit, request)
        if traced:
            rnd.submit_s[i] = (sent, perf_counter())
        rnd.handles[i] = handle
        rnd.sent_s[i] = sent
        due_s[i] = due
        rnd.lateness_s[i] = sent - due
        backlog = i + 1 - reaper.reaped
        if backlog > rnd.backlog_max:
            rnd.backlog_max = backlog
        put(handle)
    reaper.join()
    rnd.wall_s = perf_counter() - start
    rnd.latency_s = [done - due for done, due in zip(rnd.done_s, due_s)]
    return rnd


class _Answered:
    """A handle that is complete the moment it is returned."""

    def wait(self, timeout=None):
        return True


_ANSWERED = _Answered()


def stub_submit(request):
    """A server that costs nothing: what is left is the generator."""
    return _ANSWERED
