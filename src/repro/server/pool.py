"""Worker pool: coalesced batches in, scattered answers out.

:class:`ThreadWorkerPool` runs N worker threads over one bounded
queue, each owning one *replica* — any object with ``lookup_batch``
and ``on_commit``.  There are two replica kinds and one pool:

* an in-thread :class:`~repro.engine.BatchEngine` (its own compiled
  plan over the shared committed structure).  Worker threads share the
  interpreter lock, and a lane kernel is a run of short NumPy calls (83
  profile-visible ones for RESAIL since PR 19, 304 before), each of
  which drops the lock once a batch passes 500 elements, so two of
  them do not add up.  Measured on the 2-core sandbox (PR 19,
  ``docs/serving.md``): one thread doing everything a 512-address batch
  of the saturate workload needs — the kernel and its 32 requests'
  bookkeeping — takes 0.18 + 32 x 0.009 = 0.47 ms, 1.1 M lookups/s if
  it did nothing else; the server with two worker threads delivers
  260 k/s, 24 % of that (PR 17: 0.52 + 32 x 0.009 = 0.81 ms, 630 k/s,
  185 k/s delivered, 29 %), and the pool alone (whole 512-address
  requests, two outstanding) reads 1.5-1.9 us/lookup where the engine
  on one thread reads 0.38-0.41 (PR 17: 4.3-5.3 against 1.0).  Two
  threads looping nothing but the kernel at n = 512 cost 0.57-0.61 ms
  per batch in aggregate against 0.25 for one (PR 17: 1.9-2.3 against
  0.65-0.72);
* a :class:`~repro.server.procpool.ForkedReplica` — the same engine in
  a forked child behind a pipe, which takes the kernel off the parent's
  interpreter lock altogether.  The worker thread blocks on the round
  trip.

A worker that finds the queue empty marks itself waiting before it
blocks on it and calls ``on_idle`` (the coalescer's
:meth:`~repro.server.coalescer.RequestCoalescer.worker_idle`);
:meth:`ThreadWorkerPool.has_idle_worker` reads those marks.  Both
replica kinds sit behind the same worker threads, so a forked replica's
worker waits and reports the same way.

A replica may also offer ``restart()`` (called before its worker
thread is started or replaced) and ``close()`` (called once the
threads are joined); the pool looks both up outside the serving loop.

Backpressure is the queue bound plus a policy:

* ``"block"`` — :meth:`submit` blocks until a slot frees (the
  coalescer's dispatcher stalls, submitters pile up behind its lock:
  classic end-to-end backpressure);
* ``"shed"`` — :meth:`submit` returns ``False`` immediately and the
  coalescer fails the batch's requests with ``RequestShed``.

Consistency is the :class:`CommitGate`: workers execute every batch
inside a *read* section; a commit takes the *write* side, which waits
for in-flight batches to finish, swaps/refreshes every replica, bumps
the serving epoch, and only then lets new batches through.  A batch
therefore executes entirely within one epoch — it can never observe a
half-applied update.

Failure semantics (the fault model ``docs/robustness.md`` documents):

* an **engine exception** fails the batch's futures with that error and
  the worker keeps serving — clients see a typed error, never a hang;
* a **worker crash** (:class:`~repro.server.coalescer.WorkerCrash`, or
  any exception escaping the worker loop itself) leaves the batch
  *unscattered* and exits the thread; the ``on_worker_exit`` callback
  hands the orphaned batch (as a list, empty when none) to the
  supervisor, which re-queues it on a surviving worker and restarts
  the dead one within its budget.  A
  bare pool (no supervisor wired) fails the orphan instead of losing
  it — every accepted batch resolves either way.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, List, Optional, Sequence

from .coalescer import (
    CoalescedBatch,
    PendingLookup,
    RequestShed,
    ServerError,
    WorkerCrash,
)

__all__ = ["CommitGate", "ThreadWorkerPool"]

#: Queue sentinel asking a worker to exit (after draining ahead of it).
_STOP = object()


class CommitGate:
    """A readers/writer gate: batches are readers, commits are writers.

    Writer-preferring: once a commit is waiting, new batches queue up
    behind it, so a steady request stream cannot starve updates.
    Unbalanced releases raise :class:`ServerError` instead of silently
    corrupting the reader count — a double ``release_read`` (or a
    ``release_write`` without the write side held) is always a bug in
    the caller, and a negative reader count would let a commit proceed
    with batches still in flight.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writer_active = False

    # Reader side -------------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise ServerError(
                    "release_read without a matching acquire_read")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # Writer side -------------------------------------------------------
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise ServerError(
                    "release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    # Context-manager sugar --------------------------------------------
    class _Section:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc):
            self._release()

    def read(self) -> "_Section":
        return self._Section(self.acquire_read, self.release_read)

    def write(self) -> "_Section":
        return self._Section(self.acquire_write, self.release_write)


class ThreadWorkerPool:
    """N engine replicas pulling coalesced batches off a bounded queue."""

    def __init__(
        self,
        engines: Sequence,
        *,
        queue_depth: int = 32,
        overload: str = "block",
        gate: Optional[CommitGate] = None,
        epoch_of: Optional[Callable[[], int]] = None,
        on_done: Optional[Callable[[CoalescedBatch,
                                    List[PendingLookup]], None]] = None,
        on_depth: Optional[Callable[[int], None]] = None,
        on_error: Optional[Callable[[CoalescedBatch,
                                     BaseException], None]] = None,
        on_worker_exit: Optional[Callable[[int, BaseException,
                                           List[CoalescedBatch]],
                                          None]] = None,
        on_idle: Optional[Callable[[], None]] = None,
        clock=None,
    ):
        if not engines:
            raise ValueError("need at least one worker engine")
        if overload not in ("block", "shed"):
            raise ValueError(f"unknown overload policy {overload!r}")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.engines = list(engines)
        self.overload = overload
        self.gate = gate if gate is not None else CommitGate()
        self._epoch_of = epoch_of or (lambda: 0)
        self._on_done = on_done
        self._on_depth = on_depth
        self._on_error = on_error
        self._on_worker_exit = on_worker_exit
        self._on_idle = on_idle
        #: Optional clock for span phase marks; ``None`` keeps the hot
        #: loop free of per-batch clock reads entirely.
        self._clock = clock
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._threads: Dict[int, threading.Thread] = {}
        #: Per worker: blocked (or about to block) on an empty queue.
        #: Each worker writes only its own slot, so no lock.
        self._waiting = [False] * len(self.engines)
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self.engines)

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def alive(self) -> bool:
        return any(t.is_alive() for t in self._threads.values())

    def has_idle_worker(self) -> bool:
        """Whether some worker is waiting on an empty queue."""
        return True in self._waiting and not self._queue.qsize()

    def alive_workers(self) -> int:
        """How many worker threads are currently running."""
        return sum(1 for t in self._threads.values() if t.is_alive())

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lifecycle:
            if self._started:
                return
            self._started = True
            for i in range(len(self.engines)):
                self._spawn(i)

    def _spawn(self, worker: int) -> None:
        """Start (or replace) worker ``worker``'s thread, over a
        freshly restarted replica when the replica has a ``restart``
        hook.  Caller holds ``_lifecycle``."""
        restart = getattr(self.engines[worker], "restart", None)
        if restart is not None:
            restart()
        thread = threading.Thread(
            target=self._run, args=(worker, self.engines[worker]),
            name=f"repro-serve-w{worker}", daemon=True)
        self._threads[worker] = thread
        thread.start()

    def restart_worker(self, worker: int) -> bool:
        """Replace a dead worker's thread; ``False`` if it is still
        alive, the index is unknown, or the pool is closed."""
        with self._lifecycle:
            if self._closed or not self._started:
                return False
            if not 0 <= worker < len(self.engines):
                return False
            thread = self._threads.get(worker)
            if thread is not None and thread.is_alive():
                return False
            self._spawn(worker)
            return True

    def submit(self, batch: CoalescedBatch) -> bool:
        """Enqueue a batch; ``False`` means the shed policy refused it."""
        if not self._started or self._closed:
            raise ServerError("worker pool is not running")
        if self.overload == "shed":
            try:
                self._queue.put_nowait(batch)
            except queue.Full:
                return False
        else:
            self._queue.put(batch)
        if self._closed:
            # Raced a concurrent close(): the workers may already be
            # gone.  Sweep the queue so the batch resolves either way.
            self._fail_leftovers(ServerError("server closed during submit"))
        self._note_depth()
        return True

    def requeue(self, batch: CoalescedBatch) -> bool:
        """Put an orphaned batch (dead worker) back on the queue.

        Never blocks — the caller may be the dying worker itself.  On a
        full queue or a closed pool the batch is *failed*, not dropped:
        re-queue preserves exactly-once delivery, and when it can't,
        the futures still resolve with a typed error.
        """
        if self._closed:
            batch.fail(ServerError("server closed before serving"))
            return False
        # Counted before the enqueue so the re-execution (and its root
        # span) always sees the bumped retry count.
        batch.meta["retries"] = batch.meta.get("retries", 0) + 1
        try:
            self._queue.put_nowait(batch)
        except queue.Full:
            batch.fail(RequestShed(
                f"worker died and the re-queue of its batch of "
                f"{len(batch)} found the queue full"))
            return False
        self._note_depth()
        return True

    def close(self, drain: bool = True) -> None:
        """Stop the workers.

        ``drain=True`` lets every queued batch finish first (the stop
        sentinels queue FIFO behind them); ``drain=False`` fails the
        queued batches with :class:`ServerError` and stops as soon as
        the in-flight ones complete.  Idempotent and safe to call
        concurrently (with other closers and with ``submit``).
        """
        with self._lifecycle:
            if not self._started or self._closed:
                self._closed = True
                return
            self._closed = True
            threads = list(self._threads.values())
        if not drain:
            self._fail_leftovers(ServerError("server closed before serving"))
        for _ in threads:
            self._queue.put(_STOP)
        for thread in threads:
            thread.join()
        # Crashed workers (or submits racing the close) can leave
        # batches behind the sentinels; nothing will serve them now.
        self._fail_leftovers(ServerError("server closed before serving"))
        for engine in self.engines:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        self._note_depth()

    def _fail_leftovers(self, error: ServerError) -> None:
        # A sweep racing close() can dequeue stop sentinels meant for
        # the workers; they must go back or a worker blocks in get()
        # forever (and close() then hangs joining it).
        sentinels = 0
        while True:
            try:
                batch = self._queue.get_nowait()
            except queue.Empty:
                break
            if batch is _STOP:
                sentinels += 1
            else:
                batch.fail(error)
        for _ in range(sentinels):
            self._queue.put(_STOP)

    # ------------------------------------------------------------------
    def on_commit(self, outcome: str, algo, touched, delta=None) -> None:
        """Refresh every replica after a landed commit.

        Must be called with the gate's write side held (the server's
        commit handler does), so no batch is mid-execution.  ``delta``
        (the committed :class:`~repro.control.FibDelta`, when the
        runtime applied in place) lets each replica patch its compiled
        plans instead of recompiling them.

        A replica's ``on_commit`` may return a wait for work it only
        started (a forked replica's ack): every replica is told first,
        then every wait runs, so N children apply one commit in
        parallel.  ``_lifecycle`` is held while the replicas are told:
        a restart either finishes first (and its replica is told this
        commit) or starts after (and comes up from it) — a replacement
        can never come up serving a stale table at the new epoch.
        """
        with self._lifecycle:
            waits = [engine.on_commit(outcome, algo, touched, delta=delta)
                     for engine in self.engines]
        for wait in waits:
            if wait is not None:
                wait()

    # ------------------------------------------------------------------
    def _note_depth(self) -> None:
        if self._on_depth is not None:
            self._on_depth(self._queue.qsize())

    def _run(self, worker: int, engine) -> None:
        batch: Optional[CoalescedBatch] = None
        get_nowait, get = self._queue.get_nowait, self._queue.get
        waiting, on_idle = self._waiting, self._on_idle
        try:
            while True:
                try:
                    batch = get_nowait()
                except queue.Empty:
                    waiting[worker] = True
                    if on_idle is not None:
                        on_idle()
                    batch = get()
                    waiting[worker] = False
                if batch is _STOP:
                    return
                self._note_depth()
                clock = self._clock
                try:
                    meta = batch.meta
                    if clock is not None:
                        meta["worker"] = worker
                        meta["picked_at"] = clock.now()
                    with self.gate.read():
                        # The epoch is stable for the whole read section
                        # — commits bump it only under the write side.
                        epoch = self._epoch_of()
                        if clock is not None:
                            meta["gate_at"] = clock.now()
                        hops = engine.lookup_batch(batch.addresses)
                        if clock is not None:
                            meta["executed_at"] = clock.now()
                    # complete() runs inside the try: a scatter error
                    # (wrong hop count, a raising on_done) must fail
                    # the futures and count, never kill the thread
                    # silently with requests left hanging.
                    finished = batch.complete(hops, epoch)
                    if clock is not None:
                        meta["scattered_at"] = clock.now()
                    if self._on_done is not None:
                        self._on_done(batch, finished)
                except WorkerCrash:
                    # A simulated (or real) crash: the batch is still
                    # unscattered — escape the loop so the supervisor
                    # can re-queue it and restart this worker.
                    raise
                except BaseException as exc:  # noqa: BLE001 — fail, don't hang
                    batch.fail(exc)
                    if self._on_error is not None:
                        self._on_error(batch, exc)
                batch = None
        except BaseException as exc:  # noqa: BLE001 — worker death
            waiting[worker] = False
            orphans = [batch] if batch is not None and batch is not _STOP \
                else []
            if self._on_error is not None:
                self._on_error(orphans[0] if orphans else None, exc)
            if self._on_worker_exit is not None:
                self._on_worker_exit(worker, exc, orphans)
            else:
                # No supervisor: the orphan must still resolve.
                for orphan in orphans:
                    orphan.fail(exc)
