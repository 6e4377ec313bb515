"""Request coalescing: many small requests in, engine-sized batches out.

The serving frontend's traffic shaper.  Logical clients submit single
addresses or small batches; the coalescer packs them — in strict FIFO
order — into batches of at most ``max_batch`` addresses and hands each
batch to a ``sink`` (the worker pool) when one of three triggers fires:

* **size** — the open batch reached ``max_batch`` addresses;
* **idle** — a worker is waiting on an empty queue, and at the current
  arrival rate the open batch would not reach ``max_batch`` before its
  deadline (with ``FILL_MARGIN`` to spare), so waiting would only add
  latency.  Checked when a request leaves a batch open and when a
  worker finds the queue empty (:meth:`RequestCoalescer.worker_idle`);
* **deadline** — ``max_wait_s`` elapsed since the first address
  entered the open batch (armed through a :class:`repro.obs.Clock`,
  so tests drive it with a :class:`repro.obs.FakeClock` and never
  sleep on the wall clock).  ``max_wait_s`` is the longest a batch
  waits; the idle trigger only ever cuts sooner.

The arrival rate is a moving average of the seconds between requests
per address they carry, taken from the ``submitted_at`` stamps every
request gets anyway.  It is unknown until the second request, and
unknown means wait: requests submitted back to back coalesce by size
exactly as they would without the idle trigger.

Each submission returns a :class:`PendingLookup` — a future-like
handle that resolves once every address it carried has been answered.
A request larger than the space left in the open batch spans batches;
results are scattered back by slot, so a request's answers always come
back in its own submission order no matter how it was split.

The sink returns ``False`` to refuse a batch (shed-on-overload); the
coalescer then fails that batch's requests with :class:`RequestShed`
so callers never hang.  Every *accepted* request is resolved exactly
once: answered, shed, or — on a non-draining close — failed with
:class:`ServerClosed`.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.clock import Clock, MonotonicClock, TimerHandle

#: Weight of the newest request in the arrival-rate moving average of
#: seconds between requests per address.  Measured on a 2-core host
#: with ``bench/`` traffic: the saturate closed loop submits its
#: 16-address requests ~80 µs apart (~5 µs per address), and the pause
#: between two rounds is one sample clamped to ``max_wait_s`` (125 µs
#: per address).  At 1/32 that pause lifts the average by ~4 µs, far
#: below the ~16 µs per address a fresh batch needs to read sparse
#: under ``FILL_MARGIN``; the trickle workload's steady 125 µs per
#: address reads sparse from its second request on.
ARRIVAL_WEIGHT = 1 / 32

#: The idle trigger calls the open batch sparse only when its missing
#: addresses would take more than this many times the time left to its
#: deadline to arrive.  A closed loop's arrival rate follows its service
#: rate: on a 2-core host the saturate workload fills a 512-address
#: batch in ~1.5–2.5 ms, at the 2 ms deadline, and with no margin one
#: early cut shrank batches, slowed service and thinned arrivals until
#: one-request batches followed one another (batch fill 0.77–0.79
#: against 0.985 at 4, three rounds each).  Trickle batches would take
#: ~60 ms to fill, 30 deadlines.
FILL_MARGIN = 4

__all__ = [
    "ServerError",
    "ServerClosed",
    "RequestShed",
    "RequestTimeout",
    "WorkerCrash",
    "PendingLookup",
    "CoalescedBatch",
    "RequestCoalescer",
]


class ServerError(RuntimeError):
    """Base class for serving-frontend failures."""


class ServerClosed(ServerError):
    """The server is shut down (or shutting down without draining)."""


class RequestShed(ServerError):
    """The request was dropped by the overload policy."""


class RequestTimeout(ServerError):
    """The request's per-request deadline expired before an answer.

    Raised *through the future* (``result()``), never by hanging: a
    deadline-armed :class:`PendingLookup` always resolves — answered,
    shed, closed, or timed out.  Safe to retry: lookups are idempotent
    reads, so a client may resubmit (see
    :class:`~repro.server.supervisor.RetryingClient`).
    """


class WorkerCrash(ServerError):
    """A worker died mid-batch (chaos kill or a genuine thread death).

    Unlike an ordinary engine exception — which fails the batch's
    futures — a crash leaves the batch *unscattered*; the supervisor
    re-queues it on a surviving worker, preserving exactly-once
    delivery.
    """


#: Serialises partial deliveries to requests that span batches (two
#: workers can each hold one part of the same request).  Shared, not
#: per request: the common request fits one batch and never takes it.
_SPLIT_LOCK = threading.Lock()


class PendingLookup:
    """A future for one submitted request's next hops.

    ``result()`` blocks until every address is answered and returns
    the hops in submission order.  ``epoch`` records the serving epoch
    (commit generation) the answers were computed under — when a
    request spans a commit boundary, the *last* scatter wins and
    ``epoch_span`` exposes the full ``(min, max)`` window.

    Resolution is two raw locks.  ``_claim`` starts free and is taken
    once, without blocking, by whoever resolves the request — the test
    and set that keeps a final scatter racing a deadline failure from
    both winning.  ``_waiter`` is held from construction and released
    exactly once, by that winner; a thread in :meth:`wait` blocks
    acquiring it and passes it on, so every waiter wakes in turn.
    """

    __slots__ = ("addresses", "submitted_at", "epoch", "deliveries",
                 "_hops", "_size", "_remaining", "_claim", "_waiter",
                 "_done", "_error", "_epoch_min", "deadline_timer", "seq",
                 "sampled")

    def __init__(self, addresses: Sequence[int], submitted_at: float):
        self.addresses = addresses = list(addresses)
        self.submitted_at = submitted_at
        self.epoch: Optional[int] = None
        self._epoch_min: Optional[int] = None
        #: Request sequence number (assigned by the coalescer under its
        #: lock) and the head-based span-sampling decision derived from
        #: it — stamped at admission so every span of this request
        #: shares one fate, even across worker deaths and re-queues.
        self.seq: int = 0
        self.sampled: bool = False
        #: Scatter calls that landed on this handle (tests assert on
        #: it: a non-spanning request must see exactly one delivery).
        self.deliveries = 0
        #: A per-request deadline timer armed by the server (or None);
        #: cancelled automatically once the request resolves.
        self.deadline_timer = None
        #: The answers: the one scattered slice itself when the request
        #: fit a batch, a slot list filled part by part when it did not.
        self._hops: Optional[Sequence[Optional[int]]] = None
        #: ``_size`` never changes, so "this delivery is the whole
        #: request" can be read without a lock; ``_remaining`` counts
        #: down as parts land.
        self._size = self._remaining = len(addresses)
        self._error: Optional[BaseException] = None
        self._claim = threading.Lock()
        self._waiter = threading.Lock()
        self._done = not addresses
        if addresses:
            self._waiter.acquire()
        else:
            self._hops = []
            self._claim.acquire()

    # -- completion side (coalescer / worker pool) ---------------------
    def _scatter(self, offset: int, hops: Sequence[Optional[int]],
                 epoch: Optional[int]) -> bool:
        """Deliver one batch's share; True when the request completed.

        ``hops`` is handed over: a delivery that answers the whole
        request is kept as is, not copied."""
        if self._done:
            # Already failed (shed/closed) or — a bug — double-served.
            if self._error is None:
                raise AssertionError(
                    f"duplicate delivery to a completed request "
                    f"(offset {offset}, {len(hops)} hops)")
            return False
        count = len(hops)
        if count == self._size:
            self.deliveries += 1
            self._hops = hops
            self._remaining = 0
            if epoch is not None:
                self.epoch = self._epoch_min = epoch
            return self._resolve(None)
        with _SPLIT_LOCK:
            if self._hops is None:
                self._hops = [None] * self._size
            self.deliveries += 1
            self._hops[offset:offset + count] = hops
            self._remaining -= count
            if epoch is not None:
                self.epoch = epoch
                self._epoch_min = epoch if self._epoch_min is None \
                    else min(self._epoch_min, epoch)
            if self._remaining > 0:
                return False
        return self._resolve(None)

    def _fail(self, error: BaseException) -> bool:
        """Resolve the request with an error (idempotent)."""
        return self._resolve(error)

    def _resolve(self, error: Optional[BaseException]) -> bool:
        """Resolve once: ``False`` for every caller but the first."""
        if not self._claim.acquire(False):
            return False
        self._error = error
        self._done = True
        self._waiter.release()
        timer = self.deadline_timer
        if timer is not None:
            self.deadline_timer = None
            timer.cancel()
        return True

    # -- caller side ---------------------------------------------------
    def done(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not self._done:
            if timeout is None:
                acquired = self._waiter.acquire()
            else:
                acquired = self._waiter.acquire(
                    True, timeout if timeout > 0 else 0)
            if acquired:
                self._waiter.release()  # the next waiter's turn
        return self._done

    @property
    def epoch_span(self) -> Tuple[Optional[int], Optional[int]]:
        return (self._epoch_min, self.epoch)

    def result(self, timeout: Optional[float] = None) -> List[Optional[int]]:
        if not self.wait(timeout):
            raise TimeoutError(
                f"request not served within {timeout}s "
                f"({self._remaining}/{self._size} pending)")
        if self._error is not None:
            raise self._error
        return list(self._hops)


class CoalescedBatch:
    """One engine-sized batch plus the scatter map back to requests.

    ``parts`` entries are ``(handle, handle_offset, batch_offset,
    count)``: the slice ``hops[batch_offset:batch_offset+count]``
    answers ``handle.addresses[handle_offset:handle_offset+count]``.
    """

    __slots__ = ("addresses", "parts", "reason", "meta")

    def __init__(self, addresses: List[int],
                 parts: List[Tuple[PendingLookup, int, int, int]],
                 reason: str, meta: Optional[dict] = None):
        self.addresses = addresses
        self.parts = parts
        self.reason = reason
        #: Span scratchpad: lifecycle timestamps (``opened_at``,
        #: ``cut_at``, worker-side phase marks), the batch sequence
        #: number, and the retry count bumped on every re-queue.
        self.meta = meta if meta is not None else {}

    def __len__(self) -> int:
        return len(self.addresses)

    def complete(self, hops: Sequence[Optional[int]],
                 epoch: Optional[int] = None) -> List[PendingLookup]:
        """Scatter answers back; returns the handles that finished."""
        if len(hops) != len(self.addresses):
            raise ValueError(
                f"batch of {len(self.addresses)} answered with "
                f"{len(hops)} hops")
        return [handle
                for handle, handle_offset, batch_offset, count in self.parts
                if handle._scatter(
                    handle_offset, hops[batch_offset:batch_offset + count],
                    epoch)]

    def fail(self, error: BaseException) -> List[PendingLookup]:
        """Fail every request with a part in this batch."""
        return [handle for handle, *_ in self.parts if handle._fail(error)]


class RequestCoalescer:
    """FIFO size/idle/deadline batching in front of a batch sink.

    ``idle`` reports whether a worker is waiting on an empty queue; the
    idle trigger is off without it.
    """

    def __init__(
        self,
        sink: Callable[[CoalescedBatch], bool],
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        clock: Optional[Clock] = None,
        sampler: Optional[Callable[[int], bool]] = None,
        idle: Optional[Callable[[], bool]] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.clock = clock if clock is not None else MonotonicClock()
        self._sink = sink
        self._sampler = sampler
        self._idle = idle
        self._lock = threading.Lock()
        # The open batch being packed.
        self._addresses: List[int] = []
        self._parts: List[Tuple[PendingLookup, int, int, int]] = []
        self._seq = 0
        self._batch_seq = 0
        self._opened_at: Optional[float] = None
        self._timer: Optional[TimerHandle] = None
        # Arrival rate: the last request's stamp and the moving average
        # of seconds between requests per address (None: unknown).
        self._last_at: Optional[float] = None
        self._gap: Optional[float] = None
        # Cut batches awaiting dispatch, drained FIFO under _out_lock
        # so sink order matches cut order even with many submitters.
        self._outbox: List[CoalescedBatch] = []
        self._out_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def pending_addresses(self) -> int:
        """Addresses sitting in the open (not yet cut) batch."""
        with self._lock:
            return len(self._addresses)

    @property
    def closed(self) -> bool:
        return self._closed

    def next_seq(self) -> int:
        """Reserve a request sequence number outside the batching path
        (the server's brownout fast path still needs seq-keyed span
        identity for its outcome markers)."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    # ------------------------------------------------------------------
    def submit(self, addresses: Sequence[int]) -> PendingLookup:
        """Queue one request; returns its result handle.

        Raises :class:`ServerClosed` (before accepting anything) once
        the coalescer is closed.
        """
        now = self.clock.now()
        handle = PendingLookup(addresses, now)
        if handle._done:
            return handle  # trivially complete
        addresses, n = handle.addresses, handle._size
        max_batch, max_wait = self.max_batch, self.max_wait_s
        cut = False
        with self._lock:
            if self._closed:
                raise ServerClosed("coalescer is closed")
            handle.seq = self._seq
            self._seq += 1
            if self._sampler is not None:
                handle.sampled = self._sampler(handle.seq)
            last, self._last_at = self._last_at, now
            if last is not None:
                # A pause longer than the deadline says no more than
                # that the batch would not fill; stamps of concurrent
                # submitters may land out of order.
                elapsed = now - last
                if elapsed > max_wait:
                    elapsed = max_wait
                elif elapsed < 0.0:
                    elapsed = 0.0
                gap = self._gap
                self._gap = elapsed / n if gap is None \
                    else gap + ARRIVAL_WEIGHT * (elapsed / n - gap)
            offset = 0
            while offset < n:
                used = len(self._addresses)
                if not used:
                    self._opened_at = now
                take = n - offset
                if take > max_batch - used:
                    take = max_batch - used
                self._parts.append((handle, offset, used, take))
                self._addresses += (addresses if take == n
                                    else addresses[offset:offset + take])
                offset += take
                if used + take >= max_batch:
                    self._cut("size")
                    cut = True
            left = max_batch - used - take  # missing from the open batch
            if left:
                # The rate check first: a batch that fills by size
                # never asks the pool.
                gap = self._gap
                if (gap is not None and self._idle is not None
                        and left * gap
                        > FILL_MARGIN * (self._opened_at + max_wait - now)
                        and self._idle()):
                    self._cut("idle")
                    cut = True
                elif self._timer is None:
                    self._timer = self.clock.call_at(
                        self.clock.now() + max_wait,
                        partial(self._on_deadline, self._batch_seq))
        if cut:
            # Nothing else can have filled the outbox: every cut is
            # followed by its own drain.
            self._drain_outbox()
        return handle

    def worker_idle(self) -> None:
        """A worker found the queue empty: cut the open batch if it
        will not fill by size before its deadline.

        Runs on the worker's thread, so it never waits: when another
        thread is dispatching, the worker is about to get that batch.
        Otherwise the queue is empty under ``_out_lock``, which every
        dispatch holds, so the put below finds room — unless a dead
        worker's batch is re-queued in between, and then the put waits
        for a worker to take it, as a submitter's would.
        """
        if not self._out_lock.acquire(False):
            return
        try:
            with self._lock:
                if self._closed or self._outbox or not self._addresses:
                    return
                gap = self._gap
                if (gap is None or self._idle is None
                        or (self.max_batch - len(self._addresses)) * gap
                        <= FILL_MARGIN * (self._opened_at + self.max_wait_s
                                          - self.clock.now())
                        or not self._idle()):
                    return
                self._cut("idle")
            self._dispatch_outbox()
        finally:
            self._out_lock.release()

    def flush(self, reason: str = "manual") -> None:
        """Cut the open batch now, regardless of size or deadline."""
        with self._lock:
            if self._addresses:
                self._cut(reason)
        self._drain_outbox()

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests; flush (or fail) the open batch."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_deadline()
            if self._addresses:
                if drain:
                    self._cut("drain")
                else:
                    error = ServerClosed("server closed before serving")
                    for handle, *_ in self._parts:
                        handle._fail(error)
                    self._addresses, self._parts = [], []
        self._drain_outbox()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cut(self, reason: str) -> None:
        """Move the open batch to the outbox and drop its deadline
        (lock held by caller; :meth:`submit` arms the next one)."""
        meta = {
            "batch": self._batch_seq,
            "opened_at": self._opened_at,
            "cut_at": self.clock.now(),
            "retries": 0,
        }
        self._batch_seq += 1
        self._opened_at = None
        self._outbox.append(
            CoalescedBatch(self._addresses, self._parts, reason, meta))
        self._addresses, self._parts = [], []
        self._cancel_deadline()

    def _cancel_deadline(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self, batch: int) -> None:
        with self._lock:
            if batch != self._batch_seq:
                # A late timer: cancel() cannot stop a callback that
                # already started, and its batch was cut meanwhile.
                # The timer armed for the open batch is not this one.
                return
            self._timer = None
            if self._closed:
                return
            if self._addresses:
                self._cut("deadline")
        self._drain_outbox()

    def _drain_outbox(self) -> None:
        """Dispatch cut batches FIFO.  ``_out_lock`` serialises the
        sink (dispatch order == cut order); a sink that blocks — the
        worker queue under the "block" backpressure policy — therefore
        blocks the flusher, which is exactly the backpressure we want.
        """
        with self._out_lock:
            self._dispatch_outbox()

    def _dispatch_outbox(self) -> None:
        """Hand the outbox to the sink (``_out_lock`` held by caller)."""
        while True:
            with self._lock:
                if not self._outbox:
                    return
                batch = self._outbox.pop(0)
            if not self._sink(batch):
                batch.fail(RequestShed(
                    f"overloaded: batch of {len(batch)} shed"))
