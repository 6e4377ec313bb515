"""Request coalescing: many small requests in, engine-sized batches out.

The serving frontend's traffic shaper.  Logical clients submit single
addresses or small batches; the coalescer packs them — in strict FIFO
order — into batches of at most ``max_batch`` addresses and hands each
batch to a ``sink`` (the worker pool) when either trigger fires:

* **size** — the open batch reached ``max_batch`` addresses;
* **deadline** — ``max_wait_s`` elapsed since the first address
  entered the open batch (armed through a :class:`repro.obs.Clock`,
  so tests drive it with a :class:`repro.obs.FakeClock` and never
  sleep on the wall clock).

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
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.clock import Clock, MonotonicClock, TimerHandle

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
    """FIFO size-or-deadline batching in front of a batch sink."""

    def __init__(
        self,
        sink: Callable[[CoalescedBatch], bool],
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        clock: Optional[Clock] = None,
        sampler: Optional[Callable[[int], bool]] = None,
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
        self._lock = threading.Lock()
        # The open batch being packed.
        self._addresses: List[int] = []
        self._parts: List[Tuple[PendingLookup, int, int, int]] = []
        self._seq = 0
        self._batch_seq = 0
        self._opened_at: Optional[float] = None
        self._timer: Optional[TimerHandle] = None
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
        handle = PendingLookup(addresses, self.clock.now())
        if handle._done:
            return handle  # trivially complete
        addresses, n = handle.addresses, handle._size
        max_batch = self.max_batch
        cut = False
        with self._lock:
            if self._closed:
                raise ServerClosed("coalescer is closed")
            handle.seq = self._seq
            self._seq += 1
            if self._sampler is not None:
                handle.sampled = self._sampler(handle.seq)
            offset = 0
            while offset < n:
                used = len(self._addresses)
                if not used:
                    self._opened_at = handle.submitted_at
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
            if self._timer is None and self._addresses:
                self._timer = self.clock.call_at(
                    self.clock.now() + self.max_wait_s, self._on_deadline)
        if cut:
            # Nothing else can have filled the outbox: every cut is
            # followed by its own drain.
            self._drain_outbox()
        return handle

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

    def _on_deadline(self) -> None:
        with self._lock:
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
            while True:
                with self._lock:
                    if not self._outbox:
                        return
                    batch = self._outbox.pop(0)
                if not self._sink(batch):
                    batch.fail(RequestShed(
                        f"overloaded: batch of {len(batch)} shed"))
