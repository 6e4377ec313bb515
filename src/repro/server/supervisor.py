"""Worker supervision, request retries, and graceful degradation.

The fault-tolerance layer over the serving stack (the dataplane twin
of :mod:`repro.control.runtime`'s control-plane guards):

* :class:`WorkerSupervisor` consumes the worker pool's
  ``on_worker_exit`` events.  A dead worker's orphaned batches —
  guaranteed unscattered, see
  :class:`~repro.server.coalescer.WorkerCrash` — are re-queued on the
  survivors (exactly-once delivery is preserved: re-execution at the
  current epoch is a single delivery), and the worker itself is
  restarted under a :class:`RestartPolicy`: exponential backoff with
  seeded jitter, a bounded budget per sliding window, and a permanent
  give-up once the budget is spent (a worker that keeps dying is a
  bug, not a blip).  A forked replica's restart re-forks it from the
  latest committed table, so the replacement re-joins at the serving
  epoch.
* :class:`ServingHealth` is the HEALTHY → DEGRADED → BROWNOUT state
  machine.  Sliding-window signals — queue-depth fraction, worker
  restarts, deadline-miss rate — drive *upward* transitions
  immediately; *downward* transitions need ``recovery_s`` of calm
  (hysteresis, so the server does not flap on the boundary).  The
  server maps states to behaviour: DEGRADED is a health signal only
  (gauge, transition counter, ``/health``) — an engine's execution
  path is fixed at compile time, and the scalar plan costs 8.2 vs
  0.95 µs/lookup, so moving a loaded server onto it would only deepen
  the queue; BROWNOUT serves answer-cache hits and sheds everything
  else.
* :class:`RetryingClient` wraps a server with idempotent client-side
  retries: lookups are pure reads, so :class:`RequestTimeout`,
  :class:`RequestShed` and worker-crash failures are safely resubmitted
  after a jittered exponential backoff (through
  :meth:`repro.obs.Clock.sleep` — a :class:`~repro.obs.FakeClock`
  makes retry tests instantaneous).  :class:`ServerClosed` is final
  and never retried.

Everything timing-related goes through the :class:`~repro.obs.Clock`,
so the whole layer is deterministic under test; everything random
(jitter) derives from seeded :class:`random.Random` streams, mirroring
:mod:`repro.control.faults`.
"""

from __future__ import annotations

import enum
import random
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..obs.clock import Clock, MonotonicClock, TimerHandle
from .coalescer import (
    CoalescedBatch,
    PendingLookup,
    RequestShed,
    RequestTimeout,
    ServerClosed,
    ServerError,
    WorkerCrash,
)

__all__ = [
    "ServingState",
    "SERVING_STATE_VALUES",
    "ServingHealth",
    "RestartPolicy",
    "WorkerSupervisor",
    "RetryPolicy",
    "RetryingClient",
]


class ServingState(str, enum.Enum):
    """Dataplane health levels, ordered best to worst."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    BROWNOUT = "brownout"

    def __str__(self) -> str:  # deterministic rendering in logs/sidecars
        return self.value


#: Numeric encoding for the ``repro_server_health_state`` gauge
#: (higher = worse), matching the control plane's
#: :data:`repro.control.runtime.HEALTH_GAUGE_VALUES` convention.
SERVING_STATE_VALUES = {
    ServingState.HEALTHY: 0,
    ServingState.DEGRADED: 1,
    ServingState.BROWNOUT: 2,
}

_STATE_ORDER = [ServingState.HEALTHY, ServingState.DEGRADED,
                ServingState.BROWNOUT]


class ServingHealth:
    """Sliding-window health state machine with hysteresis.

    Signals (all window-relative, window length ``window_s``):

    * **queue-depth fraction** — last observed depth over capacity;
    * **restart count** — worker deaths handled in the window;
    * **deadline-miss rate** — misses over requests in the window;
    * **SLO breaches** — sliding-window percentile violations reported
      by an :class:`~repro.obs.SloTracker` (a sustained p99 blowout
      degrades serving before deadlines start missing).

    A signal crossing its DEGRADED (or BROWNOUT) threshold raises the
    state immediately; recovery requires every signal to sit below its
    thresholds for ``recovery_s`` before the state steps *one level*
    down.  ``on_transition(old, new)`` fires outside the lock for
    metric/gauge upkeep.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        *,
        queue_capacity: int = 32,
        window_s: float = 1.0,
        recovery_s: float = 1.0,
        degraded_depth: float = 0.75,
        brownout_depth: float = 2.0,
        degraded_restarts: int = 2,
        brownout_restarts: int = 4,
        degraded_miss_rate: float = 0.05,
        brownout_miss_rate: float = 0.25,
        degraded_slo_breaches: int = 4,
        brownout_slo_breaches: int = 16,
        on_transition: Optional[Callable[[ServingState, ServingState],
                                         None]] = None,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.clock = clock if clock is not None else MonotonicClock()
        self.queue_capacity = queue_capacity
        self.window_s = window_s
        self.recovery_s = recovery_s
        self.degraded_depth = degraded_depth
        self.brownout_depth = brownout_depth
        self.degraded_restarts = degraded_restarts
        self.brownout_restarts = brownout_restarts
        self.degraded_miss_rate = degraded_miss_rate
        self.brownout_miss_rate = brownout_miss_rate
        self.degraded_slo_breaches = degraded_slo_breaches
        self.brownout_slo_breaches = brownout_slo_breaches
        self._on_transition = on_transition
        self._lock = threading.Lock()
        #: The current level.  Read it freely (the server does, on
        #: every request); only the signal feeds below move it.
        self.state = ServingState.HEALTHY
        self._depth = 0
        self._restarts: Deque[float] = deque()
        self._misses: Deque[float] = deque()
        self._requests: Deque[float] = deque()
        self._slo_breaches: Deque[float] = deque()
        self._calm_since: Optional[float] = None
        self.transitions = 0

    # -- signal feeds --------------------------------------------------
    def note_depth(self, depth: int) -> None:
        with self._lock:
            self._depth = depth
        self._evaluate()

    def note_restart(self) -> None:
        with self._lock:
            self._restarts.append(self.clock.now())
        self._evaluate()

    def note_deadline_miss(self) -> None:
        with self._lock:
            self._misses.append(self.clock.now())
        self._evaluate()

    def note_request(self) -> None:
        """One more request in the miss-rate denominator.

        While HEALTHY this is a bare (atomic) deque append: a request
        can only *lower* the miss rate, so it can cause no transition,
        and the next signal that evaluates — a depth change, restart,
        miss or breach — trims the window.  In a worse state requests
        evaluate, which is what lets recovery progress under traffic.
        """
        self._requests.append(self.clock.now())
        if self.state is not ServingState.HEALTHY:
            self._evaluate()

    def note_slo_breach(self) -> None:
        """An :class:`~repro.obs.SloTracker` quantile went over budget."""
        with self._lock:
            self._slo_breaches.append(self.clock.now())
        self._evaluate()

    # -- state ---------------------------------------------------------
    def refresh(self) -> ServingState:
        """Re-evaluate now (lets recovery progress without traffic)."""
        self._evaluate()
        return self.state

    # -- internals -----------------------------------------------------
    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        for series in (self._restarts, self._misses, self._requests,
                       self._slo_breaches):
            while series and series[0] < horizon:
                series.popleft()

    def _target_state(self) -> ServingState:
        depth_frac = self._depth / self.queue_capacity
        restarts = len(self._restarts)
        requests = len(self._requests)
        breaches = len(self._slo_breaches)
        miss_rate = (len(self._misses) / requests) if requests else (
            1.0 if self._misses else 0.0)
        if (depth_frac >= self.brownout_depth
                or restarts >= self.brownout_restarts
                or miss_rate >= self.brownout_miss_rate
                or breaches >= self.brownout_slo_breaches):
            return ServingState.BROWNOUT
        if (depth_frac >= self.degraded_depth
                or restarts >= self.degraded_restarts
                or miss_rate >= self.degraded_miss_rate
                or breaches >= self.degraded_slo_breaches):
            return ServingState.DEGRADED
        return ServingState.HEALTHY

    def _evaluate(self) -> None:
        transition = None
        with self._lock:
            now = self.clock.now()
            self._trim(now)
            target = self._target_state()
            current = self.state
            level = SERVING_STATE_VALUES[current]
            if SERVING_STATE_VALUES[target] > level:
                # Worse: escalate immediately, restart the calm timer.
                self._calm_since = None
                self.state = target
                transition = (current, target)
            elif SERVING_STATE_VALUES[target] < level:
                # Better: step down one level only after recovery_s of
                # uninterrupted calm (hysteresis against flapping).
                if self._calm_since is None:
                    self._calm_since = now
                elif now - self._calm_since >= self.recovery_s:
                    stepped = _STATE_ORDER[level - 1]
                    self.state = stepped
                    self._calm_since = now
                    transition = (current, stepped)
            else:
                self._calm_since = None
        if transition is not None:
            self.transitions += 1
            if self._on_transition is not None:
                self._on_transition(*transition)


class RestartPolicy:
    """Bounded, jittered exponential backoff for worker restarts.

    Each worker gets ``budget`` restarts per sliding ``window_s``; the
    n-th consecutive restart of a worker backs off
    ``base_backoff_s * 2**n`` (capped at ``max_backoff_s``) plus up to
    ``jitter`` fractional noise from a stream seeded with the worker
    index — deterministic per seed, de-synchronised across workers.
    :meth:`next_delay` returns ``None`` once the budget is spent.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        *,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        budget: int = 5,
        window_s: float = 30.0,
        jitter: float = 0.25,
        seed: int = 0,
    ):
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.clock = clock if clock is not None else MonotonicClock()
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self.budget = budget
        self.window_s = window_s
        self.jitter = jitter
        self.seed = seed
        self._lock = threading.Lock()
        self._history: Dict[int, Deque[float]] = {}
        self._rngs: Dict[int, random.Random] = {}

    def _rng(self, worker: int) -> random.Random:
        if worker not in self._rngs:
            self._rngs[worker] = random.Random(f"restart:{self.seed}:{worker}")
        return self._rngs[worker]

    def next_delay(self, worker: int) -> Optional[float]:
        """Backoff before the next restart of ``worker``; ``None`` when
        the window budget is exhausted (give up on the worker)."""
        with self._lock:
            now = self.clock.now()
            history = self._history.setdefault(worker, deque())
            while history and history[0] < now - self.window_s:
                history.popleft()
            if len(history) >= self.budget:
                return None
            attempt = len(history)
            history.append(now)
            delay = min(self.base_backoff_s * (2 ** attempt),
                        self.max_backoff_s)
            delay *= 1.0 + self._rng(worker).random() * self.jitter
            return delay

    def restarts_in_window(self, worker: int) -> int:
        with self._lock:
            now = self.clock.now()
            history = self._history.get(worker)
            if not history:
                return 0
            while history and history[0] < now - self.window_s:
                history.popleft()
            return len(history)


class WorkerSupervisor:
    """Turns worker-exit events into re-queues and budgeted restarts.

    Wire :meth:`worker_exited` as the pool's ``on_worker_exit``
    callback (it is called with the list of batches the dead worker
    left unscattered, empty when none).  The sequence per death:

    1. count the death (``on_death``) and feed the health monitor;
    2. re-queue every orphaned batch via ``pool.requeue`` — the pool
       guarantees the batches are unscattered, and ``requeue`` fails
       them with a typed error rather than dropping them when no
       dispatch is possible;
    3. ask the :class:`RestartPolicy` for a backoff; schedule the
       restart on the clock (``on_restart`` when the pool actually
       replaced the worker), or give up permanently (``on_giveup``)
       when the budget is spent.
    """

    def __init__(
        self,
        pool,
        clock: Optional[Clock] = None,
        *,
        policy: Optional[RestartPolicy] = None,
        health: Optional[ServingHealth] = None,
        on_death: Optional[Callable[[int, BaseException], None]] = None,
        on_restart: Optional[Callable[[int, float], None]] = None,
        on_giveup: Optional[Callable[[int], None]] = None,
        on_requeue: Optional[Callable[[int, CoalescedBatch], None]] = None,
    ):
        self.pool = pool
        self.clock = clock if clock is not None else MonotonicClock()
        self.policy = policy if policy is not None else RestartPolicy(
            self.clock)
        self.health = health
        self._on_death = on_death
        self._on_restart = on_restart
        self._on_giveup = on_giveup
        self._on_requeue = on_requeue
        self._lock = threading.Lock()
        self._timers: List[TimerHandle] = []
        self._closed = False
        self.deaths = 0
        self.restarts = 0
        self.giveups = 0
        self.requeued_batches = 0
        self.simulated_backoff_s = 0.0
        self.given_up: List[int] = []

    # ------------------------------------------------------------------
    def worker_exited(self, worker: int, exc: BaseException,
                      orphans: Sequence[CoalescedBatch]) -> None:
        """Pool callback: ``worker`` died with ``orphans`` in flight."""
        with self._lock:
            self.deaths += 1
            closed = self._closed
        if self._on_death is not None:
            self._on_death(worker, exc)
        if self.health is not None:
            self.health.note_restart()
        for batch in orphans:
            if closed:
                batch.fail(ServerError("server closed before serving"))
            elif self.pool.requeue(batch):
                with self._lock:
                    self.requeued_batches += 1
                if self._on_requeue is not None:
                    # The batch is back in flight on a survivor: the
                    # server records a visible retry span, so a killed
                    # worker leaves a marked seam in the trace — never
                    # a hole.
                    self._on_requeue(worker, batch)
        if closed:
            return
        delay = self.policy.next_delay(worker)
        if delay is None:
            with self._lock:
                self.giveups += 1
                self.given_up.append(worker)
            if self._on_giveup is not None:
                self._on_giveup(worker)
            return
        with self._lock:
            self.simulated_backoff_s += delay
        timer = self.clock.call_at(self.clock.now() + delay,
                                   lambda: self._restart(worker, delay))
        with self._lock:
            if self._closed:
                timer.cancel()
            else:
                self._timers.append(timer)

    def _restart(self, worker: int, delay: float) -> None:
        with self._lock:
            if self._closed:
                return
        if self.pool.restart_worker(worker):
            with self._lock:
                self.restarts += 1
            if self._on_restart is not None:
                self._on_restart(worker, delay)

    def close(self) -> None:
        """Stop restarting (idempotent); cancels scheduled restarts."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()


class RetryPolicy:
    """Client-side retry schedule: attempts + jittered backoff."""

    #: Failures that are safe to retry — lookups are idempotent reads.
    RETRYABLE = (RequestTimeout, RequestShed, WorkerCrash)

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_backoff_s: float = 0.01,
        max_backoff_s: float = 0.5,
        jitter: float = 0.5,
        seed: int = 0,
    ):
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self.jitter = jitter
        self.seed = seed

    def delay(self, attempt: int, rng: random.Random) -> float:
        backoff = min(self.base_backoff_s * (2 ** attempt),
                      self.max_backoff_s)
        return backoff * (1.0 + rng.random() * self.jitter)

    def retryable(self, error: BaseException) -> bool:
        if isinstance(error, ServerClosed):
            return False  # final: the server is gone, retrying can't help
        # ``retry_safe = True`` on an error class (e.g. the chaos
        # harness's injected batch faults) marks it resubmittable.
        return (isinstance(error, self.RETRYABLE)
                or bool(getattr(error, "retry_safe", False)))


class RetryingClient:
    """Idempotent retry wrapper around a :class:`LookupServer`.

    ``lookup()`` resubmits on retryable failures (timeout, shed,
    worker crash) with the policy's backoff, sleeping through the
    clock so tests with a :class:`~repro.obs.FakeClock` never wait on
    the wall.  Retries are counted (``retries``) and surfaced through
    ``on_retry`` for the server's ``repro_server_retries_total``.
    """

    def __init__(
        self,
        server,
        *,
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        seed: int = 0,
    ):
        self.server = server
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else getattr(
            server, "clock", MonotonicClock())
        self._on_retry = on_retry
        self._rng = random.Random(f"retry:{seed}")
        self.retries = 0
        self.exhausted = 0

    def lookup(self, addresses,
               timeout: Optional[float] = None) -> List[Optional[int]]:
        """Submit and wait, retrying per policy; raises the last error
        once attempts are exhausted."""
        last: Optional[BaseException] = None
        for attempt in range(self.policy.attempts):
            if attempt:
                self.retries += 1
                if self._on_retry is not None:
                    self._on_retry(attempt, last)
                self.clock.sleep(self.policy.delay(attempt - 1, self._rng))
            try:
                handle: PendingLookup = self.server.submit(addresses)
                return handle.result(timeout)
            except BaseException as exc:  # noqa: BLE001 — classify below
                if not self.policy.retryable(exc):
                    raise
                last = exc
        self.exhausted += 1
        assert last is not None
        raise last
