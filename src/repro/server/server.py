"""The concurrent serving frontend over the batch engines.

:class:`LookupServer` is what ``repro serve --workers N`` runs: many
logical clients submit single addresses or small batches; a
:class:`~repro.server.coalescer.RequestCoalescer` packs them into
engine-sized batches on a size, idle or deadline trigger; the worker
pool runs each batch through one of its engine replicas (in-thread
:class:`~repro.engine.BatchEngine` replicas by default, forked children
behind pipes with ``mode="process"``) and scatters the answers back to
the per-request futures.

Consistency under churn — the property the stress tests prove — comes
from one rule: **commits quiesce serving**.  The server subscribes to
:class:`~repro.control.ManagedFib` commits; the handler takes the
:class:`~repro.server.pool.CommitGate` write side (waiting out every
in-flight batch), bumps the serving epoch, refreshes every worker
replica (recompile/patch + targeted cache invalidation in-thread, a
shipped delta or FIB snapshot to a forked child), and releases.  Every
batch therefore executes entirely within one epoch: no lookup can
observe a half-applied update, and rolled-back batches — which never
notify — leave the serving plan untouched.  The rule leans on the
replicas reading frozen kernel views: an in-place delta mutates the
live tables *before* the gate is taken, so thread mode refuses (with
``ValueError``) a plan that did not lower, whose scalar plan reads
those tables directly.  A forked child applies its deltas between its
own batches and serves such a plan.

Fault tolerance (``docs/robustness.md`` has the full fault model):

* **supervision** — worker deaths (engine crashes, dead or silent
  children, hung commit acks) re-queue their unscattered batches on
  survivors and restart the worker under a budgeted, jittered backoff
  (:class:`~repro.server.supervisor.WorkerSupervisor`);
* **deadlines** — ``request_deadline_s`` arms a per-request timer that
  fails the future with :class:`RequestTimeout`; an accepted request
  *never* hangs past its deadline, and late answers are dropped;
* **degradation** — a :class:`~repro.server.supervisor.ServingHealth`
  state machine (HEALTHY → DEGRADED → BROWNOUT) driven by queue depth,
  restart rate, and deadline-miss rate.  DEGRADED is a health signal
  on the way to BROWNOUT, not a dataplane switch: every replica runs
  its vector plan, and the scalar plan it embeds costs 8.2 vs 0.95
  µs/lookup, so falling back to it under load would only deepen the
  queue.  BROWNOUT serves answer-cache hits at the current epoch and
  sheds the rest;
* **chaos** — a seeded :class:`~repro.chaos.ChaosPlan` injects
  scripted dataplane faults (worker kills, in-batch exceptions,
  delayed/dropped snapshot-acks, commit-gate stalls) for the
  ``repro chaos-soak`` harness.

Telemetry (all in the shared :class:`~repro.obs.MetricsRegistry`):

==========================================  ================================
``repro_server_requests_total``             requests accepted (counted per
                                            batch, as it is dispatched)
``repro_server_addresses_total``            addresses accepted (likewise)
``repro_server_batches_total``              coalesced batches dispatched
``repro_server_flush_total``                flushes by ``reason`` label
``repro_server_batch_size``                 coalesced-batch-size histogram
``repro_server_queue_depth``                worker-queue depth gauge
``repro_server_shed_total``                 addresses shed (overload/brownout)
``repro_server_commits_total``              quiesced commits by ``outcome``
``repro_server_epoch``                      serving epoch gauge
``repro_server_worker_errors_total``        batches failed by worker errors
``repro_server_worker_deaths_total``        workers that died serving
``repro_server_restarts_total``             supervised worker restarts
``repro_server_restart_giveups_total``      workers left down (budget spent)
``repro_server_deadline_misses_total``      requests failed by their deadline
``repro_server_retries_total``              client-side retry attempts
``repro_server_health_state``               health gauge (0/1/2 = H/D/B)
``repro_server_health_transitions_total``   transitions by ``to`` label
``repro_server_brownout_hits_total``        addresses served from the
                                            brownout answer cache
``repro_server_snapshot_bytes_total``       full-snapshot bytes shipped to
                                            process workers on commits
``repro_server_delta_bytes_total``          commit-delta bytes shipped to
                                            process workers on commits
``repro_server_spans_total``                lifecycle spans recorded, by
                                            ``phase``
``repro_server_span_requests_sampled_total``    requests picked by the span
                                                sampler
``repro_server_span_requests_unsampled_total``  requests skipped by it
``repro_server_slo_breaches_total``         SLO quantile breaches, by
                                            ``quantile``
``repro_server_slo_target_seconds``         configured SLO targets (gauge)
``repro_server_request`` (timing)           per-request latency (wall clock)
``repro_server_phase`` (timing)             per-phase latency decomposition
                                            (coalesce / queue wait / gate /
                                            execute / scatter)
``repro_server_quiesce`` (timing)           commit quiesce + refresh latency
==========================================  ================================

All of it is booked per coalesced batch, not per request: admission
counts when a batch is dispatched (:meth:`LookupServer._sink`), request
and phase durations, SLO windows and spans when it has been served
(:meth:`LookupServer._on_done`, one ``observe_many`` each).  A request
itself pays for a future, a sequence number and a sampling decision;
``tests/test_server_cost.py`` holds that to a call budget.

Observability (``docs/observability.md`` § request-lifecycle tracing):
every request carries a deterministic sequence number and a head-based
span-sampling decision; sampled requests leave a full trace — root
``request`` span plus the batch's ``coalesce``/``queue_wait``/``gate``/
``execute``/``scatter`` decomposition and outcome markers (timeout,
shed, brownout, retry-after-worker-death) — in :attr:`spans`
(a :class:`~repro.obs.SpanRecorder`).  Every request, sampled or not,
feeds :attr:`slo` (a :class:`~repro.obs.SloTracker`) whose sliding
p50/p99/p999 windows gate the SLO and, on breach, degrade
:class:`ServingHealth`.
"""

from __future__ import annotations

import threading
from functools import reduce
from operator import or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.engine import ENGINE_BATCH_BUCKETS, BatchEngine
from ..obs import MetricsRegistry
from ..obs.clock import Clock, MonotonicClock
from ..obs.slo import SloConfig, SloTracker
from ..obs.spans import (
    DEFAULT_SPAN_SAMPLE_RATE,
    SPAN_PHASES,
    SpanRecorder,
    batch_trace_id_for,
    trace_id_for,
)
from .coalescer import (
    CoalescedBatch,
    PendingLookup,
    RequestCoalescer,
    RequestShed,
    RequestTimeout,
    ServerError,
)
from .pool import CommitGate, ThreadWorkerPool
from .procpool import ForkedReplica, ReplicaSource
from .supervisor import (
    SERVING_STATE_VALUES,
    RestartPolicy,
    RetryingClient,
    RetryPolicy,
    ServingHealth,
    ServingState,
    WorkerSupervisor,
)

__all__ = ["LookupServer", "SERVER_MODES", "SERVER_OVERLOAD_POLICIES"]

SERVER_MODES = ("thread", "process")
SERVER_OVERLOAD_POLICIES = ("block", "shed")

#: Brownout answer-cache capacity (addresses); cleared on every commit.
BROWNOUT_CACHE_SIZE = 4096


class LookupServer:
    """Request coalescing + worker pool + commit-quiesced consistency."""

    def __init__(
        self,
        algo=None,
        *,
        managed=None,
        workers: int = 2,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        queue_depth: int = 32,
        overload: str = "block",
        mode: str = "thread",
        cache_size: int = 0,
        backend: str = "auto",
        registry: Optional[MetricsRegistry] = None,
        name: str = "server",
        clock: Optional[Clock] = None,
        factory: Optional[Callable] = None,
        base_fib=None,
        request_deadline_s: Optional[float] = None,
        supervise: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        health: Optional[ServingHealth] = None,
        ack_timeout_s: float = 60.0,
        chaos=None,
        ship_deltas: bool = True,
        artifact: Optional[str] = None,
        sample_rate: float = DEFAULT_SPAN_SAMPLE_RATE,
        span_capacity: int = 65536,
        span_seed: int = 0,
        slo: Optional[SloConfig] = None,
    ):
        if backend != "auto":  # kept for bench/; nothing to choose
            raise ValueError(f"backend {backend!r}: only 'auto' is accepted")
        if mode not in SERVER_MODES:
            raise ValueError(f"mode {mode!r} not one of {SERVER_MODES}")
        if overload not in SERVER_OVERLOAD_POLICIES:
            raise ValueError(
                f"overload {overload!r} not one of {SERVER_OVERLOAD_POLICIES}")
        if workers < 1:
            raise ValueError("need at least one worker")
        if request_deadline_s is not None and request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be > 0")
        if managed is not None:
            algo = managed.algo
            factory = factory if factory is not None else managed.factory
            base_fib = base_fib if base_fib is not None else managed.oracle
            if registry is None:
                registry = managed.registry
        if algo is None:
            raise ValueError("need an algorithm (or managed=) to serve")
        self.name = name
        #: Path of the catalog snapshot the served table was last
        #: loaded from (the ``artifact=`` warm start, then every
        #: :meth:`reload_artifact`); ``None`` when built from scratch.
        self.artifact = artifact
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock if clock is not None else MonotonicClock()
        self.gate = CommitGate()
        self.request_deadline_s = request_deadline_s
        self.chaos = chaos
        self._managed = managed
        self._factory = factory
        self._base_fib = base_fib
        self._width = algo.width
        self._epoch = 0
        self._started = False
        self._closed = False
        # Brownout answer cache: address -> hop, valid only for the
        # current epoch (cleared atomically with every epoch bump).
        self._answer_cache: Dict[int, Optional[int]] = {}
        self._cache_lock = threading.Lock()

        reg = self.registry

        def counter(metric: str, help_text: str):
            """This server's series of a counter, label key resolved."""
            return reg.counter(metric, help_text).labels(server=name)

        def gauge(metric: str, help_text: str):
            return reg.gauge(metric, help_text).labels(server=name)

        self._requests = counter(
            "repro_server_requests_total", "Requests accepted by the server.")
        self._addresses = counter(
            "repro_server_addresses_total", "Addresses accepted by the server.")
        self._batches = counter(
            "repro_server_batches_total", "Coalesced batches dispatched.")
        # The help text predates the "idle" trigger; it is left as it
        # was so the rendered metrics stay byte-identical.
        self._flushes = reg.counter(
            "repro_server_flush_total",
            "Coalescer flushes by trigger (size/deadline/drain/manual).")
        #: This server's flush series by trigger, each resolved once.
        self._flushes_by_reason: Dict[str, object] = {}
        self._batch_size = reg.histogram(
            "repro_server_batch_size", ENGINE_BATCH_BUCKETS,
            "Addresses per coalesced batch.").labels()
        self._depth = gauge(
            "repro_server_queue_depth", "Batches queued for the workers.")
        self._shed = counter(
            "repro_server_shed_total",
            "Addresses shed by the overload policy.")
        self._commits = reg.counter(
            "repro_server_commits_total",
            "Commits quiesced through the server, by outcome.")
        self._epoch_gauge = gauge(
            "repro_server_epoch", "Serving epoch (landed-commit generation).")
        self._worker_errors = counter(
            "repro_server_worker_errors_total",
            "Batches failed by a worker exception.")
        self._worker_deaths = counter(
            "repro_server_worker_deaths_total",
            "Worker threads/processes that died while serving.")
        self._restarts = counter(
            "repro_server_restarts_total",
            "Workers restarted by the supervisor.")
        self._giveups = counter(
            "repro_server_restart_giveups_total",
            "Workers left down after the restart budget was spent.")
        self._deadline_misses = counter(
            "repro_server_deadline_misses_total",
            "Requests failed by their per-request deadline.")
        self._retries = counter(
            "repro_server_retries_total",
            "Client-side retry attempts against this server.")
        self._health_gauge = gauge(
            "repro_server_health_state",
            "Serving health (0 healthy, 1 degraded, 2 brownout).")
        self._health_transitions = reg.counter(
            "repro_server_health_transitions_total",
            "Serving health transitions, by destination state.")
        self._brownout_hits = counter(
            "repro_server_brownout_hits_total",
            "Addresses served from the brownout answer cache.")
        self._snapshot_bytes = counter(
            "repro_server_snapshot_bytes_total",
            "Full-snapshot bytes shipped to process workers on commits.")
        self._delta_bytes = counter(
            "repro_server_delta_bytes_total",
            "Commit-delta bytes shipped to process workers on commits.")
        self._request_timing = reg.timing("repro_server_request", server=name)
        self._phase_timings = {
            phase: reg.timing("repro_server_phase", server=name, phase=phase)
            for phase in SPAN_PHASES if phase != "request"}
        self._epoch_gauge.set(0)
        self._depth.set(0)
        self._health_gauge.set(0)

        #: Request-lifecycle spans (head-sampled) and the SLO tracker
        #: (observes every request — sampling never skews percentiles).
        self.spans = SpanRecorder(
            sample_rate=sample_rate, capacity=span_capacity,
            seed=span_seed, registry=reg, server=name)
        self.slo = SloTracker(
            slo, registry=reg, server=name,
            on_breach=self._note_slo_breach)

        self.health: Optional[ServingHealth] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self.health = health if health is not None else ServingHealth(
                self.clock, queue_capacity=queue_depth,
                on_transition=self._on_health_transition)
        on_worker_exit = self._worker_exited if supervise else None

        # The one place the replica kind is chosen: the pool, the gate
        # and the fault path below are the same for both.
        if mode == "thread":
            engines = [
                BatchEngine(algo, cache_size=cache_size, registry=reg,
                            name=f"{name}-w{i}")
                for i in range(workers)
            ]
            if not engines[0].vector_plan.fully_lowered:
                # Its scalar plan would read the tables a commit is
                # mutating on another thread; a forked child applies
                # its deltas between batches.
                raise ValueError(
                    f"{algo.name}: the plan did not lower to lane kernels, "
                    "and thread replicas would read live tables under "
                    "concurrent commits; serve it with mode='process'")
            if chaos is not None:
                from ..chaos.plan import ChaosEngine
                engines = [ChaosEngine(engine, chaos, i)
                           for i, engine in enumerate(engines)]
        else:
            if factory is None or base_fib is None:
                raise ServerError(
                    "process mode needs factory= and base_fib= (or managed=)")
            source = ReplicaSource(
                base_fib, factory, cache_size=cache_size,
                artifact=artifact, committed=self._committed,
                ship_deltas=ship_deltas, ack_timeout_s=ack_timeout_s,
                chaos=chaos, on_ship=self._note_ship,
                on_error=self._on_error)
            engines = [ForkedReplica(source, i, name=f"{name}-w{i}")
                       for i in range(workers)]
        self._pool = ThreadWorkerPool(
            engines, queue_depth=queue_depth, overload=overload,
            gate=self.gate, epoch_of=lambda: self._epoch,
            on_done=self._on_done, on_depth=self._on_depth,
            on_error=self._on_error, on_worker_exit=on_worker_exit,
            on_idle=self._worker_idle, clock=self.clock)
        if supervise:
            policy = restart_policy if restart_policy is not None \
                else RestartPolicy(self.clock)
            self.supervisor = WorkerSupervisor(
                self._pool, self.clock, policy=policy, health=self.health,
                on_death=self._note_death, on_restart=self._note_restart,
                on_giveup=self._note_giveup,
                on_requeue=self._note_requeue)
        self.coalescer = RequestCoalescer(
            self._sink, max_batch=max_batch, max_wait_s=max_wait_s,
            clock=self.clock, sampler=self.spans.decide,
            idle=self._pool.has_idle_worker)
        if managed is not None:
            managed.add_commit_listener(self._on_commit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The serving epoch: bumped once per quiesced, landed commit."""
        return self._epoch

    @property
    def workers(self) -> int:
        return self._pool.workers

    def engines(self) -> list:
        """The worker replicas, one per worker: in-thread engines or
        forked replicas.  Each has ``name`` and ``active_backend``."""
        return list(self._pool.engines)

    @property
    def active_backend(self) -> Optional[str]:
        """What worker 0's vector plan runs on, ``"vector"`` or
        ``"plan"`` (a forked replica reports its child's; ``None``
        before it has forked)."""
        return self._pool.engines[0].active_backend

    @property
    def health_state(self) -> ServingState:
        return self.health.state if self.health is not None \
            else ServingState.HEALTHY

    @property
    def pool(self):
        """The worker pool (chaos/benchmarks kill workers through it)."""
        return self._pool

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LookupServer":
        if self._closed:
            raise ServerError("server is closed")
        if not self._started:
            self._started = True
            self._pool.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop serving.  ``drain=True`` answers everything accepted
        (flush the open batch, let the queue empty); ``drain=False``
        fails unserved requests with ``ServerClosed``/``ServerError``.
        Idempotent; safe to call from a signal handler.
        """
        if self._closed:
            return
        self._closed = True
        if self.supervisor is not None:
            self.supervisor.close()
        self.coalescer.close(drain=drain)
        if self._started:
            self._pool.close(drain=drain)
        if self._managed is not None:
            self._managed.remove_commit_listener(self._on_commit)
            self._managed = None

    def __enter__(self) -> "LookupServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    def drained(self) -> bool:
        """True once nothing is pending anywhere (a shutdown probe)."""
        return (self.coalescer.pending_addresses == 0
                and self._pool.queue_depth() == 0
                and not self._pool.alive())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def submit(self, addresses: Sequence[int]) -> PendingLookup:
        """Queue a small-batch request; returns its future.

        Under BROWNOUT the request bypasses the pipeline: if every
        address is in the answer cache (current epoch only), the
        future resolves immediately from it; otherwise the request is
        shed — the point of brownout is to stop feeding a drowning
        worker pool while still answering what can be answered.

        Raises ``ValueError`` for an address outside the served width
        and ``TypeError`` for a non-integer one, before anything is
        accepted.
        """
        # Admission: one bad address must fail this request, not the
        # batch it would have been coalesced into.  OR-ing the
        # addresses is one builtin call that says all three things: an
        # address >= 2**width leaves a bit above the width, a negative
        # one makes the whole OR negative, a non-integer cannot be
        # OR-ed at all.
        try:
            stray = reduce(or_, addresses, 0) >> self._width
        except TypeError:
            raise TypeError("addresses must be integers") from None
        if stray:
            raise ValueError(
                f"address outside [0, 2**{self._width}) in request")
        if not self._started:
            self.start()
        health = self.health
        if health is not None:
            health.note_request()
            if health.state is ServingState.BROWNOUT:
                return self._brownout_submit(addresses)
        handle = self.coalescer.submit(addresses)
        if self.request_deadline_s is not None:
            self._arm_deadline(handle)
        return handle

    def lookup(self, address: int,
               timeout: Optional[float] = None) -> Optional[int]:
        """Synchronous single lookup (submit + flush + wait)."""
        handle = self.submit([address])
        self.flush()
        return handle.result(timeout)[0]

    def lookup_batch(self, addresses: Sequence[int],
                     timeout: Optional[float] = None) -> List[Optional[int]]:
        handle = self.submit(addresses)
        self.flush()
        return handle.result(timeout)

    def flush(self) -> None:
        """Cut the open batch now (don't wait for size or deadline)."""
        self.coalescer.flush()

    def retry_client(self, *, policy: Optional[RetryPolicy] = None,
                     seed: int = 0) -> RetryingClient:
        """An idempotent-retry wrapper wired to this server's clock and
        ``repro_server_retries_total`` counter."""
        return RetryingClient(self, policy=policy, clock=self.clock,
                              on_retry=self._note_retry, seed=seed)

    # ------------------------------------------------------------------
    # Robustness internals
    # ------------------------------------------------------------------
    def _arm_deadline(self, handle: PendingLookup) -> None:
        if handle.done():
            return
        handle.deadline_timer = self.clock.call_at(
            self.clock.now() + self.request_deadline_s,
            lambda: self._miss_deadline(handle))

    def _miss_deadline(self, handle: PendingLookup) -> None:
        if handle._fail(RequestTimeout(
                f"request not served within {self.request_deadline_s}s")):
            self._deadline_misses.inc()
            if handle.sampled:
                self.spans.event(
                    trace_id_for(handle.seq, self._epoch), "timeout",
                    self.clock.now(), seq=handle.seq,
                    deadline_s=self.request_deadline_s)
            if self.health is not None:
                self.health.note_deadline_miss()

    def _brownout_submit(self, addresses: Sequence[int]) -> PendingLookup:
        now = self.clock.now()
        handle = PendingLookup(addresses, now)
        if not handle.addresses:
            return handle
        self._requests.inc()
        self._addresses.inc(len(handle.addresses))
        handle.seq = self.coalescer.next_seq()
        handle.sampled = self.spans.sampled(handle.seq)
        with self._cache_lock:
            epoch = self._epoch
            hops = [self._answer_cache.get(a, _MISS)
                    for a in handle.addresses]
        if any(h is _MISS for h in hops):
            self._shed.inc(len(handle.addresses))
            handle._fail(RequestShed(
                "brownout: request not fully answerable from cache"))
            if handle.sampled:
                self.spans.event(
                    trace_id_for(handle.seq, epoch), "brownout_shed",
                    now, seq=handle.seq,
                    addresses=len(handle.addresses))
        else:
            self._brownout_hits.inc(len(hops))
            handle._scatter(0, hops, epoch)
            # Cache hits count as served requests: the latency timer,
            # the SLO window, and (when sampled) a root span whose
            # measured duration matches the timer observation exactly.
            done = self.clock.now()
            dur = max(0.0, done - handle.submitted_at)
            self._request_timing.observe(dur)
            self.slo.observe("request", dur)
            if handle.sampled:
                trace_id = trace_id_for(handle.seq, epoch)
                self.spans.record(
                    trace_id, "request", handle.submitted_at, done,
                    seq=handle.seq, epoch=epoch,
                    addresses=len(handle.addresses),
                    outcome="brownout_hit")
                self.spans.event(trace_id, "brownout_hit", done,
                                 seq=handle.seq,
                                 parent_id=f"{trace_id}:request")
        return handle

    def _feed_answer_cache(self, finished: List[PendingLookup]) -> None:
        if self.health is None:
            return  # no health machine, no brownout to answer from it
        with self._cache_lock:
            cache, epoch = self._answer_cache, self._epoch
            room = BROWNOUT_CACHE_SIZE - len(cache)
            if room <= 0:
                return
            for handle in finished:
                # Only answers computed at the *current* epoch may be
                # cached — a late scatter racing a commit must not
                # plant stale hops (zero-stale-reads invariant).
                if handle.epoch != epoch:
                    continue
                if len(handle.addresses) > room:
                    continue
                cache.update(zip(handle.addresses, handle._hops))
                room = BROWNOUT_CACHE_SIZE - len(cache)

    def _worker_exited(self, worker: int, exc: BaseException,
                       orphans: List[CoalescedBatch]) -> None:
        if self.supervisor is not None:
            self.supervisor.worker_exited(worker, exc, orphans)

    def _note_death(self, worker: int, exc: BaseException) -> None:
        self._worker_deaths.inc()

    def _note_restart(self, worker: int, delay: float) -> None:
        self._restarts.inc()

    def _note_giveup(self, worker: int) -> None:
        self._giveups.inc()

    def _note_retry(self, attempt: int, error: BaseException) -> None:
        self._retries.inc()

    def _on_health_transition(self, old: ServingState,
                              new: ServingState) -> None:
        self._health_gauge.set(SERVING_STATE_VALUES[new])
        self._health_transitions.inc(1, server=self.name, to=str(new))

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def refresh(self, algo=None, touched=None) -> None:
        """Manually quiesce + refresh (servers not over a ManagedFib)."""
        self._quiesce("refresh", algo, touched)

    def _on_commit(self, outcome: str, algo, touched) -> None:
        """ManagedFib commit listener — only landed batches notify."""
        self._quiesce(outcome, algo, touched)

    def _committed(self):
        """``(fib, artifact path)`` as committed — what a forked
        replica resyncs from when a commit has no delta to ship.
        Read under the gate's write side."""
        fib = (self._managed.oracle if self._managed is not None
               else self._base_fib)
        return fib, self.artifact

    def _quiesce(self, outcome: str, algo, touched) -> None:
        # An applied (not rebuilt) batch publishes its FibDelta on the
        # runtime: in-thread replicas patch their compiled plans with
        # it, forked replicas are shipped it instead of a full snapshot.
        delta = (self._managed.last_delta
                 if self._managed is not None
                 and outcome == "batch_applied" else None)
        with self.registry.timer("repro_server_quiesce", server=self.name):
            with self.gate.write():
                if self.chaos is not None:
                    stall = self.chaos.commit_stall(self._epoch)
                    if stall:
                        # A scripted slow commit: serving stays gated.
                        self.clock.sleep(stall)
                with self._cache_lock:
                    self._epoch += 1
                    self._answer_cache.clear()
                self._epoch_gauge.set(self._epoch)
                self._pool.on_commit(outcome, algo, touched, delta=delta)
        self._commits.inc(1, server=self.name, outcome=outcome)

    def reload_artifact(self, loaded) -> int:
        """Blue/green flip onto a catalog artifact, atomically.

        ``loaded`` is a :class:`~repro.artifact.LoadedArtifact`.  The
        heavy lifting — materialising the new FIB and (parent-side)
        algorithm from the snapshot — happens *before* the commit gate
        is taken, so the old version keeps serving until the new one
        is ready.  The actual swap then rides the same quiesce path as
        churn commits: gate write side held, epoch bumped, answer
        cache cleared, every replica flipped.  Batches in flight when
        the flip starts finish against the old epoch; batches admitted
        after it see only the new table — there is no interleaving in
        which a request observes half of each.

        In-thread engines refresh onto the new algorithm; forked
        replicas are shipped a ``reload`` message so each child mmaps
        the snapshot itself (and any worker that dies mid-flip is
        restarted from the *new* catalog version).  A ``managed=``
        runtime, when present, adopts the new state under the same
        gate so churn resumes against the loaded base.

        Returns the new serving epoch.
        """
        if self._closed:
            raise ServerError("server is closed")
        if loaded.width != self._width:
            raise ServerError(
                f"artifact width {loaded.width} != serving width "
                f"{self._width}")
        new_fib = loaded.fib()
        new_algo = loaded.algorithm(factory=self._factory)
        with self.registry.timer("repro_server_quiesce", server=self.name):
            with self.gate.write():
                with self._cache_lock:
                    self._epoch += 1
                    self._answer_cache.clear()
                self._epoch_gauge.set(self._epoch)
                self.artifact = str(loaded.path)
                self._base_fib = new_fib
                if self._managed is not None:
                    # adopt() does not re-fire commit listeners — the
                    # flip is already happening under this gate.
                    self._managed.adopt(new_algo, new_fib)
                self._pool.on_commit("reload", new_algo, None)
        self._commits.inc(1, server=self.name, outcome="reload")
        return self._epoch

    def _note_ship(self, kind: str, nbytes: int) -> None:
        """:class:`ReplicaSource` ``on_ship`` observer: payload accounting."""
        if kind == "delta":
            self._delta_bytes.inc(nbytes)
        else:
            self._snapshot_bytes.inc(nbytes)

    # ------------------------------------------------------------------
    # Pool/coalescer callbacks
    # ------------------------------------------------------------------
    def _worker_idle(self) -> None:
        self.coalescer.worker_idle()

    def _sink(self, batch: CoalescedBatch) -> bool:
        try:
            flushes = self._flushes_by_reason[batch.reason]
        except KeyError:
            flushes = self._flushes_by_reason[batch.reason] = \
                self._flushes.labels(server=self.name, reason=batch.reason)
        flushes.inc()
        # Admission is counted here, a batch at a time: a request with
        # the batch its first address went into (so once), an address
        # with its own batch — whether or not the pool then takes it.
        requests = sampled = 0
        for handle, handle_offset, _, _ in batch.parts:
            if not handle_offset:
                requests += 1
                if handle.sampled:
                    sampled += 1
        self._requests.inc(requests)
        self._addresses.inc(len(batch.addresses))
        self.spans.count_decisions(sampled, requests - sampled)
        if not self._pool.submit(batch):
            self._shed.inc(len(batch.addresses))
            now = self.clock.now()
            for handle, *_ in batch.parts:
                if handle.sampled:
                    self.spans.event(
                        trace_id_for(handle.seq, self._epoch), "shed",
                        now, seq=handle.seq, reason="pool_refused")
            return False
        self._batches.inc()
        self._batch_size.observe(len(batch.addresses))
        return True

    @staticmethod
    def _phase_intervals(meta: dict) -> List[Tuple[str, float, float]]:
        """The batch's phase intervals from the pool's meta stamps
        (``picked_at``/``gate_at``/``executed_at``/``scattered_at``,
        the same for both replica kinds: over a forked replica
        ``execute`` is the whole pipe round trip)."""
        out: List[Tuple[str, float, float]] = []
        opened, cut = meta.get("opened_at"), meta.get("cut_at")
        if opened is not None and cut is not None:
            out.append(("coalesce", opened, cut))
        if "picked_at" in meta:
            picked = meta["picked_at"]
            if cut is not None:
                out.append(("queue_wait", cut, picked))
            gate = meta.get("gate_at", picked)
            out.append(("gate", picked, gate))
            executed = meta.get("executed_at", gate)
            out.append(("execute", gate, executed))
            if "scattered_at" in meta:
                out.append(("scatter", executed, meta["scattered_at"]))
        return out

    def _on_done(self, batch: CoalescedBatch,
                 finished: List[PendingLookup]) -> None:
        """Book one served batch: everything here is per batch — one
        pass over the finished requests, then one ``observe_many`` each
        on the timings and the SLO windows."""
        now = self.clock.now()
        meta = batch.meta
        epoch = batch.parts[0][0].epoch if batch.parts else None
        if epoch is None:
            epoch = self._epoch
        phases = [(phase, start, end, max(0.0, end - start))
                  for phase, start, end in self._phase_intervals(meta)]
        # The root request span reuses the timer's exact floats (same
        # subtraction, same clamp to zero), so the span<->metrics
        # consistency check holds bit-for-bit at sample rate 1.
        durations = [dur if (dur := now - handle.submitted_at) > 0.0 else 0.0
                     for handle in finished]
        self.registry.observe_many(
            [(self._request_timing, durations)]
            + [(self._phase_timings[phase], (dur,))
               for phase, _, _, dur in phases])
        self.slo.observe_many(
            [("request", durations)]
            + [(phase, (dur,)) for phase, _, _, dur in phases])
        for handle, _, _, _ in batch.parts:
            if handle.sampled:
                self._record_spans(batch, finished, phases, epoch, now)
                break
        self._feed_answer_cache(finished)

    def _record_spans(self, batch: CoalescedBatch,
                      finished: List[PendingLookup],
                      phases: List[Tuple[str, float, float, float]],
                      epoch: int, now: float) -> None:
        """The spans of a batch that carries a sampled request: its
        phase decomposition, and a root span per sampled request."""
        spans = self.spans
        meta = batch.meta
        batch_seq, retries = meta.get("batch", 0), meta.get("retries", 0)
        worker = meta.get("worker", 0)
        # A forked replica's child times its own lookup (its clock, so
        # only the duration crosses the pipe).  This runs on the
        # worker's thread right after its round trip, so the replica's
        # last duration is this batch's; it rides on the execute span.
        child_s = getattr(self._pool.engines[worker], "last_execute_s", None)
        batch_trace = batch_trace_id_for(batch_seq, epoch)
        attrs = {"worker": worker, "batch": batch_seq, "reason": batch.reason,
                 "size": len(batch.addresses), "epoch": epoch,
                 "retries": retries}
        for phase, start, end, _ in phases:
            spans.record(batch_trace, phase, start, end, shared=dict(
                attrs, child_execute_s=child_s)
                if child_s is not None and phase == "execute" else attrs)
        for handle in finished:
            if handle.sampled:
                spans.record(
                    trace_id_for(handle.seq, handle.epoch or 0),
                    "request", handle.submitted_at, now,
                    seq=handle.seq, epoch=handle.epoch or 0,
                    addresses=len(handle.addresses),
                    batch=batch_seq, retries=retries, outcome="ok")

    def _note_requeue(self, worker: int, batch: CoalescedBatch) -> None:
        """Supervisor re-queued an orphaned batch: a visible retry
        marker on the batch trace (a marked seam, never a hole)."""
        if not any(h.sampled for h, *_ in batch.parts):
            return
        meta = batch.meta
        self.spans.event(
            batch_trace_id_for(meta.get("batch", 0), self._epoch),
            "retry", self.clock.now(), worker=worker,
            batch=meta.get("batch", 0),
            retries=meta.get("retries", 0))

    def _note_slo_breach(self, quantile: str, measured: float,
                         target: float) -> None:
        if self.health is not None:
            self.health.note_slo_breach()

    def _on_depth(self, depth: int) -> None:
        self._depth.set(depth)
        if self.health is not None:
            self.health.note_depth(depth)

    def _on_error(self, batch: Optional[CoalescedBatch],
                  exc: BaseException) -> None:
        self._worker_errors.inc()
        if batch is not None:
            now = self.clock.now()
            meta = batch.meta
            for handle, *_ in batch.parts:
                if handle.sampled:
                    self.spans.event(
                        trace_id_for(handle.seq, self._epoch), "error",
                        now, seq=handle.seq,
                        batch=meta.get("batch", 0),
                        error=type(exc).__name__)


#: Sentinel distinguishing "cached None hop" from "not cached".
_MISS = object()
