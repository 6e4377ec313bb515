"""Unit tests for the fault-tolerance layer (:mod:`repro.server.supervisor`).

Everything timing-related runs on a :class:`repro.obs.FakeClock`:
health-window trims, restart backoffs, request deadlines and client
retry sleeps all advance virtual time only — no test here waits on the
wall clock for a timer to fire.
"""

import random
import threading

import pytest

from repro.algorithms.hibst import HiBst
from repro.obs import FakeClock, MetricsRegistry
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib
from repro.server import (
    CoalescedBatch,
    LookupServer,
    PendingLookup,
    RequestShed,
    RequestTimeout,
    RestartPolicy,
    RetryingClient,
    RetryPolicy,
    ServerClosed,
    ServerError,
    ServingHealth,
    ServingState,
    ThreadWorkerPool,
    WorkerCrash,
    WorkerSupervisor,
)

WIDTH = 8


def small_fib(seed=3, size=40):
    rng = random.Random(seed)
    fib = Fib(WIDTH)
    while len(fib) < size:
        length = rng.randint(1, WIDTH)
        fib.insert(Prefix.from_bits(rng.getrandbits(length), length, WIDTH),
                   rng.randint(1, 99))
    return fib


# ---------------------------------------------------------------------------
# ServingHealth
# ---------------------------------------------------------------------------


class TestServingHealth:
    def test_starts_healthy(self):
        health = ServingHealth(FakeClock(), queue_capacity=8)
        assert health.state is ServingState.HEALTHY

    def test_queue_depth_escalates_immediately(self):
        health = ServingHealth(FakeClock(), queue_capacity=8,
                               degraded_depth=0.75, brownout_depth=2.0)
        health.note_depth(6)  # 0.75 of 8
        assert health.state is ServingState.DEGRADED
        health.note_depth(16)  # 2.0 of 8
        assert health.state is ServingState.BROWNOUT

    def test_restart_burst_escalates(self):
        health = ServingHealth(FakeClock(), degraded_restarts=2,
                               brownout_restarts=4)
        health.note_restart()
        assert health.state is ServingState.HEALTHY
        health.note_restart()
        assert health.state is ServingState.DEGRADED
        health.note_restart()
        health.note_restart()
        assert health.state is ServingState.BROWNOUT

    def test_deadline_miss_rate_escalates(self):
        health = ServingHealth(FakeClock(), degraded_miss_rate=0.05,
                               brownout_miss_rate=0.5)
        for _ in range(20):
            health.note_request()
        health.note_deadline_miss()  # 1/20 = 0.05
        assert health.state is ServingState.DEGRADED

    def test_recovery_needs_calm_and_steps_one_level(self):
        clock = FakeClock()
        health = ServingHealth(clock, queue_capacity=8, window_s=1.0,
                               recovery_s=1.0, brownout_restarts=4)
        for _ in range(4):
            health.note_restart()
        assert health.state is ServingState.BROWNOUT
        # The restart window expires; the first calm refresh only
        # starts the recovery timer.
        clock.advance(1.5)
        assert health.refresh() is ServingState.BROWNOUT
        # One recovery_s of calm steps down exactly ONE level.
        clock.advance(1.0)
        assert health.refresh() is ServingState.DEGRADED
        clock.advance(1.0)
        assert health.refresh() is ServingState.HEALTHY
        assert health.transitions == 4  # 2 up (D, B) + 2 down

    def test_new_trouble_resets_the_calm_timer(self):
        clock = FakeClock()
        health = ServingHealth(clock, window_s=1.0, recovery_s=1.0,
                               degraded_restarts=1)
        health.note_restart()
        assert health.state is ServingState.DEGRADED
        clock.advance(1.5)
        health.refresh()  # calm starts
        clock.advance(0.5)
        health.note_restart()  # trouble again: calm timer must reset
        assert health.state is ServingState.DEGRADED
        clock.advance(1.5)
        health.refresh()
        clock.advance(0.9)
        assert health.refresh() is ServingState.DEGRADED  # not calm enough
        clock.advance(0.1)
        assert health.refresh() is ServingState.HEALTHY

    def test_transition_callback_fires(self):
        seen = []
        health = ServingHealth(FakeClock(), degraded_restarts=1,
                               on_transition=lambda a, b: seen.append((a, b)))
        health.note_restart()
        assert seen == [(ServingState.HEALTHY, ServingState.DEGRADED)]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ServingHealth(FakeClock(), queue_capacity=0)


# ---------------------------------------------------------------------------
# RestartPolicy
# ---------------------------------------------------------------------------


class TestRestartPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RestartPolicy(FakeClock(), base_backoff_s=0.1,
                               max_backoff_s=0.5, budget=10, jitter=0.0)
        delays = [policy.next_delay(0) for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_budget_exhaustion_returns_none(self):
        policy = RestartPolicy(FakeClock(), budget=2, jitter=0.0)
        assert policy.next_delay(1) is not None
        assert policy.next_delay(1) is not None
        assert policy.next_delay(1) is None
        # Budgets are per worker: another worker is unaffected.
        assert policy.next_delay(2) is not None

    def test_window_forgives_old_restarts(self):
        clock = FakeClock()
        policy = RestartPolicy(clock, budget=1, window_s=10.0, jitter=0.0)
        assert policy.next_delay(0) is not None
        assert policy.next_delay(0) is None
        clock.advance(11.0)
        assert policy.next_delay(0) is not None
        assert policy.restarts_in_window(0) == 1

    def test_jitter_is_deterministic_per_seed(self):
        a = RestartPolicy(FakeClock(), seed=7, jitter=0.5)
        b = RestartPolicy(FakeClock(), seed=7, jitter=0.5)
        assert [a.next_delay(0) for _ in range(3)] == \
            [b.next_delay(0) for _ in range(3)]
        c = RestartPolicy(FakeClock(), seed=8, jitter=0.5)
        assert a._rng(1).random() != c._rng(1).random()

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            RestartPolicy(FakeClock(), budget=-1)


# ---------------------------------------------------------------------------
# WorkerSupervisor (against a fake pool)
# ---------------------------------------------------------------------------


class FakePool:
    def __init__(self, accept_requeue=True, restart_ok=True):
        self.requeued = []
        self.restarted = []
        self.accept_requeue = accept_requeue
        self.restart_ok = restart_ok

    def requeue(self, batch):
        self.requeued.append(batch)
        if not self.accept_requeue:
            batch.fail(RequestShed("fake pool refused"))
            return False
        return True

    def restart_worker(self, worker):
        self.restarted.append(worker)
        return self.restart_ok


def make_batch(addresses=(1, 2)):
    handle = PendingLookup(list(addresses), 0.0)
    return handle, CoalescedBatch(list(addresses),
                                  [(handle, 0, 0, len(addresses))], "size")


class TestWorkerSupervisor:
    def test_requeues_orphans_and_restarts_after_backoff(self):
        clock = FakeClock()
        pool = FakePool()
        sup = WorkerSupervisor(pool, clock,
                               policy=RestartPolicy(clock, base_backoff_s=0.1,
                                                    jitter=0.0))
        _handle, batch = make_batch()
        sup.worker_exited(1, WorkerCrash("boom"), [batch])
        assert pool.requeued == [batch]
        assert sup.requeued_batches == 1
        assert pool.restarted == []  # still in backoff
        clock.advance(0.2)
        assert pool.restarted == [1]
        assert sup.deaths == 1 and sup.restarts == 1

    def test_accepts_orphan_lists_and_none(self):
        clock = FakeClock()
        pool = FakePool()
        sup = WorkerSupervisor(pool, clock, policy=RestartPolicy(clock))
        _h1, b1 = make_batch()
        _h2, b2 = make_batch()
        sup.worker_exited(0, WorkerCrash("x"), [b1, b2])
        sup.worker_exited(0, WorkerCrash("y"), [])
        assert pool.requeued == [b1, b2]
        assert sup.deaths == 2

    def test_gives_up_when_budget_spent(self):
        clock = FakeClock()
        pool = FakePool()
        gave_up = []
        sup = WorkerSupervisor(
            pool, clock,
            policy=RestartPolicy(clock, budget=1, jitter=0.0),
            on_giveup=gave_up.append)
        sup.worker_exited(2, WorkerCrash("a"), [])
        clock.advance(1.0)
        sup.worker_exited(2, WorkerCrash("b"), [])
        clock.advance(10.0)
        assert pool.restarted == [2]  # only the first death restarted
        assert sup.giveups == 1 and sup.given_up == [2]
        assert gave_up == [2]

    def test_health_sees_every_death(self):
        clock = FakeClock()
        health = ServingHealth(clock, degraded_restarts=2)
        sup = WorkerSupervisor(FakePool(), clock,
                               policy=RestartPolicy(clock), health=health)
        sup.worker_exited(0, WorkerCrash("x"), [])
        sup.worker_exited(1, WorkerCrash("y"), [])
        assert health.state is ServingState.DEGRADED

    def test_close_cancels_pending_restarts(self):
        clock = FakeClock()
        pool = FakePool()
        sup = WorkerSupervisor(pool, clock,
                               policy=RestartPolicy(clock, jitter=0.0))
        sup.worker_exited(0, WorkerCrash("x"), [])
        sup.close()
        clock.advance(10.0)
        assert pool.restarted == []
        sup.close()  # idempotent

    def test_death_after_close_fails_orphans(self):
        clock = FakeClock()
        pool = FakePool()
        sup = WorkerSupervisor(pool, clock, policy=RestartPolicy(clock))
        sup.close()
        handle, batch = make_batch()
        sup.worker_exited(0, WorkerCrash("x"), [batch])
        with pytest.raises(ServerError):
            handle.result(0)
        assert pool.requeued == []  # never re-queued into a closed pool


# ---------------------------------------------------------------------------
# RetryPolicy / RetryingClient
# ---------------------------------------------------------------------------


class FlakyServer:
    """Duck-typed server: fails the first N submits, then answers."""

    def __init__(self, failures, clock):
        self.failures = list(failures)
        self.clock = clock
        self.submits = 0

    def submit(self, addresses):
        self.submits += 1
        handle = PendingLookup(list(addresses), self.clock.now())
        if self.failures:
            handle._fail(self.failures.pop(0))
        else:
            handle._scatter(0, [7] * len(handle.addresses), 0)
        return handle


class TestRetrying:
    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(RequestTimeout("t"))
        assert policy.retryable(RequestShed("s"))
        assert policy.retryable(WorkerCrash("c"))
        assert not policy.retryable(ServerClosed("gone"))
        assert not policy.retryable(RuntimeError("engine bug"))

    def test_retry_safe_attribute_is_honoured(self):
        from repro.chaos import ChaosBatchFault
        assert RetryPolicy().retryable(ChaosBatchFault("injected"))

    def test_client_retries_until_success(self):
        clock = FakeClock()
        server = FlakyServer([RequestTimeout("t"), RequestShed("s")], clock)
        client = RetryingClient(server, policy=RetryPolicy(attempts=3),
                                clock=clock)
        assert client.lookup([1, 2]) == [7, 7]
        assert server.submits == 3
        assert client.retries == 2
        assert clock.now() > 0  # backoffs consumed virtual time

    def test_client_exhausts_and_raises_last_error(self):
        clock = FakeClock()
        server = FlakyServer([RequestTimeout(f"t{i}") for i in range(5)],
                             clock)
        client = RetryingClient(server, policy=RetryPolicy(attempts=2),
                                clock=clock)
        with pytest.raises(RequestTimeout, match="t1"):
            client.lookup([1])
        assert client.exhausted == 1

    def test_client_never_retries_closed(self):
        clock = FakeClock()
        server = FlakyServer([ServerClosed("gone")], clock)
        client = RetryingClient(server, policy=RetryPolicy(attempts=5),
                                clock=clock)
        with pytest.raises(ServerClosed):
            client.lookup([1])
        assert server.submits == 1 and client.retries == 0

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


# ---------------------------------------------------------------------------
# Server-level robustness (deadlines, brownout, degradation)
# ---------------------------------------------------------------------------


class NeverEngine:
    """An engine that never answers (simulates a wedged worker)."""

    def __init__(self):
        self.release = threading.Event()

    def lookup_batch(self, addresses):
        assert self.release.wait(30)
        return [None] * len(addresses)


class TestServerRobustness:
    def test_deadline_fails_future_with_request_timeout(self):
        clock = FakeClock()
        fib = small_fib()
        registry = MetricsRegistry()
        server = LookupServer(HiBst(fib), workers=1, registry=registry,
                              clock=clock, request_deadline_s=0.5,
                              max_wait_s=10.0)
        with server:
            # Submit but never flush: the batch sits in the coalescer
            # until the deadline timer fires on the fake clock.
            handle = server.submit([1, 2, 3])
            clock.advance(1.0)
            with pytest.raises(RequestTimeout):
                handle.result(0)
            counters = registry.snapshot()["counters"]
            assert sum(counters[
                "repro_server_deadline_misses_total"].values()) == 1

    def test_served_request_disarms_its_deadline(self):
        clock = FakeClock()
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1, clock=clock,
                              request_deadline_s=0.5)
        with server:
            hops = server.lookup_batch([1, 2], timeout=30)
            assert hops == [fib.lookup(1), fib.lookup(2)]
            assert clock.pending_timers() == 0  # timer disarmed
            clock.advance(1.0)  # firing window passes harmlessly

    def test_brownout_serves_cache_hits_and_sheds_misses(self):
        clock = FakeClock()
        fib = small_fib()
        registry = MetricsRegistry()
        server = LookupServer(HiBst(fib), workers=1, clock=clock,
                              registry=registry)
        with server:
            warm = server.lookup_batch([5, 6], timeout=30)
            # Force BROWNOUT through the health feeds.
            for _ in range(4):
                server.health.note_restart()
            assert server.health_state is ServingState.BROWNOUT
            # Cache hit: answered immediately, correct hops.
            hit = server.submit([5, 6])
            assert hit.result(0) == warm
            # Cache miss: shed with a typed error.
            miss = server.submit([250])
            with pytest.raises(RequestShed):
                miss.result(0)
            counters = registry.snapshot()["counters"]
            assert sum(counters[
                "repro_server_brownout_hits_total"].values()) == 2

    def test_commit_clears_the_brownout_cache(self):
        clock = FakeClock()
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1, clock=clock)
        with server:
            server.lookup_batch([9], timeout=30)
            server.refresh()  # epoch bump clears the answer cache
            for _ in range(4):
                server.health.note_restart()
            stale = server.submit([9])
            with pytest.raises(RequestShed):
                stale.result(0)

    def test_degraded_keeps_backend_and_answers(self):
        # DEGRADED is a health signal, not a switch to the scalar plan
        # (8.2 vs 0.95 us/lookup): the execution path is fixed at
        # compile time and answers stay correct.
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1)
        addresses = list(range(0, 256, 7))
        expected = [fib.lookup(a) for a in addresses]
        with server:
            assert server.lookup_batch(addresses, timeout=30) == expected
            assert server.active_backend == "vector"
            server.health.note_restart()
            server.health.note_restart()
            assert server.health_state is ServingState.DEGRADED
            assert server.lookup_batch(addresses, timeout=30) == expected
            assert server.active_backend == "vector"
            assert server.health_state is ServingState.DEGRADED

    def test_thread_worker_crash_restarts_and_serves_on(self):
        fib = small_fib()
        registry = MetricsRegistry()
        server = LookupServer(
            HiBst(fib), workers=1, registry=registry,
            restart_policy=RestartPolicy(base_backoff_s=0.005,
                                         max_backoff_s=0.01, budget=5,
                                         jitter=0.0))
        crashed = threading.Event()
        engine = server.engines()[0]
        real = engine.lookup_batch

        def sabotage(addresses):
            if not crashed.is_set():
                crashed.set()
                raise WorkerCrash("induced")
            return real(addresses)

        engine.lookup_batch = sabotage
        with server:
            hops = server.lookup_batch([1, 2, 3], timeout=30)
            assert hops == [fib.lookup(a) for a in (1, 2, 3)]
        assert server.supervisor.deaths == 1
        assert server.supervisor.restarts == 1
        assert server.supervisor.requeued_batches == 1
        counters = registry.snapshot()["counters"]
        assert sum(counters["repro_server_worker_deaths_total"].values()) == 1
        assert sum(counters["repro_server_restarts_total"].values()) == 1

    def test_retry_client_round_trip(self):
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1, max_wait_s=0.001)
        with server:
            client = server.retry_client()
            # A healthy server answers without retrying (the 1 ms
            # coalescer deadline flushes the batch on the real clock).
            assert client.lookup([4], timeout=30) == [fib.lookup(4)]
            assert client.retries == 0

    def test_unsupervised_server_has_no_health(self):
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1, supervise=False)
        with server:
            assert server.health is None
            assert server.supervisor is None
            assert server.health_state is ServingState.HEALTHY
            assert server.lookup(3, timeout=30) == fib.lookup(3)
