"""Unit tests for the serving frontend (:mod:`repro.server`).

The coalescer is driven with a :class:`repro.obs.FakeClock`, so every
deadline-trigger assertion is deterministic — no test here sleeps on
the wall clock to make a timer fire, except the contract tests of
:class:`repro.obs.MonotonicClock` itself (``TestClocks``), which wait
at most a fraction of a second each for real deadlines.
"""

import collections
import functools
import gc
import multiprocessing
import random
import sys
import threading
import time
import weakref

import pytest

from repro.algorithms import Bsic, Resail
from repro.algorithms.hibst import HiBst
from repro.chaos import ChaosPlan
from repro.control import ChurnGenerator, ManagedFib, RuntimePolicy, UpdateOp
from repro.control.churn import ANNOUNCE
from repro.obs import FakeClock, MetricsRegistry, MonotonicClock
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib
from repro.server import (
    CoalescedBatch,
    CommitGate,
    ForkedReplica,
    LookupServer,
    PendingLookup,
    ReplicaSource,
    RequestCoalescer,
    RequestShed,
    RequestTimeout,
    RestartPolicy,
    ServerClosed,
    ServerError,
    ThreadWorkerPool,
    WorkerCrash,
    fib_snapshot,
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


class RecordingSink:
    """A coalescer sink that records batches and can refuse them."""

    def __init__(self, accept=True):
        self.batches = []
        self.accept = accept

    def __call__(self, batch):
        self.batches.append(batch)
        return self.accept


def _exit_zero_if_a_timer_fires():
    fired = threading.Event()
    clock = MonotonicClock()
    clock.call_at(clock.now() + 0.01, fired.set)
    sys.exit(0 if fired.wait(10) else 1)


class _TimerOwner:
    def __init__(self):
        self.fired = threading.Event()

    def fire(self):
        self.fired.set()


def _exit_zero_if_timers_release_their_callbacks():
    # Run in a fresh fork, so the fired timer is the first job of the
    # child's first runner thread.
    clock = MonotonicClock()
    fired, cancelled = _TimerOwner(), _TimerOwner()
    clock.call_at(clock.now(), fired.fire)
    clock.call_at(clock.now() + 30.0, cancelled.fire).cancel()
    ok = fired.fired.wait(10)
    refs = [weakref.ref(fired), weakref.ref(cancelled)]
    del fired, cancelled
    for _ in range(200):    # the runner drops its reference just after
        gc.collect()
        if all(ref() is None for ref in refs):
            break
        threading.Event().wait(0.01)
    sys.exit(0 if ok and all(ref() is None for ref in refs) else 1)


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class TestClocks:
    def test_fake_clock_advances_and_fires_in_deadline_order(self):
        clock = FakeClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(9.0, lambda: fired.append("later"))
        clock.advance(2.5)
        assert fired == ["a", "b"]
        assert clock.now() == 2.5
        assert clock.pending_timers() == 1

    def test_fake_clock_cancel_suppresses_callback(self):
        clock = FakeClock()
        fired = []
        handle = clock.call_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        clock.advance(5.0)
        assert fired == []
        assert clock.pending_timers() == 0

    def test_fake_clock_rejects_backward_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-0.1)

    def test_fake_clock_callback_sees_its_deadline_as_now(self):
        clock = FakeClock()
        seen = []
        rearmed = []
        clock.call_at(1.0, lambda: (seen.append(clock.now()),
                                    clock.call_at(clock.now() + 1.0,
                                                  lambda: rearmed.append(
                                                      clock.now()))))
        clock.advance(3.0)
        assert seen == [1.0]
        assert rearmed == [2.0]

    def test_monotonic_clock_timer_fires(self):
        clock = MonotonicClock()
        done = threading.Event()
        clock.call_at(clock.now(), done.set)
        assert done.wait(10)

    def test_monotonic_clock_cancel(self):
        clock = MonotonicClock()
        fired = threading.Event()
        handle = clock.call_at(clock.now() + 30.0, fired.set)
        handle.cancel()
        assert not fired.wait(0.01)

    def test_monotonic_clock_earlier_deadline_armed_later_fires_first(self):
        clock = MonotonicClock()
        fired, done = [], threading.Event()
        now = clock.now()
        clock.call_at(now + 0.2, lambda: (fired.append("late"), done.set()))
        clock.call_at(now + 0.05, lambda: fired.append("early"))
        assert done.wait(10)
        assert fired == ["early", "late"]

    def test_monotonic_clock_callback_rearms_itself(self):
        clock = MonotonicClock()
        seen, done = [], threading.Event()

        def tick():
            seen.append(clock.now())
            if len(seen) < 3:
                clock.call_at(clock.now() + 0.01, tick)
            else:
                done.set()

        clock.call_at(clock.now(), tick)
        assert done.wait(10)
        assert len(seen) == 3 and seen == sorted(seen)

    def test_monotonic_clock_blocked_callback_delays_no_other_timer(self):
        clock = MonotonicClock()
        release, done, fired_at = threading.Event(), threading.Event(), []
        now = clock.now()
        clock.call_at(now, lambda: release.wait(10))
        due = now + 0.1
        clock.call_at(due, lambda: (fired_at.append(clock.now()),
                                    done.set()))
        try:
            assert done.wait(10)
        finally:
            release.set()
        assert fired_at[0] - due < 0.05

    def test_monotonic_clock_raising_callback_reaches_excepthook(
            self, monkeypatch):
        clock = MonotonicClock()
        hooked, done, seen = threading.Event(), threading.Event(), []

        def hook(args):
            seen.append(args.exc_type)
            hooked.set()

        def boom():
            raise ValueError("boom")

        monkeypatch.setattr(threading, "excepthook", hook)
        now = clock.now()
        clock.call_at(now, boom)
        clock.call_at(now + 0.01, done.set)
        assert hooked.wait(10) and done.wait(10)
        assert seen == [ValueError]

    def test_monotonic_clock_under_concurrent_arming(self):
        clock = MonotonicClock()
        threads, per_thread = 8, 100
        fired, lock, all_fired = collections.Counter(), threading.Lock(), \
            threading.Event()
        expected = {(seed, i) for seed in range(threads)
                    for i in range(0, per_thread, 2)}

        def fire(key):
            with lock:
                fired[key] += 1
                if len(fired) == len(expected):
                    all_fired.set()

        def arm(seed):
            rng = random.Random(seed)
            for i in range(per_thread):
                if i % 2:   # cancelled well before it is due
                    clock.call_at(clock.now() + rng.uniform(0.05, 0.1),
                                  functools.partial(fire, (seed, i))).cancel()
                else:
                    clock.call_at(clock.now() + rng.uniform(0.0, 0.1),
                                  functools.partial(fire, (seed, i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=arm, args=(seed,))
                       for seed in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
            assert not any(worker.is_alive() for worker in workers)
            assert all_fired.wait(30)
        finally:
            sys.setswitchinterval(interval)
        time.sleep(0.15)    # past every cancelled deadline
        assert set(fired) == expected
        assert set(fired.values()) == {1}

    def test_monotonic_clock_arms_no_thread_per_deadline(self):
        clock = MonotonicClock()
        before = threading.active_count()
        handles = [clock.call_at(clock.now() + 30.0, lambda: None)
                   for _ in range(200)]
        try:
            assert threading.active_count() - before <= 2
        finally:
            for handle in handles:
                handle.cancel()

    def test_monotonic_clock_fires_in_a_forked_child(self):
        clock = MonotonicClock()
        # A timer thread (with a deadline pending) exists before the fork.
        handle = clock.call_at(clock.now() + 30.0, lambda: None)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_exit_zero_if_a_timer_fires)
            child.start()
            child.join(30)
        finally:
            handle.cancel()
        assert child.exitcode == 0

    def test_monotonic_clock_keeps_no_fired_or_cancelled_callback_alive(
            self):
        child = multiprocessing.get_context("fork").Process(
            target=_exit_zero_if_timers_release_their_callbacks)
        child.start()
        child.join(30)
        assert child.exitcode == 0


# ---------------------------------------------------------------------------
# PendingLookup / CoalescedBatch
# ---------------------------------------------------------------------------


class TestPendingLookup:
    def test_empty_request_is_immediately_done(self):
        handle = PendingLookup([], 0.0)
        assert handle.done()
        assert handle.result(0) == []

    def test_scatter_orders_and_tags_epoch(self):
        handle = PendingLookup([10, 20, 30], 0.0)
        assert not handle._scatter(0, [1], epoch=3)
        assert handle._scatter(1, [2, 4], epoch=4)
        assert handle.result(0) == [1, 2, 4]
        assert handle.epoch == 4
        assert handle.epoch_span == (3, 4)
        assert handle.deliveries == 2

    def test_duplicate_delivery_is_a_hard_bug(self):
        handle = PendingLookup([10], 0.0)
        handle._scatter(0, [1], epoch=0)
        with pytest.raises(AssertionError):
            handle._scatter(0, [1], epoch=0)

    def test_fail_is_idempotent_and_raises_on_result(self):
        handle = PendingLookup([10], 0.0)
        assert handle._fail(RequestShed("drop"))
        assert not handle._fail(ServerClosed("late"))
        with pytest.raises(RequestShed):
            handle.result(0)

    def test_one_resolution_wakes_every_waiter(self):
        handle = PendingLookup([10, 20], 0.0)
        woke = []
        waiters = [threading.Thread(
            target=lambda: woke.append(handle.wait(30))) for _ in range(5)]
        waiters.append(threading.Thread(
            target=lambda: woke.append(handle.result(30) == [1, 2])))
        for thread in waiters:
            thread.start()
        assert not handle.wait(0.01)     # nobody is through yet
        assert handle._scatter(0, [1, 2], epoch=0)
        for thread in waiters:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in waiters)
        assert woke == [True] * 6
        assert handle.wait() and handle.wait(0) and handle.done()

    def test_timeouts_report_what_is_pending(self):
        handle = PendingLookup([10, 20, 30], 0.0)
        handle._scatter(0, [1], epoch=0)
        assert not handle.done()
        assert handle.wait(0) is False
        assert handle.wait(-1.0) is False    # a spent budget: poll, not raise
        assert handle.wait(0.01) is False
        with pytest.raises(TimeoutError, match=r"2/3 pending"):
            handle.result(0.01)
        assert handle._scatter(1, [2, 3], epoch=0)
        assert handle.result(0) == [1, 2, 3]

    def test_empty_request_never_resolves_again(self):
        handle = PendingLookup([], 0.0)
        assert handle.wait() and handle.wait(0)
        assert not handle._fail(ServerClosed("late"))
        assert handle.result(0) == []

    def test_duplicate_delivery_to_a_failed_request_is_dropped(self):
        handle = PendingLookup([10], 0.0)
        assert handle._fail(RequestShed("drop"))
        assert handle._scatter(0, [1], epoch=0) is False
        with pytest.raises(RequestShed):
            handle.result(0)

    def test_whole_delivery_is_adopted_partial_ones_are_copied(self):
        whole = PendingLookup([10, 20], 0.0)
        hops = [1, 2]
        whole._scatter(0, hops, epoch=0)
        assert whole._hops is hops
        assert whole.result(0) == hops and whole.result(0) is not hops
        # Parts may land in any order (two workers, two batches).
        split = PendingLookup([10, 20, 30], 0.0)
        assert not split._scatter(1, [2, 3], epoch=5)
        assert split._scatter(0, [1], epoch=4)
        assert split.result(0) == [1, 2, 3]
        assert split.epoch_span == (4, 4) and split.deliveries == 2

    def test_fail_racing_the_final_scatter_resolves_exactly_once(self):
        """A deadline ``_fail`` against the last ``_scatter``, from two
        threads, cut into by a tiny switch interval: one of them wins,
        the loser is told so, the waiter lock is released once (a second
        release would raise) and the deadline timer is disarmed."""
        trials = 2_500
        clock = FakeClock()
        start = threading.Barrier(2)
        handles = [PendingLookup([1, 2], 0.0) for _ in range(trials)]
        for handle in handles:
            handle.deadline_timer = clock.call_at(1.0, lambda: None)
        won = {"scatter": [], "fail": []}
        errors = []

        def run(side, resolve):
            try:
                for handle in handles:
                    start.wait(timeout=30)   # both sides, every trial
                    won[side].append(resolve(handle))
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        timeout = RequestTimeout("late")
        pair = [
            threading.Thread(target=run, args=(
                "scatter", lambda h: h._scatter(0, [7, 8], epoch=0))),
            threading.Thread(target=run, args=(
                "fail", lambda h: h._fail(timeout))),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pair:
                thread.start()
            for thread in pair:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pair)
        assert errors == []
        answered = failed = 0
        for handle, scattered, did_fail in zip(
                handles, won["scatter"], won["fail"]):
            assert scattered != did_fail       # exactly one resolver
            assert handle.done() and handle.wait(0)
            assert handle.deadline_timer is None
            if scattered:
                answered += 1
                assert handle.result(0) == [7, 8]
            else:
                failed += 1
                with pytest.raises(RequestTimeout):
                    handle.result(0)
        assert answered + failed == trials
        assert clock.pending_timers() == 0

    def test_batch_complete_requires_matching_hop_count(self):
        handle = PendingLookup([1, 2], 0.0)
        batch = CoalescedBatch([1, 2], [(handle, 0, 0, 2)], "size")
        with pytest.raises(ValueError):
            batch.complete([7], epoch=0)
        assert batch.complete([7, 8], epoch=0) == [handle]


# ---------------------------------------------------------------------------
# RequestCoalescer
# ---------------------------------------------------------------------------


class TestCoalescer:
    def test_size_trigger_cuts_exactly_at_max_batch(self):
        sink = RecordingSink()
        clock = FakeClock()
        box = RequestCoalescer(sink, max_batch=4, max_wait_s=1.0, clock=clock)
        handles = [box.submit([i, i + 100]) for i in range(3)]
        assert [len(b) for b in sink.batches] == [4]
        assert sink.batches[0].reason == "size"
        assert sink.batches[0].addresses == [0, 100, 1, 101]
        # The third request's two addresses sit in the open batch.
        assert box.pending_addresses == 2
        sink.batches[0].complete([9, 9, 9, 9], epoch=0)
        assert handles[0].done() and handles[1].done()
        assert not handles[2].done()

    def test_large_request_spans_batches_in_order(self):
        sink = RecordingSink()
        box = RequestCoalescer(sink, max_batch=3, max_wait_s=1.0,
                               clock=FakeClock())
        handle = box.submit(list(range(8)))
        assert [b.addresses for b in sink.batches] == [[0, 1, 2], [3, 4, 5]]
        box.flush()
        assert sink.batches[2].addresses == [6, 7]
        for batch in sink.batches:
            batch.complete([a * 10 for a in batch.addresses], epoch=0)
        assert handle.result(0) == [a * 10 for a in range(8)]
        assert handle.deliveries == 3

    def test_deadline_trigger_fires_via_fake_clock(self):
        sink = RecordingSink()
        clock = FakeClock()
        box = RequestCoalescer(sink, max_batch=100, max_wait_s=0.5,
                               clock=clock)
        box.submit([1, 2])
        clock.advance(0.4)
        assert sink.batches == []  # not due yet
        clock.advance(0.2)
        assert [b.reason for b in sink.batches] == ["deadline"]
        assert box.pending_addresses == 0

    def test_deadline_measured_from_first_address(self):
        sink = RecordingSink()
        clock = FakeClock()
        box = RequestCoalescer(sink, max_batch=100, max_wait_s=0.5,
                               clock=clock)
        box.submit([1])
        clock.advance(0.3)
        box.submit([2])  # must NOT re-arm the deadline
        clock.advance(0.3)
        assert [b.addresses for b in sink.batches] == [[1, 2]]

    def test_size_cut_disarms_the_deadline(self):
        sink = RecordingSink()
        clock = FakeClock()
        box = RequestCoalescer(sink, max_batch=2, max_wait_s=0.5, clock=clock)
        box.submit([1, 2])  # exact fit: size cut, batch empty again
        assert [b.reason for b in sink.batches] == ["size"]
        clock.advance(10.0)
        assert len(sink.batches) == 1  # no spurious deadline flush
        assert clock.pending_timers() == 0

    def test_manual_flush_and_reasons(self):
        sink = RecordingSink()
        box = RequestCoalescer(sink, max_batch=100, max_wait_s=1.0,
                               clock=FakeClock())
        box.submit([1])
        box.flush()
        assert [b.reason for b in sink.batches] == ["manual"]
        box.flush()  # empty flush is a no-op
        assert len(sink.batches) == 1

    def test_close_drains_then_rejects(self):
        sink = RecordingSink()
        box = RequestCoalescer(sink, max_batch=100, max_wait_s=1.0,
                               clock=FakeClock())
        handle = box.submit([5])
        box.close(drain=True)
        assert [b.reason for b in sink.batches] == ["drain"]
        sink.batches[0].complete([1], epoch=0)
        assert handle.result(0) == [1]
        with pytest.raises(ServerClosed):
            box.submit([6])

    def test_close_without_drain_fails_pending(self):
        sink = RecordingSink()
        box = RequestCoalescer(sink, max_batch=100, max_wait_s=1.0,
                               clock=FakeClock())
        handle = box.submit([5])
        box.close(drain=False)
        assert sink.batches == []
        with pytest.raises(ServerClosed):
            handle.result(0)

    def test_refused_batch_fails_with_request_shed(self):
        sink = RecordingSink(accept=False)
        box = RequestCoalescer(sink, max_batch=2, max_wait_s=1.0,
                               clock=FakeClock())
        handle = box.submit([1, 2])
        with pytest.raises(RequestShed):
            handle.result(0)

    def test_late_deadline_timer_cuts_nothing(self):
        # cancel() cannot stop a callback that already started: batch
        # 0's timer may be waiting on the lock while a submitter cuts
        # batch 0 by size and opens batch 1.  When it gets the lock it
        # must leave batch 1 (and batch 1's timer) alone.
        sink = RecordingSink()
        clock = RecordingClock()
        box = RequestCoalescer(sink, max_batch=2, max_wait_s=1.0, clock=clock)
        box.submit([1])          # opens batch 0, arms its deadline
        box.submit([2])          # size cut; batch 0's timer is cancelled
        box.submit([3])          # opens batch 1, arms its deadline
        late, _ = clock.callbacks
        late()                   # batch 0's timer, run late by hand
        assert [b.reason for b in sink.batches] == ["size"]
        assert box.pending_addresses == 1
        assert clock.pending_timers() == 1
        clock.advance(1.0)       # batch 1's own deadline still fires
        assert [b.reason for b in sink.batches] == ["size", "deadline"]
        assert sink.batches[1].addresses == [3]


class RecordingClock(FakeClock):
    """A :class:`FakeClock` that also keeps every callback armed on it,
    cancelled or not, so a test can run one late by hand."""

    def __init__(self):
        super().__init__()
        self.callbacks = []

    def call_at(self, when, callback):
        self.callbacks.append(callback)
        return super().call_at(when, callback)


class TestIdleTrigger:
    """The third cut rule: a worker waits on an empty queue and the
    open batch would not fill by size before its deadline."""

    def box(self, idle, max_batch=100, max_wait_s=1.0):
        sink, clock = RecordingSink(), FakeClock()
        box = RequestCoalescer(sink, max_batch=max_batch,
                               max_wait_s=max_wait_s, clock=clock, idle=idle)
        return box, sink, clock

    def test_sparse_arrivals_with_an_idle_worker_cut_at_submit(self):
        box, sink, clock = self.box(lambda: True)
        first = box.submit([1])
        assert sink.batches == []    # rate unknown until the second request
        clock.advance(0.5)
        second = box.submit([2])     # 98 more at 0.5 s each: never in time
        assert [b.reason for b in sink.batches] == ["idle"]
        assert sink.batches[0].addresses == [1, 2]
        assert clock.pending_timers() == 0
        sink.batches[0].complete([7, 8], epoch=0)
        assert first.result(0) == [7] and second.result(0) == [8]
        clock.advance(0.5)
        box.submit([3])              # still sparse: cut at once
        assert [b.reason for b in sink.batches] == ["idle", "idle"]

    def test_all_workers_busy_waits_for_the_deadline(self):
        box, sink, clock = self.box(lambda: False)
        box.submit([1])
        clock.advance(0.5)
        box.submit([2])
        assert sink.batches == []
        clock.advance(0.5)
        assert [b.reason for b in sink.batches] == ["deadline"]
        assert sink.batches[0].addresses == [1, 2]

    def test_back_to_back_arrivals_wait_for_size_without_asking(self):
        # The saturate shape: requests microseconds apart fill the batch
        # by size, and the rate check keeps the pool out of it.
        asked = []

        def idle():
            asked.append(True)
            return True

        box, sink, clock = self.box(idle, max_batch=8)
        for i in range(4):
            box.submit([2 * i, 2 * i + 1])
        assert [b.reason for b in sink.batches] == ["size"]
        for i in range(3):
            clock.advance(1e-6)
            box.submit([i])
        assert box.pending_addresses == 3
        assert asked == []

    def test_a_worker_going_idle_cuts_the_sparse_batch(self):
        busy = [True]
        box, sink, clock = self.box(lambda: not busy[0])
        box.submit([1])
        clock.advance(0.25)
        box.submit([2])
        assert sink.batches == []    # sparse, but every worker is busy
        box.worker_idle()            # a spurious call: still all busy
        assert sink.batches == []
        busy[0] = False
        box.worker_idle()
        assert [b.reason for b in sink.batches] == ["idle"]
        assert sink.batches[0].addresses == [1, 2]
        assert clock.pending_timers() == 0
        box.worker_idle()            # nothing open: nothing to cut
        assert len(sink.batches) == 1

    def test_a_worker_going_idle_leaves_a_filling_batch_alone(self):
        box, sink, clock = self.box(lambda: True, max_batch=8)
        for i in range(3):
            box.submit([i])
        box.worker_idle()
        assert sink.batches == [] and box.pending_addresses == 3
        clock.advance(1.0)
        assert [b.reason for b in sink.batches] == ["deadline"]

    def test_no_idle_cut_after_close(self):
        box, sink, clock = self.box(lambda: True)
        box.submit([1])
        box.close(drain=False)
        box.worker_idle()
        assert sink.batches == []


# ---------------------------------------------------------------------------
# CommitGate
# ---------------------------------------------------------------------------


class TestCommitGate:
    def test_writer_waits_for_readers(self):
        gate = CommitGate()
        in_write = threading.Event()
        gate.acquire_read()
        writer = threading.Thread(
            target=lambda: (gate.acquire_write(), in_write.set()))
        writer.start()
        assert not in_write.wait(0.05)
        gate.release_read()
        assert in_write.wait(10)
        gate.release_write()
        writer.join()

    def test_waiting_writer_blocks_new_readers(self):
        gate = CommitGate()
        gate.acquire_read()
        writer = threading.Thread(target=lambda: (gate.acquire_write(),
                                                  gate.release_write()))
        writer.start()
        # Give the writer a moment to start waiting, then try to read.
        got_read = threading.Event()
        reader = threading.Thread(target=lambda: (gate.acquire_read(),
                                                  got_read.set()))
        reader.start()
        assert not got_read.wait(0.05)  # writer-preference holds
        gate.release_read()
        assert got_read.wait(10)  # writer ran, then the reader
        gate.release_read()
        writer.join()
        reader.join()

    def test_writer_is_never_starved_by_a_reader_stream(self):
        # A continuous stream of short readers must not starve the
        # writer: once the writer is waiting, new readers queue behind
        # it, so the writer gets in as soon as the *current* readers
        # drain — writer preference is the anti-starvation mechanism.
        gate = CommitGate()
        in_write = threading.Event()
        stop = threading.Event()
        served_before_write = []

        def reader_stream():
            while not stop.is_set():
                gate.acquire_read()
                if not in_write.is_set():
                    served_before_write.append(1)
                gate.release_read()

        readers = [threading.Thread(target=reader_stream) for _ in range(4)]
        for thread in readers:
            thread.start()
        writer = threading.Thread(
            target=lambda: (gate.acquire_write(), in_write.set(),
                            gate.release_write()))
        writer.start()
        # The writer must land despite the stream never pausing.
        assert in_write.wait(10), "writer starved by continuous readers"
        stop.set()
        writer.join()
        for thread in readers:
            thread.join()

    def test_reader_admitted_after_pending_write_completes(self):
        gate = CommitGate()
        gate.acquire_read()
        write_done = threading.Event()
        writer = threading.Thread(
            target=lambda: (gate.acquire_write(), write_done.set(),
                            gate.release_write()))
        writer.start()
        read_got_in = threading.Event()
        reader = threading.Thread(
            target=lambda: (gate.acquire_read(), read_got_in.set(),
                            gate.release_read()))
        reader.start()
        assert not read_got_in.wait(0.05)  # held out by the pending write
        gate.release_read()
        assert write_done.wait(10)
        assert read_got_in.wait(10)  # admitted once the write retired
        writer.join()
        reader.join()

    def test_unbalanced_releases_raise(self):
        gate = CommitGate()
        with pytest.raises(ServerError):
            gate.release_read()  # nothing acquired
        with pytest.raises(ServerError):
            gate.release_write()  # no writer active
        gate.acquire_read()
        gate.release_read()
        with pytest.raises(ServerError):
            gate.release_read()  # double release
        gate.acquire_write()
        gate.release_write()
        with pytest.raises(ServerError):
            gate.release_write()  # double release

    def test_context_managers_balance_on_exception(self):
        gate = CommitGate()
        with pytest.raises(RuntimeError):
            with gate.read():
                raise RuntimeError("reader exploded")
        with pytest.raises(RuntimeError):
            with gate.write():
                raise RuntimeError("writer exploded")
        # Both sides fully released: a writer can get in immediately.
        with gate.write():
            pass


# ---------------------------------------------------------------------------
# ThreadWorkerPool — one contract battery, both replica kinds
# ---------------------------------------------------------------------------


class ScriptedReplica:
    """What the replica under test does with a batch, for both kinds.

    In a thread it *is* the engine.  Forked, it rides into the child as
    its (duck-typed) chaos plan, so the same script runs inside the
    real :class:`ForkedReplica` child; its events are process-shared
    for that.  Scripts: ``serve``, ``block`` (until ``release``),
    ``raise``, ``crash``, ``crash_once`` (the first batch only).
    """

    def __init__(self, script):
        ctx = multiprocessing.get_context("fork")
        self.script = script
        self.entered = ctx.Event()
        self.release = ctx.Event()
        self.calls = 0

    def batch_action(self, worker, seq):
        if self.script == "block":
            self.entered.set()
            assert self.release.wait(30)
        if self.script == "crash" or (self.script == "crash_once"
                                      and seq == 0):
            return "crash"
        return "raise" if self.script == "raise" else None

    def ack_action(self, worker, seq):
        return None

    def lookup_batch(self, addresses):
        action = self.batch_action(0, self.calls)
        self.calls += 1
        if action == "crash":
            raise WorkerCrash("induced death")
        if action == "raise":
            raise RuntimeError("engine exploded")
        return [None] * len(addresses)


def lookup_of(address):
    handle = PendingLookup([address], 0.0)
    return handle, CoalescedBatch([address], [(handle, 0, 0, 1)], "size")


def wait_until(condition):
    """Bounded wait for another thread's callback to have run."""
    for _ in range(1000):
        if condition():
            return
        threading.Event().wait(0.01)
    raise AssertionError("condition never held")


class TestThreadWorkerPool:
    """The pool contract, over in-thread engines."""

    def pool_of(self, script, **kwargs):
        """A started one-worker pool over a replica running ``script``;
        returns ``(pool, script handle)``."""
        scripted = ScriptedReplica(script)
        pool = ThreadWorkerPool([self.engine_for(scripted)], **kwargs)
        pool.start()
        return pool, scripted

    def engine_for(self, scripted):
        return scripted

    def answer(self, address):
        return [None]

    def test_a_worker_waiting_on_an_empty_queue_reports_idle(self):
        calls = []
        pool, engine = self.pool_of("block", on_idle=lambda: calls.append(1))
        try:
            wait_until(lambda: calls)    # told the coalescer, then
            assert pool.has_idle_worker()  # blocked on the queue
            pool.submit(lookup_of(1)[1])
            assert engine.entered.wait(10)
            assert not pool.has_idle_worker()  # busy on the batch
            pool.submit(lookup_of(2)[1])
            assert not pool.has_idle_worker()
        finally:
            engine.release.set()
        wait_until(pool.has_idle_worker)  # both served, waiting again
        pool.close(drain=True)
        assert len(calls) >= 2

    def test_shed_policy_refuses_when_queue_full(self):
        pool, engine = self.pool_of("block", queue_depth=1, overload="shed")
        try:
            assert pool.submit(lookup_of(1)[1])
            assert engine.entered.wait(10)  # worker is busy on the first
            assert pool.submit(lookup_of(2)[1])
            assert not pool.submit(lookup_of(3)[1])  # depth-1 queue is full
        finally:
            engine.release.set()
            pool.close(drain=True)

    def test_worker_exception_fails_the_batch(self):
        errors = []
        pool, _ = self.pool_of("raise",
                               on_error=lambda b, e: errors.append(e))
        handle, batch = lookup_of(1)
        pool.submit(batch)
        # RuntimeError straight from a thread's engine; from a child it
        # arrives as the typed ServerError wrapping its repr.
        with pytest.raises((RuntimeError, ServerError),
                           match="engine exploded|injected batch exception"):
            handle.result(10)
        # Failed the batch, not the worker: it still serves.
        assert pool.alive_workers() == 1
        pool.close(drain=True)
        assert len(errors) == 1

    def test_close_without_drain_fails_queued_batches(self):
        pool, engine = self.pool_of("block", queue_depth=4)
        pool.submit(lookup_of(1)[1])
        assert engine.entered.wait(10)
        queued, batch = lookup_of(2)
        pool.submit(batch)
        engine.release.set()
        pool.close(drain=False)
        assert not pool.alive()
        # The queued batch either got failed or served; never lost.
        assert queued.done()

    def test_submit_before_start_raises(self):
        pool = ThreadWorkerPool([self.engine_for(ScriptedReplica("serve"))])
        with pytest.raises(ServerError):
            pool.submit(CoalescedBatch([1], [], "size"))

    def test_wrong_length_answer_fails_futures_not_the_worker(self):
        # Regression: a scatter error (here: an engine returning the
        # wrong number of hops) used to escape the worker's try block,
        # silently killing the thread with the futures left unresolved
        # and no error counted.  It must fail the batch and serve on.
        class ShortEngine:
            def __init__(self):
                self.calls = 0

            def lookup_batch(self, addresses):
                self.calls += 1
                if self.calls == 1:
                    return [None]  # wrong length for a 2-address batch
                return [None] * len(addresses)

        errors = []
        engine = ShortEngine()
        pool = ThreadWorkerPool([engine],
                                on_error=lambda b, e: errors.append(e))
        pool.start()
        try:
            bad = PendingLookup([1, 2], 0.0)
            pool.submit(CoalescedBatch([1, 2], [(bad, 0, 0, 2)], "size"))
            with pytest.raises(ValueError):
                bad.result(10)  # resolved, not hung
            assert len(errors) == 1
            # The worker survived the scatter error and still serves.
            ok = PendingLookup([3, 4], 0.0)
            pool.submit(CoalescedBatch([3, 4], [(ok, 0, 0, 2)], "size"))
            assert ok.result(10) == [None, None]
            assert pool.alive_workers() == 1
        finally:
            pool.close(drain=True)

    def test_worker_crash_reports_exit_with_unscattered_orphan(self):
        exits = []
        pool, _ = self.pool_of(
            "crash", on_worker_exit=lambda w, e, o: exits.append((w, e, o)))
        try:
            handle, batch = lookup_of(1)
            pool.submit(batch)
            wait_until(lambda: exits)
            worker, exc, orphans = exits[0]
            assert worker == 0 and isinstance(exc, WorkerCrash)
            assert orphans == [batch]  # a list, empty when none
            assert not handle.done()  # unscattered: safe to re-queue
            wait_until(lambda: pool.alive_workers() == 0)
            # requeue with no live worker: queued (a restart drains it)
            # or failed typed — never silently dropped.
            pool.restart_worker(0)
            assert pool.requeue(batch) or handle.done()
        finally:
            pool.close(drain=False)

    def test_bare_pool_fails_the_orphan_of_a_crashed_worker(self):
        pool, _ = self.pool_of("crash")  # no supervisor wired
        try:
            handle, batch = lookup_of(1)
            pool.submit(batch)
            with pytest.raises(WorkerCrash):
                handle.result(timeout=10)
        finally:
            pool.close(drain=False)

    def test_restart_worker_replaces_a_dead_thread(self):
        exits = []
        pool, _ = self.pool_of(
            "crash_once", on_worker_exit=lambda w, e, o: exits.append((w, o)))
        try:
            doomed, batch = lookup_of(1)
            pool.submit(batch)
            wait_until(lambda: exits)
            wait_until(lambda: pool.alive_workers() == 0)
            assert pool.restart_worker(0)
            assert pool.alive_workers() == 1
            worker, (orphan,) = exits[0]
            assert pool.requeue(orphan)
            assert doomed.result(10) == self.answer(1)
        finally:
            pool.close(drain=True)

    def test_close_is_idempotent_and_concurrent_safe(self):
        pool, engine = self.pool_of("block", queue_depth=4)
        busy, batch = lookup_of(1)
        pool.submit(batch)
        assert engine.entered.wait(10)
        engine.release.set()
        closers = [threading.Thread(target=pool.close,
                                    kwargs={"drain": True})
                   for _ in range(4)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(30)
        assert not pool.alive()
        assert busy.done()
        pool.close(drain=True)  # again, after the fact: a no-op
        with pytest.raises(ServerError):
            pool.submit(CoalescedBatch([2], [], "size"))

    def test_submit_racing_close_never_strands_a_batch(self):
        for _round in range(10):
            pool, _ = self.pool_of("serve", queue_depth=8)
            handles = []
            stop = threading.Event()

            def submitter():
                while not stop.is_set():
                    handle, batch = lookup_of(1)
                    try:
                        if pool.submit(batch):
                            handles.append(handle)
                    except ServerError:
                        return

            thread = threading.Thread(target=submitter)
            thread.start()
            threading.Event().wait(0.01)
            pool.close(drain=True)
            stop.set()
            thread.join(30)
            # Every accepted batch resolved: served or typed-failed.
            for handle in handles:
                assert handle.done() or handle.result(10) is not None


class TestForkedReplicaPool(TestThreadWorkerPool):
    """The same battery with a :class:`ForkedReplica` in the engine
    slot: the script runs in a real forked child."""

    fib = small_fib()

    def engine_for(self, scripted):
        source = ReplicaSource(self.fib, HiBst, chaos=scripted)
        return ForkedReplica(source, 0)

    def answer(self, address):
        return [self.fib.lookup(address)]

    # A child cannot hand back a wrong-length answer through the pipe
    # protocol; that case is about in-thread engines only.
    test_wrong_length_answer_fails_futures_not_the_worker = None


# ---------------------------------------------------------------------------
# LookupServer end-to-end
# ---------------------------------------------------------------------------


class TestLookupServer:
    def test_serves_conformant_answers(self):
        fib = small_fib()
        with LookupServer(HiBst(fib), workers=2, max_batch=16) as server:
            addresses = list(range(256))
            handles = [server.submit(addresses[i:i + 7])
                       for i in range(0, 256, 7)]
            server.flush()
            got = []
            for handle in handles:
                got.extend(handle.result(30))
        assert got == [fib.lookup(a) for a in addresses]

    def test_lookup_and_lookup_batch_sugar(self):
        fib = small_fib(seed=5)
        with LookupServer(HiBst(fib), workers=1) as server:
            assert server.lookup(7, timeout=30) == fib.lookup(7)
            assert server.lookup_batch([1, 2, 3], timeout=30) == \
                [fib.lookup(a) for a in (1, 2, 3)]

    def test_metrics_wiring(self):
        fib = small_fib()
        registry = MetricsRegistry()
        with LookupServer(HiBst(fib), workers=2, max_batch=8,
                          registry=registry, name="t") as server:
            for i in range(4):
                server.submit([i, i + 1, i + 2, i + 3])
            server.flush()
            server.lookup_batch([1], timeout=30)
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["repro_server_requests_total"][
            '{server="t"}'] == 5
        assert counters["repro_server_addresses_total"][
            '{server="t"}'] == 17
        flushes = counters["repro_server_flush_total"]
        assert flushes['{reason="size",server="t"}'] == 2
        assert '{server="t"}' in counters["repro_server_batches_total"]
        assert snap["gauges"]["repro_server_queue_depth"][
            '{server="t"}'] == 0
        sizes = snap["histograms"]["repro_server_batch_size"][""]
        assert sizes["count"] >= 3
        assert sizes["sum"] == 17  # every accepted address got batched
        timings = registry.timings_snapshot()
        assert timings['repro_server_request{server="t"}']["count"] == 5

    def test_commit_quiesce_updates_answers_and_epoch(self):
        fib = small_fib(seed=9, size=20)
        managed = ManagedFib(lambda f: HiBst(f), fib)
        with LookupServer(managed=managed, workers=2,
                          max_batch=16) as server:
            address = 0b10100000
            before = managed.oracle.lookup(address)
            assert server.lookup(address, timeout=30) == before
            prefix = Prefix.from_bits(0b101, 3, WIDTH)
            outcome = managed.apply_batch(
                [UpdateOp(ANNOUNCE, prefix=prefix, next_hop=77)])
            assert outcome in ("batch_applied", "batch_rebuilt")
            assert server.epoch == 1
            after = managed.oracle.lookup(address)
            assert server.lookup(address, timeout=30) == after
            counters = server.registry.snapshot()["counters"]
            assert sum(
                counters["repro_server_commits_total"].values()) == 1

    def test_close_is_idempotent_and_submit_after_close_raises(self):
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1)
        server.start()
        server.close()
        server.close()
        with pytest.raises(ServerError):
            server.submit([1])
        assert server.drained()

    def test_constructor_validation(self):
        fib = small_fib()
        algo = HiBst(fib)
        with pytest.raises(ValueError):
            LookupServer(algo, mode="fiber")
        with pytest.raises(ValueError):
            LookupServer(algo, overload="panic")
        with pytest.raises(ValueError):
            LookupServer(algo, workers=0)
        with pytest.raises(ValueError):
            LookupServer()  # no algorithm
        with pytest.raises(ServerError):
            LookupServer(algo, mode="process")  # no factory/base_fib

    def test_worker_engines_are_replicas(self):
        fib = small_fib()
        with LookupServer(HiBst(fib), workers=3, name="r") as server:
            engines = server.engines()
            assert len(engines) == 3
            assert [e.name for e in engines] == ["r-w0", "r-w1", "r-w2"]
            assert server.workers == 3

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_a_bad_address_fails_only_its_own_request(self, mode):
        # One coalesced batch of five requests used to fail as one:
        # 1 << 32 indexes past every bitmap inside NumPy, -5 wraps to
        # the end of them, 1.7 is silently truncated by the int64
        # conversion.  Admission refuses each for its request alone.
        fib = Fib(32)
        for bits, length, hop in ((0x0A, 8, 1), (0x0A01, 16, 2),
                                  (0xC0A801, 24, 3), (0xFFFFFFFF, 32, 4)):
            fib.insert(Prefix.from_bits(bits, length, 32), hop)
        managed = ManagedFib(lambda f: Resail(f, min_bmp=13), fib)
        rng = random.Random(19)
        good = [[rng.choice((0x0A000000, 0x0A010000, 0xC0A80100, 0))
                 + rng.randrange(256) for _ in range(16)] for _ in range(4)]
        good[3][-1] = (1 << 32) - 1          # the last servable address
        registry = MetricsRegistry()
        with LookupServer(managed=managed, workers=2, mode=mode,
                          max_batch=512, max_wait_s=60.0,
                          registry=registry, name="adm") as server:
            for bad, error in (([1 << 32], ValueError), ([-5], ValueError),
                               ([1.7], TypeError)):
                handles = [server.submit(request) for request in good[:2]]
                with pytest.raises(error):
                    server.submit(bad)
                with pytest.raises(error):      # not only as the extreme
                    server.submit([7, bad[0], 9] if error is ValueError
                                  else [0, bad[0], 1 << 31])
                handles += [server.submit(request) for request in good[2:]]
                server.flush()
                for handle, request in zip(handles, good):
                    assert handle.result(60) == [fib.lookup(a)
                                                 for a in request]
            assert server.active_backend == "vector"
        # Nothing of a refused request was accepted.
        assert registry.get("repro_server_requests_total").value(
            server="adm") == 12
        assert registry.get("repro_server_addresses_total").value(
            server="adm") == 12 * 16


# ---------------------------------------------------------------------------
# Process mode
# ---------------------------------------------------------------------------


class TestProcessMode:
    def test_fib_snapshot_roundtrip(self):
        fib = small_fib(seed=11)
        snapshot = fib_snapshot(fib)
        rebuilt = Fib(WIDTH)
        for bits, length, hop in snapshot:
            rebuilt.insert(Prefix.from_bits(bits, length, WIDTH), hop)
        assert list(rebuilt) == list(fib)

    def test_process_server_serves_and_commits(self):
        fib = small_fib(seed=13, size=25)
        managed = ManagedFib(lambda f: HiBst(f), fib)
        with LookupServer(managed=managed, workers=2, mode="process",
                          max_batch=32) as server:
            addresses = list(range(0, 256, 3))
            want = [managed.oracle.lookup(a) for a in addresses]
            assert server.lookup_batch(addresses, timeout=60) == want
            prefix = Prefix.from_bits(0b01, 2, WIDTH)
            managed.apply_batch(
                [UpdateOp(ANNOUNCE, prefix=prefix, next_hop=88)])
            assert server.epoch == 1
            want = [managed.oracle.lookup(a) for a in addresses]
            assert server.lookup_batch(addresses, timeout=60) == want
            # Introspection is truthful for forked replicas too: one
            # entry per worker, the backend is what the child reported.
            replicas = server.engines()
            assert [r.name for r in replicas] == ["server-w0", "server-w1"]
            assert {r.active_backend for r in replicas} == {"vector"}
            assert server.active_backend == "vector"

    def test_idle_child_death_costs_the_next_batch_one_retry(self):
        fib = small_fib(seed=17, size=25)
        addresses = list(range(0, 256, 5))
        want = [fib.lookup(a) for a in addresses]
        with LookupServer(HiBst(fib), factory=HiBst, base_fib=fib,
                          workers=1, mode="process", max_batch=64,
                          sample_rate=1.0,
                          restart_policy=RestartPolicy(
                              base_backoff_s=0.005, max_backoff_s=0.01,
                              jitter=0.0)) as server:
            assert server.lookup_batch(addresses, timeout=60) == want
            replica = server.engines()[0]
            assert replica.kill()  # SIGTERM while idle: nobody notices
            replica._proc.join(10)
            assert server.supervisor.deaths == 0
            # The next batch finds the pipe closed, is re-queued
            # unscattered, and the re-forked child answers it.
            assert server.lookup_batch(addresses, timeout=60) == want
            assert server.supervisor.deaths == 1
            assert server.supervisor.requeued_batches == 1
            executes = server.spans.spans("execute")
            assert [s.attrs["retries"] for s in executes] == [0, 1]
            # The child's own lookup time rides on the execute span.
            assert all(0 <= s.attrs["child_execute_s"] <= s.dur_s
                       for s in executes)
            counters = server.registry.snapshot
            wait_until(lambda: counters()["counters"].get(
                "repro_server_restarts_total"))

    def test_ack_drop_laggard_restarts_from_the_unacked_table(self):
        base = small_fib(seed=19, size=30)
        managed = ManagedFib(lambda f: Bsic(f, k=4), base,
                             policy=RuntimePolicy(check_every=0,
                                                  guard_every=0))
        # Worker 0 swallows its first commit ack (a hung worker).
        chaos = ChaosPlan([], script=[("ack_drop", 0, 0)])
        addresses = list(range(1 << WIDTH))
        batches = list(ChurnGenerator(base, seed=19).batches(16, 8))

        def total(metric):
            counters = managed.registry.snapshot()["counters"]
            return sum(counters.get(metric, {}).values())

        def served_equals_oracle():
            assert server.lookup_batch(addresses, timeout=60) == \
                [managed.oracle.lookup(a) for a in addresses]

        with LookupServer(managed=managed, workers=2, mode="process",
                          max_batch=256, chaos=chaos,
                          ack_timeout_s=0.5) as server:
            served_equals_oracle()
            # The commit waits out the ack timeout, kills the laggard
            # and lands; the mirror already holds this commit.
            assert managed.apply_batch(batches[0]) == "batch_applied"
            assert not server.engines()[0].alive
            while total("repro_server_restarts_total") < 1:
                served_equals_oracle()  # bounded by the test timeout
            assert total("repro_server_worker_deaths_total") == 1
            # The re-fork came up at the commit it never acked, so the
            # next delta chains onto it: shipped as a delta, acked by
            # both children, nobody killed for a broken chain.
            snapshot_bytes = total("repro_server_snapshot_bytes_total")
            assert managed.apply_batch(batches[1]) == "batch_applied"
            assert total("repro_server_snapshot_bytes_total") == \
                snapshot_bytes
            assert all(r.alive for r in server.engines())
            for _ in range(4):  # enough batches to reach both workers
                served_equals_oracle()
        assert total("repro_server_worker_deaths_total") == 1
