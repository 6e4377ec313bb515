"""What the serving frontend costs per request — as a count, not a timing.

The frontend's bookkeeping is per batch (ISSUE 17): a request pays for
its admission (``LookupServer.submit``) and for its resolution; the
request, address and sampling counters are settled once per coalesced
batch when it is dispatched (``LookupServer._sink``), the timings, SLO
windows and spans once per batch when it is served
(``LookupServer._on_done``).  This file pins that with
``sys.setprofile``: every Python-level ``call`` and every builtin
``c_call`` made on the calling thread while

* ``submit`` admits 1,024 sixteen-address requests (32 batches of 512),
* ``CoalescedBatch.complete`` + ``LookupServer._on_done`` serve them,

over a :class:`~repro.obs.FakeClock` and a pool that only holds the cut
batches, so the test thread does every step itself and the count
repeats exactly from run to run.  It is the deterministic twin of the
``v4-zipf-saturate-thread`` benchmark: that one is allowed to be noisy,
this one gates ``make ci``.

Measured with this harness (CPython 3.11, default 1/16 span sampling,
supervision on, no request deadline):

=================  ======  ========  =====
calls per request  submit  complete  total
=================  ======  ========  =====
PR 16 (5056a8c)      69.3      42.5  111.8
PR 17                19.5      13.6   33.1
PR 19                20.6      13.8   34.3
7ea8f18              20.5      13.6   34.1
idle trigger         20.3      13.6   33.9
=================  ======  ========  =====

The idle trigger's rate check runs before it asks the pool, so these
back-to-back arrivals never ask; the row's 0.2 fewer calls are the
flush counter's series, resolved once per trigger instead of per batch.

``test_idle_path_calls_per_request_stay_in_budget`` counts the other
shape: sparse arrivals (half a deadline apart) with an idle worker, so
every request is cut the moment it lands and is a batch of one.

=================  ======  ========  =====
calls per request  submit  complete  total
=================  ======  ========  =====
idle path            52.0      98.7  150.7
=================  ======  ========  =====

Here a request pays a whole batch's dispatch and booking (six timing
series and six SLO windows) alone, where on the saturate path 32
requests share it, so the first table's budgets cannot apply; this leg
is gated on its own figures.

Those legs run over a ``FakeClock`` and never see the real one, so
``test_monotonic_call_at_and_cancel_stay_in_budget`` counts it alone:
1,000 ``MonotonicClock.call_at`` + ``cancel`` pairs armed 30 s out,
on the arming thread.

=======================================  ====================
clock                                    calls per arm+cancel
=======================================  ====================
a ``threading.Timer`` each (7ea8f18)                     57.7
one timer thread over a deadline heap                     8.0
=======================================  ====================

The coalescer arms one deadline per batch, and a 512-address batch of
16-address requests is 32 requests: the Timer was ~1.8 calls per
request on top of the first table's total, the heap push is ~0.25.

(ISSUE 17 quotes 70.9 + 42.4 = 113.3 for PR 16 from a harness that also
counted its own ``list.append`` and the real pool's ``queue.put``.
PR 19's extra call is admission: ``submit`` ORs the request's addresses
together — one ``functools.reduce`` — to refuse an address outside the
served width, or one that is not an integer, for that request alone;
PR 17 re-measured beside it reads 19.5 + 13.8.  The budgets below still
hold and were not moved.)

``test_span_bytes_on_the_served_shape_stay_in_budget`` prices the
span ring in bytes: what clearing it frees (``tracemalloc``), divided
by the spans it held, after four rounds of the first leg's traffic
(~790 spans at 1/16 sampling).

=========================================  ==============
span attributes                            bytes per span
=========================================  ==============
a dict per span (0e25e8f)                           424
one dict per batch, shared by its phases            256
=========================================  ==============

The second half is the identity the aggregation must not break: every
request is still counted, timed and observed exactly once.
"""

import gc
import random
import sys
import tracemalloc

import pytest

from repro.algorithms.hibst import HiBst
from repro.obs import FakeClock, MetricsRegistry, MonotonicClock
from repro.obs.spans import SPAN_PHASES, check_span_metrics_consistency
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib
from repro.server import LookupServer

WIDTH = 8
REQUESTS, REQUEST_SIZE, MAX_BATCH = 1024, 16, 512
BATCHES = REQUESTS * REQUEST_SIZE // MAX_BATCH

#: The measured figures above plus ~15 % headroom (a different CPython
#: minor reports a few builtins differently); PR 16 is 3x over them.
SUBMIT_BUDGET, COMPLETE_BUDGET, TOTAL_BUDGET = 22.5, 15.5, 38.0

#: The idle path's figures above plus the same ~15 % headroom.
IDLE_SUBMIT_BUDGET, IDLE_COMPLETE_BUDGET = 60.0, 113.5

#: Bytes the span ring holds per span on the served shape (measured
#: 256; a dict per span was 424).
SPAN_BYTES_BUDGET = 300

#: ``MonotonicClock.call_at`` + ``cancel`` pairs, and the budget per
#: pair (measured 8.0; a ``threading.Timer`` start and stop was 57.7).
TIMER_PAIRS, TIMER_BUDGET = 1000, 15.0


def _noop():
    pass


def small_fib(seed=3, size=40):
    rng = random.Random(seed)
    fib = Fib(WIDTH)
    while len(fib) < size:
        length = rng.randint(1, WIDTH)
        fib.insert(Prefix.from_bits(rng.getrandbits(length), length, WIDTH),
                   rng.randint(1, 99))
    return fib


class HeldPool:
    """Stands in for the worker pool: keeps the batches the coalescer
    cut, so the test serves them on its own thread."""

    def __init__(self, engines):
        self.engines = engines
        self.batches = []
        self.idle = False

    def has_idle_worker(self):
        return self.idle

    def start(self):
        pass

    def submit(self, batch):
        self.batches.append(batch)
        return True

    def close(self, drain=True):
        pass


class Frontend:
    """A server whose every step runs on the calling thread."""

    def __init__(self, **kwargs):
        self.clock = FakeClock()
        self.registry = MetricsRegistry()
        self.server = LookupServer(
            HiBst(small_fib()), workers=2, max_batch=MAX_BATCH,
            max_wait_s=1.0, registry=self.registry, clock=self.clock,
            **kwargs)
        self.pool = self.server._pool = HeldPool(self.server._pool.engines)
        self.server.coalescer._idle = self.pool.has_idle_worker
        self.requests = [
            [(i * REQUEST_SIZE + j) % (1 << WIDTH)
             for j in range(REQUEST_SIZE)] for i in range(REQUESTS)]

    def take_batches(self):
        """The held batches, stamped the way a worker would have."""
        batches, self.pool.batches = self.pool.batches, []
        for index, batch in enumerate(batches):
            meta = batch.meta
            meta["worker"] = index % 2
            for mark in ("picked_at", "gate_at", "executed_at",
                         "scattered_at"):
                self.clock.advance(1e-4)
                meta[mark] = self.clock.now()
        return batches

    def serve(self, batches):
        for batch in batches:
            self.server._on_done(
                batch, batch.complete([7] * len(batch), self.server.epoch))


def count_calls(body):
    """Python calls plus builtin calls ``body()`` makes on this thread."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        body()
    finally:
        sys.setprofile(None)
    return calls - 1    # the closing setprofile(None) is a c_call itself


def test_frontend_calls_per_request_stay_in_budget():
    front = Frontend()
    # Untimed first touches: the per-phase series, the SLO windows.
    for request in front.requests[:2 * MAX_BATCH // REQUEST_SIZE]:
        front.server.submit(request)
    front.serve(front.take_batches())

    submit, requests = front.server.submit, front.requests
    handles = [None] * len(requests)

    def admit():
        for i, request in enumerate(requests):
            handles[i] = submit(request)

    submitted = count_calls(admit) / REQUESTS
    batches = front.take_batches()
    assert len(batches) == BATCHES
    completed = count_calls(lambda: front.serve(batches)) / REQUESTS
    assert all(handle.result(0) == [7] * REQUEST_SIZE for handle in handles)
    print(f"calls/request: submit {submitted:.1f} + complete "
          f"{completed:.1f} = {submitted + completed:.1f}")
    assert submitted <= SUBMIT_BUDGET
    assert completed <= COMPLETE_BUDGET
    assert submitted + completed <= TOTAL_BUDGET


def test_idle_path_calls_per_request_stay_in_budget():
    front = Frontend()
    front.pool.idle = True
    advance, submit, requests = (front.clock.advance, front.server.submit,
                                 front.requests)
    for request in requests[:64]:   # untimed first touches, as above
        advance(0.5)
        submit(request)
    front.serve(front.take_batches())
    handles = [None] * len(requests)

    def admit_sparse():
        for i, request in enumerate(requests):
            advance(0.5)
            handles[i] = submit(request)

    def advance_only():
        for _ in enumerate(requests):
            advance(0.5)

    submitted = (count_calls(admit_sparse)
                 - count_calls(advance_only)) / REQUESTS
    batches = front.take_batches()
    assert len(batches) == REQUESTS
    assert {batch.reason for batch in batches} == {"idle"}
    assert front.clock.pending_timers() == 0
    completed = count_calls(lambda: front.serve(batches)) / REQUESTS
    assert all(handle.result(0) == [7] * REQUEST_SIZE for handle in handles)
    print(f"idle path calls/request: submit {submitted:.1f} + complete "
          f"{completed:.1f} = {submitted + completed:.1f}")
    assert submitted <= IDLE_SUBMIT_BUDGET
    assert completed <= IDLE_COMPLETE_BUDGET


def test_span_bytes_on_the_served_shape_stay_in_budget():
    front = Frontend()
    server = front.server
    for request in front.requests[:2 * MAX_BATCH // REQUEST_SIZE]:
        server.submit(request)
    front.serve(front.take_batches())
    server.spans.clear()
    tracemalloc.start()
    try:
        for _round in range(4):
            handles = [server.submit(request) for request in front.requests]
            front.serve(front.take_batches())
            assert all(handle.done() for handle in handles)
            del handles
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        spans = len(server.spans)
        server.spans.clear()
        gc.collect()
        per_span = (held - tracemalloc.get_traced_memory()[0]) / spans
    finally:
        tracemalloc.stop()
    print(f"span ring: {per_span:.0f} bytes per span over {spans} spans")
    assert spans > 500
    assert per_span <= SPAN_BYTES_BUDGET


def test_monotonic_call_at_and_cancel_stay_in_budget():
    """The real clock's share, which the FakeClock legs cannot see: the
    coalescer arms one deadline per batch and cancels almost all of
    them."""
    clock = MonotonicClock()
    clock.call_at(clock.now() + 30.0, _noop).cancel()  # starts the thread

    def arm_and_cancel():
        for _ in range(TIMER_PAIRS):
            clock.call_at(clock.now() + 30.0, _noop).cancel()

    per_pair = count_calls(arm_and_cancel) / TIMER_PAIRS
    print(f"calls per call_at + cancel: {per_pair:.1f}")
    assert per_pair <= TIMER_BUDGET


@pytest.mark.parametrize("sample_rate", [0.0625, 1.0])
def test_every_request_is_still_counted_timed_and_observed(sample_rate):
    front = Frontend(sample_rate=sample_rate, name="s")
    handles = [front.server.submit(request) for request in front.requests]
    front.clock.advance(1e-3)
    batches = front.take_batches()
    assert len(batches) == BATCHES
    front.serve(batches)
    assert all(handle.done() and handle.deliveries == 1
               for handle in handles)

    def counter(name):
        return front.registry.get(name).value(server="s")

    assert counter("repro_server_requests_total") == REQUESTS
    assert counter("repro_server_addresses_total") == REQUESTS * REQUEST_SIZE
    assert counter("repro_server_batches_total") == BATCHES
    sampled = counter("repro_server_span_requests_sampled_total")
    unsampled = counter("repro_server_span_requests_unsampled_total")
    assert sampled + unsampled == REQUESTS
    assert sampled == sum(handle.sampled for handle in handles)

    timings = front.registry.timings_snapshot()
    request = timings['repro_server_request{server="s"}']
    assert request["count"] == REQUESTS
    assert request["min_s"] > 0.0
    phases = front.server.slo.report()["phases"]
    assert phases["request"]["observed"] == REQUESTS
    assert phases["request"]["total_s"] == pytest.approx(request["total_s"])
    for phase in SPAN_PHASES:
        if phase == "request":
            continue
        assert phases[phase]["observed"] == BATCHES
        timing = timings[f'repro_server_phase{{phase="{phase}",server="s"}}']
        assert timing["count"] == BATCHES
        assert timing["total_s"] == pytest.approx(phases[phase]["total_s"])

    spans = front.server.spans.counts()
    assert spans.get("request", 0) == sampled
    if sample_rate == 1.0:
        assert all(spans[phase] == BATCHES for phase in SPAN_PHASES[1:])
        report = check_span_metrics_consistency(
            front.server.spans, front.registry, server="s")
        assert report["ok"], report["mismatches"]
        # Bit for bit, not within the check's tolerance.
        assert report["spans"]["total_s"] == report["timings"]["total_s"]
        assert report["spans"]["count"] == REQUESTS


def test_a_request_that_spans_batches_is_counted_once():
    front = Frontend(name="s")
    size, count = 24, 100          # 24 does not divide 512: requests split
    requests = [[(i + j) % (1 << WIDTH) for j in range(size)]
                for i in range(count)]
    handles = [front.server.submit(request) for request in requests]
    front.server.flush()
    batches = front.take_batches()
    assert [len(batch) for batch in batches] == [512] * 4 + [352]
    front.serve(batches)
    assert sorted({handle.deliveries for handle in handles}) == [1, 2]

    def counter(name):
        return front.registry.get(name).value(server="s")

    assert counter("repro_server_requests_total") == count
    assert counter("repro_server_addresses_total") == count * size
    assert (counter("repro_server_span_requests_sampled_total")
            + counter("repro_server_span_requests_unsampled_total")) == count
    timings = front.registry.timings_snapshot()
    assert timings['repro_server_request{server="s"}']["count"] == count
