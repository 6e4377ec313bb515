"""Request-lifecycle span tests (:mod:`repro.obs.spans` + the server).

The unit half exercises the recorder in isolation (deterministic IDs,
sampling boundaries, exports); the integration half drives a real
:class:`~repro.server.LookupServer` — thread and process mode, fake
and real clock — and asserts the acceptance properties: every
completed request leaves an end-to-end trace, worker deaths surface as
``retry`` marker spans (never a dangling open span), and the
span-derived request-latency histogram agrees with the
``repro_server_request`` registry timer bit-for-bit at sample rate 1.
"""

import json
import random
import threading

import pytest

from repro.algorithms.hibst import HiBst
from repro.chaos import ChaosPlan
from repro.control import ManagedFib
from repro.obs import FakeClock, MetricsRegistry, validate_chrome_trace
from repro.obs.spans import (
    DEFAULT_SPAN_SAMPLE_RATE,
    SPAN_PHASES,
    SpanRecorder,
    batch_trace_id_for,
    check_span_metrics_consistency,
    span_sampled,
    trace_id_for,
)
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib
from repro.server import (
    LookupServer,
    RequestShed,
    RequestTimeout,
    RestartPolicy,
    ServingState,
    WorkerCrash,
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
# Sampling + IDs
# ---------------------------------------------------------------------------


class TestSampling:
    def test_rate_zero_samples_nothing(self):
        assert not any(span_sampled(seq, 0.0) for seq in range(1000))

    def test_rate_one_samples_everything(self):
        assert all(span_sampled(seq, 1.0) for seq in range(1000))

    def test_decision_is_deterministic(self):
        got = [span_sampled(seq, 0.25, seed=7) for seq in range(500)]
        again = [span_sampled(seq, 0.25, seed=7) for seq in range(500)]
        assert got == again

    def test_seed_changes_the_picked_set(self):
        a = {s for s in range(2000) if span_sampled(s, 0.25, seed=1)}
        b = {s for s in range(2000) if span_sampled(s, 0.25, seed=2)}
        assert a != b

    def test_rate_is_roughly_honoured(self):
        hits = sum(span_sampled(seq, 0.25) for seq in range(10_000))
        assert 0.20 < hits / 10_000 < 0.30

    def test_trace_ids_are_pure_functions(self):
        assert trace_id_for(7, epoch=2) == "req-0002-000000000007"
        assert batch_trace_id_for(7, epoch=2) == "bat-0002-000000000007"
        assert trace_id_for(7, 2) != trace_id_for(7, 3)

    def test_default_rate_is_one_in_sixteen(self):
        assert DEFAULT_SPAN_SAMPLE_RATE == pytest.approx(1 / 16)


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def test_record_and_query(self):
        rec = SpanRecorder(sample_rate=1.0)
        rec.record("t1", "request", 1.0, 2.5, seq=1)
        rec.record("t1", "execute", 1.5, 2.0, seq=1)
        assert len(rec) == 2
        assert [s.name for s in rec.spans("request")] == ["request"]
        assert rec.counts() == {"execute": 1, "request": 1}
        assert rec.spans("request")[0].dur_s == pytest.approx(1.5)

    def test_negative_duration_is_clamped(self):
        rec = SpanRecorder()
        span = rec.record("t", "request", 5.0, 4.0)
        assert span.end_s == span.start_s
        assert span.dur_s == 0.0

    def test_capacity_is_a_ring(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.record("t", "request", float(i), float(i) + 0.5, seq=i)
        assert len(rec) == 3
        assert [s.attrs["seq"] for s in rec.spans()] == [2, 3, 4]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)
        with pytest.raises(ValueError):
            SpanRecorder(sample_rate=1.5)

    def test_registry_counters_track_spans_and_sampling(self):
        registry = MetricsRegistry()
        rec = SpanRecorder(sample_rate=1.0, registry=registry, server="s")
        rec.sampled(1)
        rec.record("t", "request", 0.0, 1.0)
        counters = registry.snapshot()["counters"]
        assert counters["repro_server_spans_total"][
            '{phase="request",server="s"}'] == 1
        assert counters["repro_server_span_requests_sampled_total"][
            '{server="s"}'] == 1

    def test_jsonl_roundtrip(self):
        rec = SpanRecorder()
        rec.record("t1", "request", 1.0, 2.0, seq=4, outcome="ok")
        rec.event("t1", "retry", 1.5, worker=0)
        lines = rec.to_jsonl().strip().split("\n")
        docs = [json.loads(line) for line in lines]
        assert [d["name"] for d in docs] == ["request", "retry"]
        assert docs[0]["attrs"]["outcome"] == "ok"
        assert docs[1]["dur_s"] == 0.0

    def test_chrome_trace_validates_and_lanes(self):
        rec = SpanRecorder()
        rec.record("req-0000-1", "request", 1.0, 2.0, seq=1)
        rec.record("bat-0000-1", "execute", 1.2, 1.8, worker=2, batch=1)
        rec.event("req-0000-1", "timeout", 2.0, seq=1)
        events = rec.to_chrome_trace()
        validate_chrome_trace(events)  # also validated internally
        by_name = {e["name"]: e for e in events}
        assert by_name["request"]["pid"] == 0
        assert by_name["request"]["tid"] == 1
        assert by_name["execute"]["pid"] == 3  # 1 + worker
        assert by_name["execute"]["tid"] == 1  # batch seq
        assert by_name["timeout"]["ph"] == "i"
        assert by_name["request"]["ph"] == "X"

    def test_consistency_check_flags_divergence(self):
        registry = MetricsRegistry()
        rec = SpanRecorder()
        registry.observe_seconds("repro_server_request", 0.25, server="s")
        rec.record("t", "request", 0.0, 0.25)
        ok = check_span_metrics_consistency(rec, registry, server="s")
        assert ok["ok"], ok["mismatches"]
        rec.record("t2", "request", 0.0, 9.0)  # span the timer never saw
        bad = check_span_metrics_consistency(rec, registry, server="s")
        assert not bad["ok"]
        assert any("count" in m for m in bad["mismatches"])

    def test_consistency_check_reports_missing_timer(self):
        report = check_span_metrics_consistency(
            SpanRecorder(), MetricsRegistry(), server="nope")
        assert not report["ok"]


# ---------------------------------------------------------------------------
# Server integration
# ---------------------------------------------------------------------------


class TestServerSpans:
    def _serve(self, *, sample_rate, requests=64, workers=2,
               registry=None, clock=None):
        fib = small_fib()
        registry = registry if registry is not None else MetricsRegistry()
        server = LookupServer(HiBst(fib), workers=workers, max_batch=8,
                              max_wait_s=0.001, registry=registry,
                              clock=clock, sample_rate=sample_rate)
        with server:
            handles = [server.submit([a % 256]) for a in range(requests)]
            server.flush()
            for handle in handles:
                handle.result(timeout=30)
        return server, registry

    def test_full_trace_at_rate_one(self):
        server, registry = self._serve(sample_rate=1.0, clock=FakeClock())
        counts = server.spans.counts()
        # Every completed request left a root span; every dispatched
        # batch left the full phase decomposition.
        assert counts["request"] == 64
        batches = counts["coalesce"]
        assert batches >= 1
        for phase in ("queue_wait", "gate", "execute", "scatter"):
            assert counts[phase] == batches
        report = check_span_metrics_consistency(server.spans, registry)
        assert report["ok"], report["mismatches"]
        assert report["spans"]["count"] == 64

    def test_consistency_holds_on_the_wall_clock_too(self):
        server, registry = self._serve(sample_rate=1.0)
        report = check_span_metrics_consistency(server.spans, registry)
        assert report["ok"], report["mismatches"]

    def test_rate_zero_records_no_spans(self):
        server, registry = self._serve(sample_rate=0.0, clock=FakeClock())
        assert len(server.spans) == 0
        counters = registry.snapshot()["counters"]
        assert sum(counters[
            "repro_server_span_requests_unsampled_total"].values()) == 64
        assert sum(counters[
            "repro_server_span_requests_sampled_total"].values()) == 0
        # SLO accounting observed every request regardless.
        assert server.slo.report()["phases"]["request"]["observed"] == 64

    def test_chrome_export_covers_every_request(self):
        server, _ = self._serve(sample_rate=1.0, clock=FakeClock())
        events = server.spans.to_chrome_trace()
        request_lanes = {e["tid"] for e in events
                         if e["name"] == "request" and e["pid"] == 0}
        assert len(request_lanes) == 64

    def test_timeout_leaves_an_outcome_event_not_a_request_span(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        server = LookupServer(HiBst(small_fib()), workers=1, clock=clock,
                              registry=registry, request_deadline_s=0.5,
                              max_wait_s=10.0, sample_rate=1.0)
        with server:
            handle = server.submit([1, 2, 3])
            clock.advance(1.0)
            with pytest.raises(RequestTimeout):
                handle.result(0)
            events = server.spans.spans("timeout")
            assert len(events) == 1
            assert events[0].attrs["seq"] == handle.seq
            assert events[0].dur_s == 0.0
            assert server.spans.spans("request") == []
        # The timer never observed the timed-out request either, so
        # the consistency contract survives failures.
        report = check_span_metrics_consistency(server.spans, registry)
        assert report["spans"]["count"] == 0

    def test_pool_refusal_sheds_with_event_spans(self):
        clock = FakeClock()
        server = LookupServer(HiBst(small_fib()), workers=1, clock=clock,
                              max_wait_s=10.0, sample_rate=1.0)
        with server:
            server._pool.submit = lambda batch: False
            handle = server.submit([1])
            server.flush()
            sheds = server.spans.spans("shed")
            assert len(sheds) == 1
            assert sheds[0].attrs["reason"] == "pool_refused"
            assert sheds[0].attrs["seq"] == handle.seq

    def test_brownout_hit_records_request_span_and_event(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        server = LookupServer(HiBst(small_fib()), workers=1, clock=clock,
                              registry=registry, sample_rate=1.0)
        with server:
            warm = server.lookup_batch([5, 6], timeout=30)
            for _ in range(4):
                server.health.note_restart()
            assert server.health_state is ServingState.BROWNOUT
            hit = server.submit([5, 6])
            assert hit.result(0) == warm
            roots = [s for s in server.spans.spans("request")
                     if s.attrs.get("outcome") == "brownout_hit"]
            assert len(roots) == 1
            assert roots[0].attrs["seq"] == hit.seq
            assert len(server.spans.spans("brownout_hit")) == 1
            # Cache miss in brownout: shed, marked but never opened.
            miss = server.submit([250])
            with pytest.raises(RequestShed):
                miss.result(0)
            assert len(server.spans.spans("brownout_shed")) == 1
        # Brownout hits observe the request timer too — counts agree.
        report = check_span_metrics_consistency(server.spans, registry)
        assert report["ok"], report["mismatches"]

    def test_thread_worker_crash_emits_retry_span(self):
        fib = small_fib()
        server = LookupServer(
            HiBst(fib), workers=1, sample_rate=1.0,
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
        retries = server.spans.spans("retry")
        assert len(retries) == 1
        assert retries[0].attrs["retries"] == 1
        # The re-queued batch completed: its phase spans carry the
        # retry count, and the request root closed normally.
        executes = server.spans.spans("execute")
        assert any(s.attrs["retries"] == 1 for s in executes)
        roots = server.spans.spans("request")
        assert len(roots) == 1 and roots[0].attrs["outcome"] == "ok"

    def test_retry_markers_of_one_batch_have_distinct_span_ids(self):
        """A batch re-queued twice leaves two ``retry`` markers on one
        trace; the retry count in their span IDs tells them apart."""
        fib = small_fib()
        server = LookupServer(
            HiBst(fib), workers=1, sample_rate=1.0,
            restart_policy=RestartPolicy(base_backoff_s=0.005,
                                         max_backoff_s=0.01, budget=5,
                                         jitter=0.0))
        engine = server.engines()[0]
        real, deaths = engine.lookup_batch, []

        def sabotage(addresses):
            if len(deaths) < 2:
                deaths.append(1)
                raise WorkerCrash("induced")
            return real(addresses)

        engine.lookup_batch = sabotage
        with server:
            assert server.lookup_batch([1, 2, 3], timeout=30) == \
                [fib.lookup(a) for a in (1, 2, 3)]
        retries = server.spans.spans("retry")
        assert [s.attrs["retries"] for s in retries] == [1, 2]
        assert len({s.trace_id for s in retries}) == 1
        assert len({s.span_id for s in retries}) == 2

    def test_process_mode_ships_spans_across_a_kill(self):
        fib = small_fib(seed=13, size=25)
        managed = ManagedFib(lambda f: HiBst(f), fib)
        # Four batches over two workers sharing one queue: whichever
        # worker takes a second batch dies on it.
        plan = ChaosPlan(injectors=[],
                         script=[("kill", 0, 1), ("kill", 1, 1)])
        registry = MetricsRegistry()
        server = LookupServer(
            managed=managed, workers=2, mode="process", max_batch=16,
            max_wait_s=0.001, registry=registry, sample_rate=1.0,
            chaos=plan,
            restart_policy=RestartPolicy(base_backoff_s=0.005,
                                         max_backoff_s=0.02, budget=8,
                                         jitter=0.0))
        with server:
            addresses = list(range(0, 192, 3))
            handles = [server.submit(addresses[i:i + 4])
                       for i in range(0, len(addresses), 4)]
            server.flush()
            for handle in handles:
                handle.result(timeout=60)
        assert server.supervisor.deaths >= 1
        # The killed batch resurfaced as a retry marker + a completed
        # execute span with the bumped retry count — never a dangling
        # open span (spans are only ever recorded closed).
        retries = server.spans.spans("retry")
        assert len(retries) >= 1
        assert any(s.attrs["retries"] >= 1
                   for s in server.spans.spans("execute"))
        roots = server.spans.spans("request")
        assert len(roots) == len(handles)
        report = check_span_metrics_consistency(server.spans, registry)
        assert report["ok"], report["mismatches"]

    def test_error_outcome_spans(self):
        fib = small_fib()
        server = LookupServer(HiBst(fib), workers=1, max_wait_s=10.0,
                              sample_rate=1.0, supervise=False)
        engine = server.engines()[0]

        def explode(addresses):
            raise RuntimeError("engine fault")

        engine.lookup_batch = explode
        with server:
            handle = server.submit([1])
            server.flush()
            with pytest.raises(Exception):
                handle.result(timeout=30)
            errors = server.spans.spans("error")
            assert len(errors) == 1
            assert errors[0].attrs["error"] == "RuntimeError"

    def test_span_phases_constant_matches_the_server(self):
        server, _ = self._serve(sample_rate=1.0, clock=FakeClock())
        assert set(server.spans.counts()) <= set(SPAN_PHASES)
