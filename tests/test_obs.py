"""Unit tests for repro.obs: registry, histograms, accounting.

The determinism contract is the point: everything in ``snapshot()`` /
``render_prometheus()`` derives from the workload alone, so the golden
tests below compare byte-for-byte.
"""

import json
import sys
import threading

import pytest

from repro.algorithms import Resail
from repro.control import ALL_FAULTS, ChurnGenerator, FaultPlan, ManagedFib
from repro.datasets import synthesize_as65000
from repro.obs import (
    AccessStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    access_skew,
    collect_access_stats,
    enable_hit_tracking,
    export_access_stats,
    hot_table_report,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("demo_total")
        c.inc()
        c.inc(2, algo="resail")
        assert c.value() == 1
        assert c.value(algo="resail") == 2
        assert c.value(algo="bsic") == 0

    def test_negative_increment_rejected(self):
        c = Counter("demo_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_order_is_canonical(self):
        c = Counter("demo_total")
        c.inc(1, b=2, a=1)
        c.inc(1, a=1, b=2)
        assert c.value(a=1, b=2) == 2
        assert c.samples() == [('demo_total{a="1",b="2"}', "2")]


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("demo_gauge")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value() == 4

    def test_gauges_may_go_negative(self):
        g = Gauge("demo_gauge")
        g.dec(3)
        assert g.value() == -3


class TestHistogram:
    def test_observation_on_bucket_bound_is_le(self):
        """Prometheus ``le`` semantics: a value equal to a bound lands
        in that bucket, not the next."""
        h = Histogram("h", (1, 2, 5))
        h.observe(1)
        h.observe(2)
        assert h.bucket_counts() == {"1": 1, "2": 1, "5": 0, "+Inf": 0}

    def test_overflow_goes_to_inf(self):
        h = Histogram("h", (1, 2))
        h.observe(2.0001)
        h.observe(1e9)
        assert h.bucket_counts()["+Inf"] == 2

    def test_below_first_bound(self):
        h = Histogram("h", (1, 2))
        h.observe(-5)
        h.observe(0)
        assert h.bucket_counts()["1"] == 2

    def test_sum_and_count(self):
        h = Histogram("h", (1, 2))
        for v in (0.5, 1.5, 3):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.0)
        assert h.count(algo="x") == 0

    def test_cumulative_rendering(self):
        h = Histogram("h", (1, 2))
        for v in (0.5, 1.5, 3):
            h.observe(v)
        assert h.samples() == [
            ('h_bucket{le="1"}', "1"),
            ('h_bucket{le="2"}', "2"),
            ('h_bucket{le="+Inf"}', "3"),
            ("h_sum", "5"),
            ("h_count", "3"),
        ]

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", (1, 1))
        with pytest.raises(ValueError):
            Histogram("h", (2, 1))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_trailing_inf_bound_is_dropped(self):
        h = Histogram("h", (1, float("inf")))
        assert h.bounds == (1.0,)


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_excludes_timings(self):
        reg = MetricsRegistry()
        reg.counter("ops_total").inc(4)
        with reg.timer("phase"):
            pass
        snap = reg.snapshot()
        assert snap["counters"]["ops_total"][""] == 4
        assert "timings" not in snap
        assert "phase" in reg.timings_snapshot()

    def test_prometheus_golden(self):
        """Byte-exact rendering — the ordering/escaping contract."""
        reg = MetricsRegistry()
        c = reg.counter("repro_ops_total", "Operations applied.")
        c.inc(3, algo="resail")
        c.inc(1, algo='b"s\\ic')
        reg.gauge("repro_health_state").set(2)
        h = reg.histogram("repro_batch_size", (1, 10), "Ops per batch.")
        h.observe(1)
        h.observe(7)
        h.observe(100)
        assert reg.render_prometheus() == (
            "# HELP repro_batch_size Ops per batch.\n"
            "# TYPE repro_batch_size histogram\n"
            'repro_batch_size_bucket{le="1"} 1\n'
            'repro_batch_size_bucket{le="10"} 2\n'
            'repro_batch_size_bucket{le="+Inf"} 3\n'
            "repro_batch_size_sum 108\n"
            "repro_batch_size_count 3\n"
            "# TYPE repro_health_state gauge\n"
            "repro_health_state 2\n"
            "# HELP repro_ops_total Operations applied.\n"
            "# TYPE repro_ops_total counter\n"
            'repro_ops_total{algo="b\\"s\\\\ic"} 1\n'
            'repro_ops_total{algo="resail"} 3\n'
        )

    def test_prometheus_excludes_timings_by_default(self):
        reg = MetricsRegistry()
        reg.observe_seconds("slow_phase", 0.5)
        assert "slow_phase" not in reg.render_prometheus()
        assert "slow_phase" in reg.render_prometheus(include_timings=True)

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("ops_total").inc(2)
        with reg.timer("phase"):
            pass
        doc = json.loads(reg.to_json())
        assert doc["metrics"]["counters"]["ops_total"][""] == 2
        assert doc["timings"]["phase"]["count"] == 1
        lean = json.loads(reg.to_json(include_timings=False))
        assert "timings" not in lean

    def test_timer_records_latency_buckets(self):
        reg = MetricsRegistry()
        reg.observe_seconds("phase", 0.5e-6)
        reg.observe_seconds("phase", 99.0)
        stats = reg.timings_snapshot()["phase"]
        assert stats["count"] == 2
        assert stats["min_s"] == 0.5e-6
        assert stats["max_s"] == 99.0
        assert stats["buckets"]["1e-06"] == 1
        assert stats["buckets"]["+Inf"] == 1

    def test_series_handles_address_the_same_series(self):
        reg = MetricsRegistry()
        counter = reg.counter("demo_total")
        counter.inc(2, b=2, a=1)
        counter.labels(a=1, b=2).inc(3)
        assert counter.value(a=1, b=2) == 5
        with pytest.raises(ValueError):
            counter.labels().inc(-1)
        gauge = reg.gauge("demo_gauge").labels(server="s")
        gauge.set(5)
        gauge.dec(7)
        assert reg.gauge("demo_gauge").value(server="s") == -2
        hist = reg.histogram("demo_hist", [1, 10])
        hist.labels(k="v").observe(10)
        hist.observe(11, k="v")
        assert hist.bucket_counts(k="v") == {"1": 0, "10": 1, "+Inf": 1}
        # A handle alone creates nothing: a series exists once written.
        counter.labels(a=9)
        reg.timing("idle")
        assert [key for key, _ in counter.items()] == [
            (("a", "1"), ("b", "2"))]
        assert reg.timings_snapshot() == {}

    def test_observe_many_equals_one_observe_per_value(self):
        values = [3e-4, 0.5e-6, 99.0, 1e-3, 0.02, 7e-5]
        one, many = MetricsRegistry(), MetricsRegistry()
        for value in values:
            one.observe_seconds("phase", value, server="s")
            one.observe_seconds("other", value)
        phase = many.timing("phase", server="s")
        phase.observe_many(values[:2])
        many.observe_many([(phase, values[2:]),
                           (many.timing("other"), values), (phase, [])])
        assert many.timings_snapshot() == one.timings_snapshot()

    def test_concurrent_updates_are_not_lost(self):
        """Four threads, a switch interval short enough to cut into
        every unguarded read-modify-write: the sums must be exact
        (at PR 16 the counter ended at ~192,000 of 200,000)."""
        threads, rounds = 4, 50_000
        reg = MetricsRegistry()
        counter = reg.counter("demo_total")
        series = counter.labels(server="s")
        hist = reg.histogram("demo_hist", [1, 10]).labels(server="s")
        timing = reg.timing("demo", server="s")

        def work():
            for i in range(rounds):
                if i & 1:
                    series.inc()
                else:
                    counter.inc(1, server="s")
                if i % 10 == 0:
                    hist.observe(5)
                    timing.observe(0.25)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert counter.value(server="s") == threads * rounds
        observed = threads * rounds // 10
        assert reg.get("demo_hist").count(server="s") == observed
        assert reg.get("demo_hist").sum(server="s") == 5 * observed
        stats = reg.timings_snapshot()['demo{server="s"}']
        assert stats["count"] == observed
        assert stats["total_s"] == 0.25 * observed
        assert stats["buckets"]["1"] == observed


class TestAccessStats:
    def test_hit_rate(self):
        stats = AccessStats("t")
        assert stats.hit_rate == 0.0
        stats.reads = 4
        stats.hits = 3
        assert stats.hit_rate == pytest.approx(0.75)

    def test_reset_clears_tally(self):
        stats = AccessStats("t")
        stats.enable_hit_tracking()
        stats.hit_tally[0x0A000000] += 2
        stats.reads = 5
        stats.reset()
        assert stats.reads == 0
        assert not stats.hit_tally

    def test_snapshot_orders_tally_by_count(self):
        stats = AccessStats("t")
        stats.enable_hit_tracking()
        stats.hit_tally[1] = 2
        stats.hit_tally[2] = 9
        doc = stats.snapshot()
        assert list(doc["hit_tally"]) == ["0x2", "0x1"]

    def test_access_skew(self):
        stats = AccessStats("t")
        assert access_skew(stats) is None
        stats.enable_hit_tracking()
        stats.hit_tally[1] = 9
        stats.hit_tally[2] = 1
        assert access_skew(stats) == pytest.approx(0.9)


class TestAlgorithmAccounting:
    def test_lookups_bump_read_counters(self, ipv4_fib, ipv4_addresses):
        algo = Resail(ipv4_fib, min_bmp=13)
        stats_list = collect_access_stats(algo)
        assert stats_list, "RESAIL should expose instrumented structures"
        for stats in stats_list:
            stats.reset()
        for addr in ipv4_addresses[:50]:
            algo.lookup(addr)
        assert sum(s.reads for s in stats_list) > 0

    def test_hit_tracking_surfaces_skew(self, ipv4_fib, ipv4_addresses):
        algo = Resail(ipv4_fib, min_bmp=13)
        stats_list = enable_hit_tracking(algo)
        for stats in stats_list:
            stats.reset()
        hot = ipv4_addresses[0]
        for _ in range(20):
            algo.lookup(hot)
        report = hot_table_report(stats_list)
        assert "reads=" in report
        assert any(s.hit_tally for s in stats_list)

    def test_export_into_registry_is_deterministic(self, ipv4_fib,
                                                   ipv4_addresses):
        def run_once():
            algo = Resail(ipv4_fib, min_bmp=13)
            stats_list = collect_access_stats(algo)
            for stats in stats_list:
                stats.reset()
            for addr in ipv4_addresses[:50]:
                algo.lookup(addr)
            reg = MetricsRegistry()
            export_access_stats(reg, stats_list, algorithm="resail")
            return reg.render_prometheus()

        assert run_once() == run_once()


class TestChurnAccountingIdentity:
    """Registry counters must equal EventLog counters after churn."""

    def _run(self, seed=19, ops=150, batch=25):
        base = synthesize_as65000(scale=0.002)
        managed = ManagedFib(
            lambda fib: Resail(fib, min_bmp=13, hash_capacity=1 << 16),
            base,
            faults=FaultPlan.build(sorted(ALL_FAULTS), seed=seed),
            check_seed=seed,
        )
        generator = ChurnGenerator(base, seed=seed)
        for ops_batch in generator.batches(ops, batch):
            managed.apply_batch(ops_batch)
        return managed

    def test_registry_mirrors_event_log(self):
        managed = self._run()
        managed.log.check_accounting()
        managed.log.check_registry_consistency()
        mirror = managed.registry.get("repro_events_total")
        assert mirror is not None
        for kind, count in managed.log.counters.items():
            assert mirror.value(kind=kind) == count, kind
        # Batch outcomes counted exactly once per batch.
        outcomes = managed.registry.get("repro_batch_outcomes_total")
        total = sum(v for _k, v in outcomes.items())
        assert total == managed.log.batches_total

    def test_batch_size_histogram_counts_batches(self):
        managed = self._run()
        hist = managed.registry.get("repro_batch_size")
        assert hist.count() == managed.log.batches_total

    def test_health_gauge_tracks_final_state(self):
        from repro.control import HEALTH_GAUGE_VALUES

        managed = self._run()
        gauge = managed.registry.get("repro_health_state")
        assert gauge.value() == HEALTH_GAUGE_VALUES[managed.health]

    def test_tampered_mirror_detected(self):
        managed = self._run(ops=50)
        mirror = managed.registry.get("repro_events_total")
        mirror.inc(1, kind="batch_applied")
        with pytest.raises(AssertionError):
            managed.log.check_registry_consistency()

    def test_foreign_kind_detected(self):
        managed = self._run(ops=50)
        mirror = managed.registry.get("repro_events_total")
        mirror.inc(1, kind="never_recorded")
        with pytest.raises(AssertionError):
            managed.log.check_registry_consistency()

    def test_event_log_jsonl_round_trip(self):
        managed = self._run(ops=50)
        lines = managed.log.to_jsonl().splitlines()
        assert len(lines) == len(managed.log.events)
        docs = [json.loads(line) for line in lines]
        for doc, event in zip(docs, managed.log.events):
            assert doc["kind"] == event.kind
            assert doc["batch"] == event.batch
        # Deterministic: a same-seed run archives identically.
        assert self._run(ops=50).log.to_jsonl() == managed.log.to_jsonl()
