"""SLO tracker tests (:mod:`repro.obs.slo` + the health coupling).

The unit half proves the percentile math (exact nearest-rank over the
sliding window) and the breach machinery; the integration half proves
a sustained p99 blowout degrades :class:`ServingHealth` the same way a
deadline-miss storm does.
"""

import random

import pytest

from repro.algorithms.hibst import HiBst
from repro.obs import FakeClock, MetricsRegistry
from repro.obs.slo import (
    SLO_QUANTILES,
    SloConfig,
    SloTracker,
    window_percentile,
)
from repro.prefix.prefix import Prefix
from repro.prefix.trie import Fib
from repro.server import LookupServer, ServingHealth, ServingState

WIDTH = 8


def small_fib(seed=3, size=40):
    rng = random.Random(seed)
    fib = Fib(WIDTH)
    while len(fib) < size:
        length = rng.randint(1, WIDTH)
        fib.insert(Prefix.from_bits(rng.getrandbits(length), length, WIDTH),
                   rng.randint(1, 99))
    return fib


class TestWindowPercentile:
    def test_empty_window_is_none(self):
        assert window_percentile([], 0.99) is None

    def test_exact_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert window_percentile(values, 0.50) == 50.0
        assert window_percentile(values, 0.99) == 99.0
        assert window_percentile(values, 1.0) == 100.0
        assert window_percentile(values, 0.001) == 1.0

    def test_single_value(self):
        assert window_percentile([0.25], 0.999) == 0.25

    def test_order_does_not_matter(self):
        values = [3.0, 1.0, 2.0]
        assert window_percentile(values, 0.5) == 2.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            window_percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            window_percentile([1.0], 1.5)


class TestSloConfig:
    def test_defaults_are_ordered(self):
        config = SloConfig()
        assert (config.targets["p50"] <= config.targets["p99"]
                <= config.targets["p999"])
        assert set(config.targets) == set(SLO_QUANTILES)

    def test_to_dict_roundtrips_the_knobs(self):
        doc = SloConfig(p50_s=0.01, p99_s=0.02, p999_s=0.03,
                        window=16, evaluate_every=4).to_dict()
        assert doc["targets_s"] == {"p50": 0.01, "p99": 0.02, "p999": 0.03}
        assert doc["window"] == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SloConfig(p50_s=0.0)
        with pytest.raises(ValueError):
            SloConfig(p50_s=1.0, p99_s=0.5)
        with pytest.raises(ValueError):
            SloConfig(window=0)
        with pytest.raises(ValueError):
            SloConfig(evaluate_every=0)


class TestSloTracker:
    def test_observes_and_reports_percentiles(self):
        tracker = SloTracker(SloConfig(window=100, evaluate_every=1000))
        for v in range(1, 101):
            tracker.observe("request", v / 1000.0)
        pcts = tracker.percentiles("request")
        assert pcts["p50"] == pytest.approx(0.050)
        assert pcts["p99"] == pytest.approx(0.099)
        report = tracker.report()
        assert report["phases"]["request"]["observed"] == 100
        assert report["phases"]["request"]["window_n"] == 100

    def test_window_slides(self):
        tracker = SloTracker(SloConfig(window=4, evaluate_every=1000))
        for v in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            tracker.observe("request", v)
        assert tracker.percentiles("request")["p50"] == 9.0

    def test_unknown_phase_percentiles_are_none(self):
        tracker = SloTracker()
        assert tracker.percentiles("gate") == {
            "p50": None, "p99": None, "p999": None}

    def test_breach_fires_callback_and_counter(self):
        registry = MetricsRegistry()
        breaches = []
        tracker = SloTracker(
            SloConfig(p50_s=0.001, p99_s=0.002, p999_s=0.003,
                      window=16, evaluate_every=4),
            registry=registry, server="s",
            on_breach=lambda q, v, t: breaches.append((q, v, t)))
        for _ in range(4):
            tracker.observe("request", 0.5)  # way over every target
        assert len(breaches) == 3  # p50, p99, p999 all breached
        assert tracker.breaches == 3
        counters = registry.snapshot()["counters"]
        got = counters["repro_server_slo_breaches_total"]
        assert got['{quantile="p50",server="s"}'] == 1
        assert got['{quantile="p999",server="s"}'] == 1

    def test_targets_are_exported_as_gauges(self):
        registry = MetricsRegistry()
        SloTracker(SloConfig(p50_s=0.01, p99_s=0.02, p999_s=0.04),
                   registry=registry, server="s")
        gauges = registry.snapshot()["gauges"]
        got = gauges["repro_server_slo_target_seconds"]
        assert got['{quantile="p50",server="s"}'] == 0.01
        assert got['{quantile="p999",server="s"}'] == 0.04

    def test_evaluation_is_amortised(self):
        tracker = SloTracker(
            SloConfig(p50_s=0.001, p99_s=0.002, p999_s=0.003,
                      window=64, evaluate_every=8))
        for _ in range(7):
            tracker.observe("request", 1.0)
        assert tracker.breaches == 0  # not evaluated yet
        tracker.observe("request", 1.0)
        assert tracker.breaches == 3

    def test_non_request_phases_never_trip_the_slo(self):
        tracker = SloTracker(
            SloConfig(p50_s=0.001, p99_s=0.002, p999_s=0.003,
                      window=16, evaluate_every=1))
        for _ in range(16):
            tracker.observe("execute", 99.0)
        assert tracker.breaches == 0


class TestHealthCoupling:
    def test_slo_breaches_degrade_serving_health(self):
        clock = FakeClock()
        health = ServingHealth(clock, queue_capacity=32)
        assert health.state is ServingState.HEALTHY
        for _ in range(health.degraded_slo_breaches):
            health.note_slo_breach()
        assert health.state is ServingState.DEGRADED
        for _ in range(health.brownout_slo_breaches):
            health.note_slo_breach()
        assert health.state is ServingState.BROWNOUT

    def test_server_wires_breaches_into_health(self):
        clock = FakeClock()
        server = LookupServer(
            HiBst(small_fib()), workers=1, clock=clock,
            slo=SloConfig(p50_s=1e-9, p99_s=1e-9, p999_s=1e-9,
                          window=16, evaluate_every=1))
        with server:
            # FakeClock durations are exactly 0.0 — the served lookups
            # never breach; feeding the tracker directly proves the
            # on_breach -> health.note_slo_breach wiring end-to-end.
            for _ in range(server.health.degraded_slo_breaches * 2):
                server.slo.observe("request", 1.0)
            assert server.slo.breaches > 0
            assert server.health_state is not ServingState.HEALTHY

    def test_server_default_slo_report_shape(self):
        server = LookupServer(HiBst(small_fib()), workers=1,
                              clock=FakeClock())
        with server:
            server.lookup_batch([1, 2], timeout=30)
        # The worker observes "request" after it resolves the future;
        # close() joined it, so the observation has landed by now.
        report = server.slo.report()
        assert set(report) == {"slo", "phases", "breaches"}
        assert "request" in report["phases"]
        for key in ("p50_s", "p99_s", "p999_s", "observed", "window_n"):
            assert key in report["phases"]["request"]
