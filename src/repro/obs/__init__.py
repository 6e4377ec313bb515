"""Telemetry for the reproduction: metrics, tracing, access accounting.

The paper's whole argument is resource accounting; this package makes
the accounting *observable* at run time instead of only as end-of-run
totals.  Three pieces, used by every layer:

* :mod:`repro.obs.registry` — counters/gauges/histograms with labels
  and deterministic Prometheus/JSON output, plus a wall-clock timing
  facility kept strictly out of the deterministic sections;
* :mod:`repro.obs.trace` — per-lookup CRAM step tracing for the
  interpreter, exportable as JSONL and Chrome trace-event JSON;
* :mod:`repro.obs.accounting` — per-structure read/write counters and
  per-prefix hit tallies for the TCAM/SRAM/d-left simulators;
* :mod:`repro.obs.spans` — request-lifecycle spans for the serving
  stack (deterministic IDs, head-based sampling, JSONL/Chrome-trace
  export, span<->metrics consistency check);
* :mod:`repro.obs.slo` — sliding-window p50/p99/p999 latency
  estimators over the span phases, with SLO breach detection;
* :mod:`repro.obs.status` — a stdlib-only HTTP status surface
  (``/metrics``, ``/health``, ``/epoch``, ``/slo``, ``/spans``).

Determinism contract: this is the **only** package under ``repro``
allowed to touch ``time.*`` (see ``tests/test_telemetry_audit.py``).
"""

from .accounting import (
    AccessStats,
    access_skew,
    collect_access_stats,
    enable_hit_tracking,
    export_access_stats,
    hot_table_report,
)
from .clock import Clock, FakeClock, MonotonicClock, TimerHandle
from .registry import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .slo import SLO_QUANTILES, SloConfig, SloTracker, window_percentile
from .spans import (
    DEFAULT_SPAN_SAMPLE_RATE,
    SPAN_PHASES,
    SpanRecord,
    SpanRecorder,
    batch_trace_id_for,
    check_span_metrics_consistency,
    span_sampled,
    trace_id_for,
)
from .status import StatusServer
from .trace import (
    NULL_TRACER,
    RecordingTracer,
    TraceEvent,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_SPAN_SAMPLE_RATE",
    "SPAN_PHASES",
    "SLO_QUANTILES",
    "SloConfig",
    "SloTracker",
    "SpanRecord",
    "SpanRecorder",
    "StatusServer",
    "batch_trace_id_for",
    "check_span_metrics_consistency",
    "span_sampled",
    "trace_id_for",
    "window_percentile",
    "AccessStats",
    "access_skew",
    "collect_access_stats",
    "enable_hit_tracking",
    "export_access_stats",
    "hot_table_report",
    "Clock",
    "FakeClock",
    "LATENCY_BUCKETS_S",
    "MonotonicClock",
    "TimerHandle",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "RecordingTracer",
    "TraceEvent",
    "Tracer",
    "validate_chrome_trace",
]
