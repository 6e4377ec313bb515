"""Request-lifecycle spans for the serving stack.

Where :mod:`repro.obs.trace` records a lookup's journey across SRAM
banks, this module records a *request's* journey across threads and
processes: coalescer enqueue, batch formation, queue wait, gate
acquisition, worker execute, scatter — and the failure outcomes
(timeout, shed, brownout, retry after a worker death).  The serving
layer stamps wall-clock timestamps as the request moves; spans are
assembled *post hoc* when the request resolves, so there is never an
"open" span dangling across a thread or a killed worker process.

Determinism contract: IDs and the sampling decision derive purely from
the request sequence number and the serving epoch (a seeded
multiplicative hash — no ``random.Random`` allocation on the hot
path), so two runs with the same seeds sample the same requests and
emit the same IDs.  Timestamps are wall clock and therefore live only
in exports (JSONL, Chrome trace, timings) — never in the registry's
deterministic sections; the registry only counts spans
(``repro_server_spans_total`` by phase, sampled/unsampled request
totals), which *is* byte-stable.

Exports:

* :meth:`SpanRecorder.to_jsonl` — one span per line, the archival
  format (``repro serve --span-jsonl``);
* :meth:`SpanRecorder.to_chrome_trace` — the Chrome trace-event array
  (``repro serve --span-chrome``, opens in ``chrome://tracing`` /
  Perfetto): request root spans render one lane per request under
  pid 0, batch-phase spans render per worker pid;
* :func:`check_span_metrics_consistency` — proves the span-derived
  request-latency histogram agrees with the ``repro_server_request``
  registry timer on count, sum, and bucket counts (the acceptance
  gate for "spans tell the same story as the metrics").
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

from .registry import LATENCY_BUCKETS_S, MetricsRegistry, _format_bound
from .trace import validate_chrome_trace

__all__ = [
    "DEFAULT_SPAN_SAMPLE_RATE",
    "SPAN_PHASES",
    "SpanRecord",
    "SpanRecorder",
    "span_sampled",
    "trace_id_for",
    "batch_trace_id_for",
    "check_span_metrics_consistency",
]

#: Default head-sampling rate for detailed span records (1 in 16).
#: SLO percentile tracking observes *every* request regardless — the
#: rate only gates the per-phase span detail, keeping the serving
#: overhead within the bench gate.
DEFAULT_SPAN_SAMPLE_RATE = 0.0625

#: The span phases the serving path emits, in lifecycle order.
SPAN_PHASES = (
    "request",      # submit -> last scatter (the root span)
    "coalesce",     # first address entered the open batch -> batch cut
    "queue_wait",   # batch cut -> a worker picked it up
    "gate",         # worker waiting on the commit gate's read side
    "execute",      # engine.lookup_batch inside the gate
    "scatter",      # answers delivered back to the request futures
)

#: Outcome marker spans (zero-duration events on the request trace).
OUTCOME_PHASES = ("timeout", "shed", "brownout_hit", "brownout_shed",
                  "retry", "error")


def span_sampled(seq: int, rate: float, seed: int = 0) -> bool:
    """Deterministic head-based sampling decision for request ``seq``.

    A seeded multiplicative hash (no allocation, stable across runs
    and Python versions) — cheap enough to call on every submit.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    h = (seq * 2654435761 + seed * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h < rate * 4294967296.0


def trace_id_for(seq: int, epoch: int = 0) -> str:
    """The request trace ID: pure function of (seq, epoch)."""
    return f"req-{epoch:04x}-{seq:012x}"


def batch_trace_id_for(batch_seq: int, epoch: int = 0) -> str:
    """The batch trace ID: pure function of (batch seq, epoch)."""
    return f"bat-{epoch:04x}-{batch_seq:012x}"


class SpanRecord:
    """One closed span: a named interval on a trace, plus attributes.
    The ring holds tens of thousands, so ``span_id`` — a function of
    trace, name and retry count — is built on export, not stored."""

    __slots__ = ("trace_id", "parent_id", "name", "start_s", "end_s",
                 "attrs")

    def __init__(self, trace_id: str, name: str,
                 start_s: float, end_s: float,
                 parent_id: Optional[str] = None,
                 attrs: Optional[dict] = None):
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs or {}

    @property
    def span_id(self) -> str:
        retries = self.attrs.get("retries")
        return f"{self.trace_id}:{self.name}" + (
            f":{retries}" if retries else "")

    @property
    def dur_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        doc = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "dur_s": self.dur_s,
        }
        if self.parent_id is not None:
            doc["parent_id"] = self.parent_id
        if self.attrs:
            doc["attrs"] = dict(sorted(self.attrs.items()))
        return doc


class SpanRecorder:
    """Bounded, thread-safe store of closed spans with exporters.

    ``capacity`` bounds memory (a ring buffer: old spans fall off);
    ``sample_rate`` is the head-based knob consulted by
    :meth:`decide` — the serving layer asks once per request at
    submit time and stamps the decision on the handle, so every span
    of one request shares its fate (whole traces, never fragments) —
    and the decisions are counted a batch at a time
    (:meth:`count_decisions`).  :meth:`sampled` is both at once, for a
    request that travels alone.
    """

    def __init__(
        self,
        *,
        sample_rate: float = DEFAULT_SPAN_SAMPLE_RATE,
        capacity: int = 65536,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        server: str = "server",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        self.server = server
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._spans_total = None
        #: ``repro_server_spans_total`` series handles, by phase.
        self._phase_totals: Dict[str, object] = {}
        self._sampled_total = None
        self._unsampled_total = None
        if registry is not None:
            self._spans_total = registry.counter(
                "repro_server_spans_total",
                "Request-lifecycle spans recorded, by phase.")
            self._sampled_total = registry.counter(
                "repro_server_span_requests_sampled_total",
                "Requests picked by the head-based span sampler."
            ).labels(server=server)
            self._unsampled_total = registry.counter(
                "repro_server_span_requests_unsampled_total",
                "Requests skipped by the head-based span sampler."
            ).labels(server=server)

    # -- sampling ------------------------------------------------------
    def decide(self, seq: int) -> bool:
        """The head-sampling decision for request ``seq``, uncounted:
        whoever asks owes a :meth:`count_decisions`."""
        return span_sampled(seq, self.sample_rate, self.seed)

    def count_decisions(self, sampled: int, unsampled: int) -> None:
        """Count a batch of :meth:`decide` outcomes."""
        if self._sampled_total is not None:
            if sampled:
                self._sampled_total.inc(sampled)
            if unsampled:
                self._unsampled_total.inc(unsampled)

    def sampled(self, seq: int) -> bool:
        """The (counted) head-sampling decision for request ``seq``."""
        decision = self.decide(seq)
        self.count_decisions(int(decision), int(not decision))
        return decision

    # -- recording -----------------------------------------------------
    def record(self, trace_id: str, name: str, start_s: float,
               end_s: float, *, parent_id: Optional[str] = None,
               shared: Optional[dict] = None, **attrs) -> SpanRecord:
        """Append one closed span (clamps a negative duration to 0).
        ``shared`` is an attribute dict used as is instead of ``attrs``:
        no span's attributes are written once recorded, so the spans of
        one batch can share one dict."""
        if end_s < start_s:
            end_s = start_s
        span = SpanRecord(trace_id, name, start_s, end_s, parent_id=parent_id,
                          attrs=attrs if shared is None else shared)
        with self._lock:
            self._spans.append(span)
        if self._spans_total is not None:
            total = self._phase_totals.get(name)
            if total is None:
                total = self._phase_totals[name] = self._spans_total.labels(
                    server=self.server, phase=name)
            total.inc()
        return span

    def event(self, trace_id: str, name: str, at_s: float,
              *, parent_id: Optional[str] = None, **attrs) -> SpanRecord:
        """A zero-duration outcome marker (timeout, shed, retry...)."""
        return self.record(trace_id, name, at_s, at_s,
                           parent_id=parent_id, **attrs)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self, name: Optional[str] = None) -> List[SpanRecord]:
        with self._lock:
            out = list(self._spans)
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def tail(self, n: int = 100) -> List[dict]:
        """The most recent ``n`` spans as dicts (oldest first) — the
        payload of the status endpoint's ``/spans``."""
        with self._lock:
            out = list(self._spans)[-max(0, n):]
        return [s.to_dict() for s in out]

    def counts(self) -> Dict[str, int]:
        """Span counts by phase (for summaries and sidecars)."""
        out: Dict[str, int] = {}
        for span in self.spans():
            out[span.name] = out.get(span.name, 0) + 1
        return dict(sorted(out.items()))

    def phase_histogram(self, name: str) -> dict:
        """Span-derived latency histogram for one phase, shaped like
        the registry's ``_Timing.to_dict`` (the consistency check
        compares the two directly)."""
        buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)
        count, total = 0, 0.0
        for span in self.spans(name):
            dur = span.dur_s
            count += 1
            total += dur
            for i, bound in enumerate(LATENCY_BUCKETS_S):
                if dur <= bound:
                    buckets[i] += 1
                    break
            else:
                buckets[-1] += 1
        bounds = [_format_bound(b) for b in LATENCY_BUCKETS_S] + ["+Inf"]
        return {"count": count, "total_s": total,
                "buckets": dict(zip(bounds, buckets))}

    # -- exports -------------------------------------------------------
    def to_jsonl(self) -> str:
        spans = self.spans()
        return "\n".join(
            json.dumps(s.to_dict(), sort_keys=True) for s in spans
        ) + ("\n" if spans else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def to_chrome_trace(self) -> List[dict]:
        """The Chrome trace-event array.

        Layout: request root spans get one lane per request under
        pid 0 (``tid`` = request seq); batch-phase spans group under
        one pid per worker (``tid`` = batch seq), so the per-worker
        pipeline (queue wait -> gate -> execute -> scatter) reads as a
        stacked timeline.  Zero-duration outcome markers render as
        instant events.  ``ts`` is microseconds, as the format wants.
        """
        spans = self.spans()
        if not spans:
            return []
        t0 = min(s.start_s for s in spans)
        out: List[dict] = []
        for span in spans:
            attrs = span.attrs
            if "worker" in attrs:
                pid = 1 + int(attrs["worker"] or 0)
                tid = int(attrs.get("batch", 0) or 0)
            else:
                pid = 0
                tid = int(attrs.get("seq", 0) or 0)
            ts = (span.start_s - t0) * 1e6
            args = {"trace_id": span.trace_id}
            args.update(sorted(attrs.items()))
            if span.end_s == span.start_s:
                out.append({"name": span.name, "ph": "i", "ts": ts,
                            "pid": pid, "tid": tid, "s": "t",
                            "args": args})
            else:
                out.append({"name": span.name, "ph": "X", "ts": ts,
                            "dur": span.dur_s * 1e6,
                            "pid": pid, "tid": tid, "args": args})
        validate_chrome_trace(out)
        return out

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")


def check_span_metrics_consistency(
    recorder: SpanRecorder,
    registry: MetricsRegistry,
    *,
    phase: str = "request",
    timer: str = "repro_server_request",
    server: str = "server",
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> dict:
    """Do span-derived latencies agree with the registry timers?

    The server records the root request span with the *same* measured
    duration it feeds the ``repro_server_request`` timer, so with
    ``sample_rate=1.0`` the two must agree exactly on count, sum, and
    per-bucket counts.  Returns a report dict with ``ok`` plus both
    sides; callers (tests, the serve CLI) assert on ``ok``.
    """
    from_spans = recorder.phase_histogram(phase)
    key = f'{timer}{{server="{server}"}}'
    from_timer = registry.timings_snapshot().get(key)
    report = {
        "phase": phase,
        "timer": key,
        "spans": from_spans,
        "timings": from_timer,
        "ok": False,
        "mismatches": [],
    }
    if from_timer is None:
        report["mismatches"].append(f"timer series {key!r} not found")
        return report
    if from_spans["count"] != from_timer["count"]:
        report["mismatches"].append(
            f"count: spans={from_spans['count']} "
            f"timer={from_timer['count']}")
    span_sum, timer_sum = from_spans["total_s"], from_timer["total_s"]
    if abs(span_sum - timer_sum) > max(abs_tol,
                                       rel_tol * max(abs(span_sum),
                                                     abs(timer_sum))):
        report["mismatches"].append(
            f"sum: spans={span_sum!r} timer={timer_sum!r}")
    if from_spans["buckets"] != from_timer["buckets"]:
        report["mismatches"].append(
            f"buckets: spans={from_spans['buckets']} "
            f"timer={from_timer['buckets']}")
    report["ok"] = not report["mismatches"]
    return report
