"""Latency SLO tracking: sliding-window percentiles over span phases.

The spans module answers "where did *this* request's time go"; this
module answers "is the *population* of requests meeting its latency
objectives".  A :class:`SloTracker` keeps one bounded sliding window
of raw durations per phase (``request`` plus the batch decomposition
phases ``queue_wait``/``execute``/``scatter``), computes **exact**
p50/p99/p999 over the window on demand, and compares the ``request``
phase against a :class:`SloConfig`'s targets.

Every request is observed — sampling never touches SLO accounting, so
the percentiles are exact over the window even at a 1/16 span rate.
The server observes per batch (:meth:`SloTracker.observe_many`: every
phase's durations under one lock acquisition) and evaluation is
amortised (once ``evaluate_every`` request observations have
accumulated, one sort of the window).

Determinism contract: percentile *values* are wall-clock durations and
therefore never enter the registry's deterministic sections — they
live in :meth:`report`, the bench sidecars, and the status endpoint.
What the registry does get is byte-stable: the configured targets as
gauges (``repro_server_slo_target_seconds``) and breach counts
(``repro_server_slo_breaches_total``), which under a
:class:`~repro.obs.FakeClock` (all durations zero) are deterministic
too.  Breaches also feed :class:`~repro.server.supervisor.ServingHealth`
via ``on_breach`` — a sustained p99 blowout degrades serving just like
a deadline-miss storm does.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import MetricsRegistry

__all__ = ["SLO_QUANTILES", "SloConfig", "SloTracker", "window_percentile"]

#: The quantiles tracked everywhere (reports, sidecars, gauges).
SLO_QUANTILES = ("p50", "p99", "p999")

_QUANTILE_VALUES = {"p50": 0.50, "p99": 0.99, "p999": 0.999}


def window_percentile(values: List[float], quantile: float) -> Optional[float]:
    """Exact nearest-rank percentile of ``values`` (None when empty)."""
    if not values:
        return None
    return _nearest_rank(sorted(values), quantile)


def _nearest_rank(ordered: List[float], quantile: float) -> float:
    """The nearest-rank percentile of an already sorted, non-empty list."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be within (0, 1]")
    # Nearest-rank: ceil(q * n), clamped to the window.
    rank = int(-(-(quantile * len(ordered)) // 1))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class SloConfig:
    """Latency targets for the ``request`` phase, by quantile.

    ``targets`` maps quantile names (:data:`SLO_QUANTILES`) to budget
    seconds.  The defaults are generous for an in-process Python
    server — they exist to catch *collapse* (queueing blowups, a
    stalled gate), not to grade microseconds.
    """

    def __init__(
        self,
        *,
        p50_s: float = 0.050,
        p99_s: float = 0.500,
        p999_s: float = 2.000,
        window: int = 4096,
        evaluate_every: int = 256,
    ):
        for label, value in (("p50_s", p50_s), ("p99_s", p99_s),
                             ("p999_s", p999_s)):
            if value <= 0:
                raise ValueError(f"{label} must be > 0")
        if p50_s > p99_s or p99_s > p999_s:
            raise ValueError("targets must be non-decreasing p50<=p99<=p999")
        if window < 1:
            raise ValueError("window must be >= 1")
        if evaluate_every < 1:
            raise ValueError("evaluate_every must be >= 1")
        self.targets: Dict[str, float] = {
            "p50": p50_s, "p99": p99_s, "p999": p999_s}
        self.window = window
        self.evaluate_every = evaluate_every

    def to_dict(self) -> dict:
        return {
            "targets_s": dict(self.targets),
            "window": self.window,
            "evaluate_every": self.evaluate_every,
        }


class _PhaseWindow:
    """One phase's sliding window of durations."""

    __slots__ = ("values", "observed", "total_s")

    def __init__(self, window: int):
        self.values: deque = deque(maxlen=window)
        self.observed = 0
        self.total_s = 0.0

    def observe_many(self, durations: Sequence[float]) -> None:
        self.values.extend(durations)
        self.observed += len(durations)
        self.total_s += sum(durations)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """All tracked quantiles from one sort of the window."""
        ordered = sorted(self.values)
        if not ordered:
            return {name: None for name in SLO_QUANTILES}
        return {name: _nearest_rank(ordered, q)
                for name, q in _QUANTILE_VALUES.items()}


class SloTracker:
    """Per-phase sliding-window percentiles + SLO breach detection."""

    def __init__(
        self,
        config: Optional[SloConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        server: str = "server",
        on_breach: Optional[Callable[[str, float, float], None]] = None,
    ):
        self.config = config if config is not None else SloConfig()
        self.server = server
        self._on_breach = on_breach
        self._lock = threading.Lock()
        self._phases: Dict[str, _PhaseWindow] = {}
        self._since_eval = 0
        self.breaches = 0
        self._breach_counter = None
        if registry is not None:
            self._breach_counter = registry.counter(
                "repro_server_slo_breaches_total",
                "Sliding-window SLO breaches, by quantile.")
            target_gauge = registry.gauge(
                "repro_server_slo_target_seconds",
                "Configured request-latency SLO targets.")
            for quantile, seconds in sorted(self.config.targets.items()):
                target_gauge.set(seconds, server=server, quantile=quantile)

    # -- observation ---------------------------------------------------
    def observe(self, phase: str, seconds: float) -> None:
        """Record one duration; periodically evaluates the SLO."""
        self.observe_many(((phase, (seconds,)),))

    def observe_many(
        self, observations: Iterable[Tuple[str, Sequence[float]]],
    ) -> None:
        """Record ``(phase, durations)`` pairs — a batch's request
        durations and its phase decomposition — under one lock
        acquisition; evaluates the SLO (once) when the request
        observations since the last evaluation reach
        ``evaluate_every``."""
        evaluate = False
        with self._lock:
            for phase, durations in observations:
                window = self._phases.get(phase)
                if window is None:
                    window = self._phases[phase] = _PhaseWindow(
                        self.config.window)
                window.observe_many(durations)
                if phase == "request":
                    self._since_eval += len(durations)
            if self._since_eval >= self.config.evaluate_every:
                self._since_eval = 0
                evaluate = True
        if evaluate:
            self.evaluate()

    # -- evaluation ----------------------------------------------------
    def evaluate(self) -> List[Tuple[str, float, float]]:
        """Compare the request window to the targets now; returns the
        breaches as ``(quantile, measured_s, target_s)`` triples."""
        with self._lock:
            window = self._phases.get("request")
            measured = window.percentiles() if window is not None else {}
        breaches = []
        for quantile, target_s in self.config.targets.items():
            value = measured.get(quantile)
            if value is not None and value > target_s:
                breaches.append((quantile, value, target_s))
        for quantile, value, target_s in breaches:
            with self._lock:
                self.breaches += 1
            if self._breach_counter is not None:
                self._breach_counter.inc(1, server=self.server,
                                         quantile=quantile)
            if self._on_breach is not None:
                self._on_breach(quantile, value, target_s)
        return breaches

    # -- reporting -----------------------------------------------------
    def phases(self) -> List[str]:
        with self._lock:
            return sorted(self._phases)

    def percentiles(self, phase: str = "request") -> Dict[str, Optional[float]]:
        with self._lock:
            window = self._phases.get(phase)
            return window.percentiles() if window is not None else {
                name: None for name in SLO_QUANTILES}

    def report(self) -> dict:
        """Per-phase window stats + targets + breach count (JSON-able;
        the sidecars and the status endpoint serve this verbatim)."""
        with self._lock:
            phases = {
                name: {
                    "observed": window.observed,
                    "window_n": len(window.values),
                    "total_s": window.total_s,
                    **{f"{q}_s": v
                       for q, v in window.percentiles().items()},
                }
                for name, window in sorted(self._phases.items())
            }
            breaches = self.breaches
        return {
            "slo": self.config.to_dict(),
            "phases": phases,
            "breaches": breaches,
        }
