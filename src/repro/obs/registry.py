"""Metrics registry: counters, gauges, histograms — plus wall-clock timings.

The registry is the one place the package is allowed to count things
for telemetry.  It is split into two strictly separated halves:

* **Deterministic instruments** — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`.  Their values derive only from the workload (ops
  applied, bits allocated, batch sizes), so two runs with the same
  seeds produce byte-identical :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.render_prometheus` output.  Tests assert on
  these.
* **Timings** — created with :meth:`MetricsRegistry.timer` /
  :meth:`MetricsRegistry.observe_seconds`, backed by
  ``time.perf_counter``.  Wall clock is inherently non-deterministic,
  so timings are *excluded* from snapshots and from the default
  Prometheus rendering; they live in their own
  :meth:`MetricsRegistry.timings_snapshot` section and the
  machine-readable JSON sidecars.

The determinism contract mirrors :mod:`repro.control.events`: nothing
in a deterministic section may depend on the clock, the pid, or hash
randomization.  Label values are coerced to strings and label names
are sorted, so rendering order is stable by construction.

**Series handles.**  ``family.labels(**labels)`` (and
:meth:`MetricsRegistry.timing` for the wall-clock half) resolve a label
set to its canonical key *once* and return a handle bound to that one
series; the keyword forms (``inc(1, server="s")``) sort and stringify
the labels on every call.  Code on a request or batch path holds
handles; the keyword forms are for everything rarer.

**Concurrency.**  Every update is a read-modify-write, so every update
runs under a lock: one per registry, shared by its families and
timings (a family built on its own has its own).  The serving frontend
updates per batch, not per request — ``observe_many`` records a whole
batch of durations, across several series, under one acquisition.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Label set in canonical form: name-sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Bucket bounds (seconds) for latency timings, log-spaced 1 µs – 10 s.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    """Bucket bound rendering: stable and human-readable ("0.001", "16")."""
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


class CounterSeries:
    """One labelled series of a :class:`Counter`, its label key resolved.

    What ``counter.labels(...)`` returns: ``inc`` skips the per-call
    label sort and goes straight to the family's lock and value.
    """

    __slots__ = ("_family", "_key")
    _monotonic = True

    def __init__(self, family: "Counter", key: LabelKey):
        self._family = family
        self._key = key

    def inc(self, amount: Number = 1) -> None:
        family = self._family
        if amount < 0 and self._monotonic:
            raise ValueError(
                f"counter {family.name}: negative increment {amount}")
        with family._lock:
            values = family._values
            try:
                values[self._key] += amount
            except KeyError:
                values[self._key] = amount


class GaugeSeries(CounterSeries):
    """One labelled series of a :class:`Gauge`."""

    __slots__ = ()
    _monotonic = False

    def set(self, value: Number) -> None:
        family = self._family
        with family._lock:
            family._values[self._key] = value

    def dec(self, amount: Number = 1) -> None:
        self.inc(-amount)


class Counter:
    """A monotonically increasing family of per-label values."""

    kind = "counter"
    _series_type = CounterSeries

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._values: Dict[LabelKey, Number] = {}
        #: Guards every update; the registry's own lock once registered.
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        """The series handle for one label set (key resolved once)."""
        return self._series_type(self, _label_key(labels))

    def inc(self, amount: Number = 1, **labels: object) -> None:
        self._series_type(self, _label_key(labels)).inc(amount)

    def value(self, **labels: object) -> Number:
        return self._values.get(_label_key(labels), 0)

    def items(self) -> Iterator[Tuple[LabelKey, Number]]:
        return iter(sorted(self._values.items()))

    def samples(self) -> List[Tuple[str, str]]:
        return [(self.name + _render_labels(key), _format_value(v))
                for key, v in self.items()]


class Gauge(Counter):
    """A settable family of per-label values (health states, sizes)."""

    kind = "gauge"
    _series_type = GaugeSeries

    def set(self, value: Number, **labels: object) -> None:
        GaugeSeries(self, _label_key(labels)).set(value)

    def dec(self, amount: Number = 1, **labels: object) -> None:
        GaugeSeries(self, _label_key(labels)).dec(amount)


class HistogramSeries:
    """One labelled series of a :class:`Histogram`."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Histogram", key: LabelKey):
        self._family = family
        self._key = key

    def observe(self, value: Number) -> None:
        family = self._family
        # First bucket whose bound is >= value; past the last: +Inf.
        bucket = bisect_left(family.bounds, value)
        with family._lock:
            series = family._series.get(self._key)
            if series is None:
                series = family._series[self._key] = [
                    [0] * (len(family.bounds) + 1), 0, 0]
            series[0][bucket] += 1
            series[1] += value
            series[2] += 1


class Histogram:
    """A fixed-bucket histogram family (Prometheus ``le`` semantics).

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket is always appended.  An observation lands
    in the first bucket whose bound is **>=** the value (cumulative
    rendering sums upward, as Prometheus requires).
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float], help_text: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: buckets must strictly increase")
        if bounds and bounds[-1] == float("inf"):
            bounds = bounds[:-1]
        self.name = name
        self.help = help_text
        self.bounds = bounds
        # per label-key: ([per-bucket counts..., +Inf count], sum, count)
        self._series: Dict[LabelKey, List] = {}
        #: Guards every update; the registry's own lock once registered.
        self._lock = threading.Lock()

    def labels(self, **labels: object) -> HistogramSeries:
        """The series handle for one label set (key resolved once)."""
        return HistogramSeries(self, _label_key(labels))

    def observe(self, value: Number, **labels: object) -> None:
        HistogramSeries(self, _label_key(labels)).observe(value)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def sum(self, **labels: object) -> Number:
        series = self._series.get(_label_key(labels))
        return series[1] if series else 0

    def bucket_counts(self, **labels: object) -> Dict[str, int]:
        """Non-cumulative per-bucket counts, keyed by rendered bound."""
        series = self._series.get(_label_key(labels))
        counts = series[0] if series else [0] * (len(self.bounds) + 1)
        bounds = [_format_bound(b) for b in self.bounds] + ["+Inf"]
        return dict(zip(bounds, counts))

    def items(self) -> Iterator[Tuple[LabelKey, List]]:
        return iter(sorted(self._series.items()))

    def samples(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for key, (counts, total, n) in self.items():
            cumulative = 0
            for bound, bucket in zip(self.bounds, counts):
                cumulative += bucket
                out.append((
                    self.name + "_bucket"
                    + _render_labels(key, [("le", _format_bound(bound))]),
                    _format_value(cumulative),
                ))
            out.append((
                self.name + "_bucket" + _render_labels(key, [("le", "+Inf")]),
                _format_value(cumulative + counts[-1]),
            ))
            out.append((self.name + "_sum" + _render_labels(key),
                        _format_value(total)))
            out.append((self.name + "_count" + _render_labels(key),
                        _format_value(n)))
        return out


class _Timing:
    """One wall-clock series: count/total/min/max + latency buckets.

    Its own series handle: :meth:`MetricsRegistry.timing` returns it.
    """

    __slots__ = ("count", "total_s", "min_s", "max_s", "buckets", "_lock")

    def __init__(self, lock) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None
        self.buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self._lock = lock

    def observe(self, seconds: float) -> None:
        self.observe_many((seconds,))

    def observe_many(self, durations: Sequence[float]) -> None:
        """Record a batch of durations under one lock acquisition."""
        with self._lock:
            self._add(durations)

    def _add(self, durations: Sequence[float]) -> None:
        """Lock held by the caller.  The sum is taken in order, one
        value at a time, so it equals what per-value ``observe`` calls
        would have produced bit for bit."""
        if not durations:
            return
        total, buckets = self.total_s, self.buckets
        low = high = durations[0]
        for seconds in durations:
            total += seconds
            if seconds < low:
                low = seconds
            elif seconds > high:
                high = seconds
            buckets[bisect_left(LATENCY_BUCKETS_S, seconds)] += 1
        self.count += len(durations)
        self.total_s = total
        if self.min_s is None or low < self.min_s:
            self.min_s = low
        if self.max_s is None or high > self.max_s:
            self.max_s = high

    def to_dict(self) -> dict:
        bounds = [_format_bound(b) for b in LATENCY_BUCKETS_S] + ["+Inf"]
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "buckets": dict(zip(bounds, self.buckets)),
        }


class _TimerContext:
    """``with registry.timer("phase"):`` — observes elapsed seconds."""

    __slots__ = ("_timing", "_start")

    def __init__(self, timing: _Timing):
        self._timing = timing
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timing.observe(perf_counter() - self._start)


class MetricsRegistry:
    """A collection of named metric families plus a timings section."""

    def __init__(self) -> None:
        self._families: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._timings: Dict[Tuple[str, LabelKey], _Timing] = {}
        #: The one lock every update of this registry runs under.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Family constructors (idempotent: same name returns same family)
    # ------------------------------------------------------------------
    def _register(self, family):
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(
                        f"metric {family.name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            family._lock = self._lock
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter(name, help_text))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge(name, help_text))

    def histogram(self, name: str, buckets: Sequence[float],
                  help_text: str = "") -> Histogram:
        return self._register(Histogram(name, buckets, help_text))

    def get(self, name: str):
        return self._families.get(name)

    # ------------------------------------------------------------------
    # Timings (wall clock — never part of deterministic output)
    # ------------------------------------------------------------------
    def timing(self, name: str, **labels: object) -> _Timing:
        """The series handle of one timing: ``observe(seconds)`` and
        ``observe_many(durations)``.  A series shows up in
        :meth:`timings_snapshot` with its first observation."""
        key = (name, _label_key(labels))
        with self._lock:
            timing = self._timings.get(key)
            if timing is None:
                timing = self._timings[key] = _Timing(self._lock)
            return timing

    def timer(self, name: str, **labels: object) -> _TimerContext:
        return _TimerContext(self.timing(name, **labels))

    def observe_seconds(self, name: str, seconds: float, **labels: object) -> None:
        self.timing(name, **labels).observe(seconds)

    def observe_many(
        self, observations: Sequence[Tuple[_Timing, Sequence[float]]],
    ) -> None:
        """Record ``(timing handle, durations)`` pairs — several series,
        many values each — under one lock acquisition."""
        with self._lock:
            for timing, durations in observations:
                timing._add(durations)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic state of every counter/gauge/histogram.

        No timings, no timestamps: byte-stable for seeded runs.
        """
        counters: Dict[str, dict] = {}
        gauges: Dict[str, dict] = {}
        histograms: Dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if isinstance(family, Histogram):
                histograms[name] = {
                    _render_labels(key): {
                        "buckets": dict(zip(
                            [_format_bound(b) for b in family.bounds] + ["+Inf"],
                            counts,
                        )),
                        "sum": total,
                        "count": n,
                    }
                    for key, (counts, total, n) in family.items()
                }
            elif isinstance(family, Gauge):
                gauges[name] = {_render_labels(k): v for k, v in family.items()}
            else:
                counters[name] = {_render_labels(k): v for k, v in family.items()}
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def timings_snapshot(self) -> dict:
        """Wall-clock section: per-phase latency stats (non-deterministic)."""
        return {
            name + _render_labels(key): timing.to_dict()
            for (name, key), timing in sorted(self._timings.items())
            if timing.count
        }

    def render_prometheus(self, include_timings: bool = False) -> str:
        """Prometheus text exposition, deterministically ordered.

        The default output contains only the deterministic instruments;
        pass ``include_timings=True`` to append the wall-clock section
        (marked as such) for human consumption.
        """
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for sample, value in family.samples():
                lines.append(f"{sample} {value}")
        timings = self.timings_snapshot() if include_timings else {}
        if timings:
            lines.append("# --- wall-clock timings (non-deterministic) ---")
            for series, stats in timings.items():
                lines.append(f"# TYPE {series.split('{')[0]}_seconds summary")
                lines.append(f"{series}_seconds_count {stats['count']}")
                lines.append(f"{series}_seconds_sum {stats['total_s']:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self, include_timings: bool = True, indent: int = 2) -> str:
        """JSON document: deterministic metrics + (optionally) timings."""
        doc = {"metrics": self.snapshot()}
        if include_timings:
            doc["timings"] = self.timings_snapshot()
        return json.dumps(doc, indent=indent, sort_keys=True)
