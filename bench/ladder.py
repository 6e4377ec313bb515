"""The traced run: every layer timed from outside, in ns per lookup.

Each rung calls one layer's public functions on the workload's own
address stream and wraps every call in a span.  A rung's self time is
its value minus the rung below it, so the ladder reads kernel -> engine
-> pool handoff -> coalescer in one unit.  Each probe is guarded on its
own: when a later change removes the API a probe times, that metric
reads ``null`` with the reason and the others still report.
"""

from __future__ import annotations

import collections
import gc
import json
import os
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.artifact import ArtifactCatalog
from repro.control import ManagedFib
from repro.engine import BatchEngine
from repro.server import LookupServer

from .loadgen import WAIT_S, closed_loop, stub_submit
from .measure import serve
from .report import best, skipped, summary
from .session import drive
from .workloads import ARTIFACT, SERVING

KERNEL_ADDRESSES = 20_000   # per pass of the in-process rungs
POOL_REQUESTS = 200         # max_batch-sized requests per pass of the pool rung
PASSES = 7                  # of the in-process and pool rungs
SERVER_PASSES = 5           # of the rungs that push a pass of traffic through a server
QUICK_PASSES = 2
GENERATOR_WINDOW = 64
CACHE_SIZE = 4096
SLO_PHASES = ("coalesce", "queue_wait", "gate", "execute", "scatter")


class Tracer:
    """Spans in memory, written out when the run ends.

    A span is ``(name, start_ns, end_ns, parent, lookups, trace)``;
    ``parent`` is the index of the enclosing span, ``trace`` names the
    rung pass every span of that pass shares.
    """

    def __init__(self):
        self.spans = []
        self._open = []     # indices of enclosing spans
        self._trace = None

    @contextmanager
    def span(self, name, lookups=0, trace=None):
        parent = self._open[-1] if self._open else None
        outer, self._trace = self._trace, trace or self._trace
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.spans[index] = (name, start, end, parent, lookups,
                                 self._trace)
            self._open.pop()
            self._trace = outer

    def calls(self, name, call, batches):
        """Span each ``call(batch)``; returns their summed ns."""
        parent, trace, spans = self._open[-1], self._trace, self.spans
        total = 0
        for batch in batches:
            start = perf_counter_ns()
            call(batch)
            end = perf_counter_ns()
            spans.append((name, start, end, parent, len(batch), trace))
            total += end - start
        return total

    def requests(self, rnd):
        """The spans of a traced generator pass, built after it ended."""
        parent, trace, spans = self._open[-1], self._trace, self.spans
        for request, call, sent, done in zip(
                rnd.requests, rnd.submit_s, rnd.sent_s, rnd.done_s):
            size = len(request)
            spans.append(("server.submit", int(call[0] * 1e9),
                          int(call[1] * 1e9), parent, size, trace))
            spans.append(("request", int(sent * 1e9), int(done * 1e9),
                          parent, size, trace))

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                name, start, end, parent, lookups, trace = span
                fh.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "lookups": lookups,
                    "trace": trace}) + "\n")


def _minus(value, *below):
    """A self time: a rung minus what was measured below it."""
    if None in below:
        return skipped("a rung below this one was skipped")
    return summary([value - sum(below)])


def _timed(samples, call):
    start = perf_counter()
    result = call()
    samples.append(perf_counter() - start)
    return result


class Ladder:
    def __init__(self, inputs, work, catalog, seconds, quick):
        self.inputs = inputs
        self.workload = inputs.workload
        self.work = work            # a scratch directory
        self.catalog = catalog      # the warm-start snapshot, if any
        self.seconds = seconds
        self.quick = quick
        self.passes = QUICK_PASSES if quick else PASSES
        self.server_passes = QUICK_PASSES if quick else SERVER_PASSES
        self.tracer = Tracer()
        self.layers = {}
        self.main = None        # the untraced run's Served
        self.start_s = []       # every ladder server's start, timed
        self.engine = self.cached = None    # the engine rungs' engines
        self._snapshots = []    # the live server's counters, before/after
        self._pass = 0
        flat = inputs.addresses[:KERNEL_ADDRESSES]
        size = SERVING["max_batch"]
        self.batches = [flat[i:i + size] for i in range(0, len(flat), size)]

    # -- plumbing --------------------------------------------------------
    def probe(self, names, measure):
        """Run one probe; on any error its metrics read null, with why."""
        try:
            with self.tracer.span(f"probe:{names[0]}"):
                self.layers.update(measure())
        except Exception as error:
            self.skip(names, error)

    def skip(self, names, error):
        reason = f"{type(error).__name__}: {error}"
        print(f"skipped {', '.join(names)}: {reason}")
        for name in names:
            self.layers[name] = skipped(reason)

    def value(self, name):
        return self.layers[name]["value"]

    def loop_pass(self, name, index, run, traced=True):
        """One pass of a rung that needs the generator: ``run(traced)``
        returns the :class:`~bench.loadgen.Round`; ns per lookup."""
        with self.tracer.span(f"rung:{name}", trace=f"{name}#{index}"):
            rnd = run(traced)
            if traced:
                self.tracer.requests(rnd)
        return 1e9 * rnd.wall_s / rnd.lookups

    def loop_rung(self, name, run):
        return best([self.loop_pass(name, index, run)
                     for index in range(self.passes)])

    def drive(self, submit, traced=False):
        """One pass of the workload's traffic, read-only, into ``submit``."""
        requests = self.inputs.pass_requests(self._pass)
        self._pass += 1
        return drive(self.workload, requests, submit, traced=traced)

    def start_server(self, algo, **extra):
        workload = self.workload
        kwargs = dict(SERVING, mode=workload.mode, **extra)
        if workload.mode == "process":
            kwargs.update(factory=self.inputs.factory,
                          base_fib=self.inputs.fib)
            if workload.warm_start:
                kwargs["artifact"] = self.catalog.path(
                    ARTIFACT, self.catalog.current(ARTIFACT))

        def start():
            server = LookupServer(algo, **kwargs).start()
            server.submit(self.inputs.round_requests(0)[0]).result(WAIT_S)
            return server
        return _timed(self.start_s, start)

    # -- the probes ------------------------------------------------------
    def build(self):
        inputs = self.inputs
        build_s, plan_s, vector_s = [], [], []
        self.algo = _timed(build_s, lambda: inputs.factory(inputs.fib))
        # Once each: a second compile reuses what the first one froze,
        # and set-up pays for the first.
        self.plan = _timed(plan_s, self.algo.compile_plan)
        self.vplan = _timed(
            vector_s, lambda: self.algo.compile_vector_plan(self.plan))
        metrics = self.algo.cram_metrics()
        return {"algorithms.build_s": summary(build_s),
                "core.plan.compile_s": summary(plan_s),
                "core.vector.compile_s": summary(vector_s),
                "core.metrics.tcam_bits": summary([metrics.tcam_bits]),
                "core.metrics.sram_bits": summary([metrics.sram_bits]),
                "core.metrics.steps": summary([metrics.steps])}

    def artifact(self):
        catalog = ArtifactCatalog(os.path.join(self.work, "probe"))
        save_s, load_s = [], []
        version = _timed(save_s, lambda: catalog.save(
            ARTIFACT, self.algo, self.inputs.fib, vector_plan=self.vplan))
        for _ in range(3):
            _timed(load_s, lambda: catalog.load(ARTIFACT).algorithm())
        size = os.path.getsize(catalog.path(ARTIFACT, version))
        return {"artifact.save_s": summary(save_s),
                "artifact.load_s": summary(load_s),
                "artifact.bytes": summary([size])}

    def kernel_rungs(self):
        """The in-process rungs, interleaved pass by pass: a burst of
        interference from the host then lands on every rung alike, and
        the medians over the passes drop it from all of them."""
        rungs = {}      # metric -> (span name, call, batches, before-pass hook)

        def add(metric, name, make):
            try:
                rungs[metric] = (name,) + make()
            except Exception as error:
                self.skip([metric], error)

        def arrays():
            try:
                return [np.asarray(b, dtype=np.int64) for b in self.batches]
            except OverflowError:   # addresses past int64: lists, as served
                return self.batches

        def small():
            return [a[i:i + 16] for a in arrays()[:len(self.batches) // 4]
                    for i in range(0, len(a), 16)]

        def plain():
            self.engine = BatchEngine(self.algo, backend="auto")
            return self.engine.lookup_batch, self.batches, None

        def cached():
            # Cleared before every pass, so the hit ratio is a property
            # of the stream and repeats exactly.
            self.cached = BatchEngine(self.algo, backend="auto",
                                      cache_size=CACHE_SIZE, name="bench-cache")
            return (self.cached.lookup_batch, self.batches,
                    self.cached.cache.clear)

        add("core.plan.ns_per_lookup", "core.plan",
            lambda: (self.plan.lookup_batch, self.batches, None))
        add("core.vector.ns_per_lookup", "core.vector",
            lambda: (self.vplan.lookup_batch, arrays(), None))
        add("core.vector.ns_per_lookup_b16", "core.vector.b16",
            lambda: (self.vplan.lookup_batch, small(), None))
        add("core.vector.hops_ns_per_lookup", "core.vector.hops",
            lambda: (self.vplan.lookup_batch_hops, self.batches, None))
        add("engine.ns_per_lookup", "engine", plain)
        add("engine.cache.ns_per_lookup", "engine.cache", cached)

        samples = {metric: [] for metric in rungs}
        for index in range(self.passes):
            for metric, (name, call, batches, before) in list(rungs.items()):
                try:
                    if before is not None:
                        before()
                    lookups = sum(len(batch) for batch in batches)
                    with self.tracer.span(f"rung:{name}", lookups,
                                          f"{name}#{index}"):
                        spent = self.tracer.calls(name, call, batches)
                    samples[metric].append(spent / lookups)
                except Exception as error:
                    self.skip([metric], error)
                    del rungs[metric]
        for metric in rungs:
            self.layers[metric] = best(samples[metric])

    def backend_is_vector(self):
        return {"engine.backend_is_vector":
                    summary([int(self.engine.active_backend == "vector")])}

    def cache_hit_ratio(self):
        hits = self.cached.registry.get("repro_engine_cache_hits_total")
        lookups = self.passes * sum(len(batch) for batch in self.batches)
        return {"engine.cache.hit_ratio":
                    summary([hits.value(engine=self.cached.name) / lookups])}

    def generator_rung(self):
        """The generator and the reaper alone, unpaced, against a server
        that answers at once."""
        requests = self.inputs.pass_requests(0)
        return {"bench.generator.ns_per_lookup": self.loop_rung(
            "bench.generator", lambda traced: closed_loop(
                stub_submit, requests, GENERATOR_WINDOW, traced=traced))}

    def served(self):
        """The untraced run, once, for what only the live server knows."""
        served = serve(self.inputs, self.catalog, self.seconds / 3,
                       quick=self.quick, setups=1, watch=self._watch)
        self.main = served
        rounds = served.rounds
        return {
            "server.request_p99_ms": best([r.p99_ms for r in rounds]),
            "bench.calibration_ms": best(served.calibration_ms),
            "bench.generator.lateness_p95_ms":
                best([r.lateness_p95_ms for r in rounds]),
            "bench.generator.backlog_max":
                summary([r.backlog_max for r in rounds])}

    def _watch(self, server):
        try:
            self._snapshots.append((server.registry.snapshot()["counters"],
                                    server.slo.report()["phases"]))
        except Exception as error:
            self._snapshots.append(error)

    def _watched(self):
        """What ``_watch`` saw where the timed part began and ended."""
        for snapshot in self._snapshots:
            if isinstance(snapshot, Exception):
                raise snapshot
        before, after = self._snapshots
        return before, after

    def _counted(self, name, label=""):
        """A server counter's growth over the timed part of the run."""
        (before, _), (after, _) = self._watched()
        return sum(value - before.get(name, {}).get(labels, 0)
                   for labels, value in after.get(name, {}).items()
                   if label in labels)

    def coalescer_counters(self):
        batches = self._counted("repro_server_batches_total")
        fill = self._counted("repro_server_addresses_total") / batches
        flushes = self._counted("repro_server_flush_total")
        deadline = self._counted("repro_server_flush_total",
                                 'reason="deadline"')
        return {"server.coalescer.batch_fill":
                    summary([fill / SERVING["max_batch"]]),
                "server.coalescer.deadline_flush_share":
                    summary([deadline / flushes])}

    def procpool_bytes(self):
        return {name: summary([self._counted(counter) / self.main.commits])
                for name, counter in (
                    ("server.procpool.delta_bytes_per_commit",
                     "repro_server_delta_bytes_total"),
                    ("server.procpool.snapshot_bytes_per_commit",
                     "repro_server_snapshot_bytes_total"))}

    def slo_phases(self):
        _, (_, phases) = self._watched()
        return {f"server.slo.{phase}_p50_ms":
                    summary([1e3 * phases[phase]["p50_s"]])
                for phase in SLO_PHASES}

    def server_rungs(self):
        """Pool handoff, then the full stack traced and untraced, on one
        server started from the already built structure."""
        server = self.start_server(self.algo)
        try:
            size = SERVING["max_batch"]
            flat = self.inputs.addresses[:POOL_REQUESTS * size]
            if self.quick:
                flat = flat[:len(flat) // 10]
            whole = [flat[i:i + size] for i in range(0, len(flat), size)]
            pool = self.loop_rung("server.pool", lambda traced: closed_loop(
                server.submit, whole, 2, traced=traced))
            run = lambda traced: self.drive(server.submit, traced)
            plain, traced = [], []
            for index in range(self.server_passes):
                plain.append(self.loop_pass(
                    "server.coalescer.untraced", index, run, traced=False))
                traced.append(self.loop_pass("server.coalescer", index, run))
        finally:
            server.close()
        top, bare = best(traced), best(plain)["value"]
        return {
            "server.pool.ns_per_lookup": pool,
            "server.pool.handoff_self_ns": _minus(
                pool["value"], self.value("engine.ns_per_lookup")),
            "server.coalescer.ns_per_lookup": top,
            "server.coalescer.self_ns": _minus(
                top["value"], pool["value"],
                self.value("bench.generator.ns_per_lookup")),
            "bench.trace_overhead_pct":
                summary([100.0 * (top["value"] - bare) / bare])}

    def span_overhead(self):
        """The program's own request spans: everything sampled against
        nothing sampled, passes alternating between two live servers."""
        servers = [self.start_server(self.algo, sample_rate=rate)
                   for rate in (0.0, 1.0)]
        try:
            samples = ([], [])
            for _ in range(self.server_passes):
                for server, into in zip(servers, samples):
                    rnd = self.drive(server.submit)
                    into.append(1e9 * rnd.wall_s / rnd.lookups)
        finally:
            for server in servers:
                server.close()
        none, every = (best(s)["value"] for s in samples)
        return {"obs.span_overhead_pct":
                    summary([100.0 * (every - none) / none])}

    def _replay(self, algo, with_engine):
        managed = ManagedFib(self.inputs.factory, self.inputs.fib, algo=algo)
        engine = BatchEngine.over_managed(
            managed, backend="auto", name="bench-commit") \
            if with_engine else None
        churn = self.inputs.churn()
        samples, outcomes = [], collections.Counter()
        gc.collect()    # as serve() does before its rounds: the spans
        gc.freeze()     # recorded so far would slow every collection
        for _ in range(self.workload.probe_commits):
            ops = next(churn)
            outcomes[_timed(samples, lambda: managed.apply_batch(ops))] += 1
        return [1e3 * s for s in samples], outcomes, engine

    def control_commits(self):
        """``ManagedFib.apply_batch`` alone; consumes the built structure."""
        samples, _, _ = self._replay(self.algo, with_engine=False)
        return {"control.apply_batch_ms": best(samples)}

    def engine_commits(self):
        """The same trace with one engine subscribed, on a fresh build."""
        samples, outcomes, engine = self._replay(
            self.inputs.factory(self.inputs.fib), with_engine=True)
        count = lambda name: engine.registry.get(name).value(engine=engine.name)
        commit = best(samples)
        return {
            "engine.commit_ms": commit,
            "server.quiesce_self_ms": _minus(
                best([r.commit_ms for r in self.main.rounds])["value"],
                commit["value"]),
            "engine.plan_patches":
                summary([count("repro_engine_plan_patches_total")]),
            "engine.plan_recompiles":
                summary([count("repro_engine_plan_recompiles_total")]),
            "control.applied": summary([outcomes["batch_applied"]]),
            "control.rebuilt": summary([outcomes["batch_rebuilt"]])}

    # -- the run ---------------------------------------------------------
    def run(self):
        self.layers.update(self.build())    # nothing below works without it
        self.probe(["artifact.save_s", "artifact.load_s", "artifact.bytes"],
                   self.artifact)
        self.kernel_rungs()
        self.probe(["engine.backend_is_vector"], self.backend_is_vector)
        self.probe(["engine.cache.hit_ratio"], self.cache_hit_ratio)
        self.layers.update(self.served())
        self.probe(["server.coalescer.batch_fill",
                    "server.coalescer.deadline_flush_share"],
                   self.coalescer_counters)
        self.probe(["server.procpool.delta_bytes_per_commit",
                    "server.procpool.snapshot_bytes_per_commit"],
                   self.procpool_bytes)
        self.probe([f"server.slo.{phase}_p50_ms" for phase in SLO_PHASES],
                   self.slo_phases)
        self.probe(["bench.generator.ns_per_lookup"], self.generator_rung)
        self.probe(["server.pool.ns_per_lookup", "server.pool.handoff_self_ns",
                    "server.coalescer.ns_per_lookup",
                    "server.coalescer.self_ns", "bench.trace_overhead_pct"],
                   self.server_rungs)
        self.probe(["obs.span_overhead_pct"], self.span_overhead)
        self.probe(["server.start_s"],
                   lambda: {"server.start_s": summary(self.start_s)})
        self.probe(["control.apply_batch_ms"], self.control_commits)
        self.probe(["engine.commit_ms", "server.quiesce_self_ms",
                    "engine.plan_patches", "engine.plan_recompiles",
                    "control.applied", "control.rebuilt"], self.engine_commits)
        return self.layers

    def table(self):
        """The ladder itself: each rung, its self time, its share."""
        rungs = ["core.vector.ns_per_lookup", "core.vector.hops_ns_per_lookup",
                 "engine.ns_per_lookup", "server.pool.ns_per_lookup",
                 "server.coalescer.ns_per_lookup"]
        if not self.value("engine.backend_is_vector"):
            rungs[:2] = ["core.plan.ns_per_lookup"]
        top = self.value(rungs[-1])
        rows, below = [], 0.0
        for name in rungs:
            value = self.value(name)
            if value is None or top is None:
                continue
            rows.append({"rung": name, "ns_per_lookup": value,
                         "self_ns": value - below,
                         "share_of_top": (value - below) / top})
            below = value
        return rows
