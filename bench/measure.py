"""The untraced run: set-ups, warm-up, timed rounds, end-to-end metrics."""

from __future__ import annotations

import gc
import resource
from time import perf_counter

from .report import best, summary
from .session import Session
from .workloads import set_up

SETUPS = 3              # the median is reported, the last server is kept
#: Load applied before the first timed round.  On two cores the kernel
#: takes about two seconds to spread the server's threads over both, and
#: throughput halves when it does; the steady state is what users get.
WARMUP_S = 2.5
MIN_ROUNDS = 3
QUICK_ROUNDS = 2
#: The calibration loop, timed before every set-up and every timed round
#: while the server idles.  It says how fast the host ran (1.6 ms at its
#: fast level, 2.0 ms at its slow one) and is reported beside the
#: metrics; nothing is scaled by it (that was tried: it adds more spread
#: than it removes).
CALIBRATION_LOOPS = 40_000


def calibrate():
    """Milliseconds one pass of a fixed pure-Python loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i & 7
    return 1e3 * (perf_counter() - start)


class Served:
    """Everything the untraced run observed."""

    def __init__(self):
        self.setup_s = []
        self.rounds = []        # RoundStats of the timed rounds
        self.calibration_ms = []
        self.commits = 0        # commits during them
        self.counts = {}
        self.failures = []
        self.peak_rss_mb = 0.0


def serve(inputs, catalog, seconds, quick=False, setups=SETUPS, corrupt=False,
          watch=None):
    """Run the workload against a fresh server; the server is closed on
    return so that process workers are reaped before memory is read.

    ``watch(server)`` is called where the timed part begins and again
    where it ends (the traced run reads the server's own counters there;
    this function touches nothing but the serving API).
    """
    workload = inputs.workload
    warm_s, min_rounds = WARMUP_S, MIN_ROUNDS
    if quick:       # fixed counts, whatever they take: one set-up, 1+2 rounds
        setups, warm_s, min_rounds, seconds = 1, 0.0, QUICK_ROUNDS, 0.0
    out = Served()
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.close()
            gc.collect()
            out.calibration_ms.append(calibrate())
            start = perf_counter()
            managed, server = set_up(inputs, catalog)
            out.setup_s.append(perf_counter() - start)
        session = Session(inputs, managed, server, corrupt=corrupt)
        gc.collect()
        gc.freeze()
        session.warm()

        loaded = session.run_round().wall_s
        while loaded < warm_s:
            loaded += session.run_round().wall_s
        if watch is not None:
            watch(server)
        measured = 0.0
        while len(out.rounds) < min_rounds or measured < seconds:
            out.calibration_ms.append(calibrate())
            stats = session.run_round()
            out.rounds.append(stats)
            measured += stats.wall_s
        out.commits = sum(r.counts["commits"] for r in out.rounds)
        if watch is not None:
            watch(server)
        out.counts = session.counts()
        out.failures = session.failures
    finally:
        if server is not None:
            server.close()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.mode == "process":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.peak_rss_mb = usage / 1024.0
    return out


def end_to_end(served):
    """The metrics a user of the server would see, by BENCHMARK.json name."""
    rounds = served.rounds
    return {
        "setup_s": summary(served.setup_s),
        "lookups_per_s": best([r.lookups_per_s for r in rounds], higher=True),
        "request_p50_ms": best([r.p50_ms for r in rounds]),
        "request_p95_ms": best([r.p95_ms for r in rounds]),
        "commit_p50_ms": best([r.commit_ms for r in rounds]),
        "peak_rss_mb": summary([served.peak_rss_mb]),
    }
