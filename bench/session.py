"""One live server under its workload's traffic: rounds, commits, checks."""

from __future__ import annotations

import statistics
from time import perf_counter

from .loadgen import WAIT_S, closed_loop, open_loop
from .oracle import Oracle, verify
from .report import percentile

WARM_REQUESTS = 200
#: Commits before each round of a workload without churn in the loop.
IDLE_COMMITS = 5
MAX_PRINTED_FAILURES = 10


class RoundStats:
    def __init__(self, rnd, commit_s):
        self.counts = {"requests": len(rnd.requests), "lookups": rnd.lookups,
                       "commits": len(commit_s)}
        self.wall_s = rnd.wall_s
        self.lookups_per_s = rnd.lookups / rnd.wall_s
        self.ns_per_lookup = 1e9 * rnd.wall_s / rnd.lookups
        self.p50_ms = 1e3 * percentile(rnd.latency_s, 0.50)
        self.p95_ms = 1e3 * percentile(rnd.latency_s, 0.95)
        self.p99_ms = 1e3 * percentile(rnd.latency_s, 0.99)
        self.lateness_p95_ms = 1e3 * percentile(rnd.lateness_s, 0.95)
        self.backlog_max = rnd.backlog_max
        # Under load, or on the idle server just before the round.
        self.commit_ms = 1e3 * statistics.median(commit_s)


def drive(workload, requests, submit, traced=False, every=0, tick=None):
    """One pass of the workload's generator against ``submit``."""
    if workload.rate:
        return open_loop(submit, requests, workload.rate, traced=traced)
    return closed_loop(submit, requests, workload.window, every=every,
                       tick=tick, traced=traced)


class Session:
    def __init__(self, inputs, managed, server, corrupt=False):
        self.workload = inputs.workload
        self.inputs = inputs
        self.managed = managed
        self.server = server
        self.oracle = Oracle(inputs.fib, inputs.addresses)
        self.sent = 0
        self.failed = 0
        self.failures = []
        self._churn = inputs.churn()
        self._round = 0
        self._corrupt = corrupt

    def warm(self):
        """First-touch costs, untimed and unchecked."""
        for request in self.inputs.round_requests(0)[:WARM_REQUESTS]:
            self.server.submit(request).result(WAIT_S)

    def run_round(self):
        """One round of the workload's traffic, then the oracle check.

        A workload without churn in the loop commits on the idle server
        first; the round's answers then prove those commits landed.
        """
        workload = self.workload
        requests = self.inputs.round_requests(self._round)
        self._round += 1
        batches = iter([next(self._churn) for _ in range(
            workload.commits_per_round or IDLE_COMMITS)])
        landed, commit_s = [], []

        def commit(i):
            self._commit(next(batches), commit_s, landed)

        if not workload.commit_every:
            for ops in batches:
                self._commit(ops, commit_s, landed)
            for ops in landed:
                self.oracle.commit(ops)
            landed.clear()
        rnd = drive(workload, requests, self.server.submit,
                    every=workload.commit_every, tick=commit)
        self._check(rnd, landed)
        return RoundStats(rnd, commit_s)

    def _commit(self, ops, commit_s, landed):
        start = perf_counter()
        outcome = self.managed.apply_batch(ops)
        commit_s.append(perf_counter() - start)
        if outcome != "batch_rolled_back":
            landed.append(ops)

    def _check(self, rnd, landed):
        failures = verify(self.oracle, rnd, landed, corrupt=self._corrupt)
        self._corrupt = False
        self.sent += len(rnd.requests)
        self.failed += len(failures)
        for failure in failures:
            if len(self.failures) < MAX_PRINTED_FAILURES:
                self.failures.append(failure)
                print(f"FAILED {failure}")

    def counts(self):
        return {"sent": self.sent, "succeeded": self.sent - self.failed,
                "failed": self.failed,
                "failed_share": self.failed / self.sent if self.sent else 0.0}
