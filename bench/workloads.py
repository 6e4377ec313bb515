"""The four workloads: their tables, traffic, churn and server set-up.

Every workload serves through the configuration ``repro serve
--workers 2`` gives a user (:data:`SERVING`).  The tables are fixed
(default synthesis seeds); ``--seed`` drives the address stream and the
churn trace only, and the program sees nothing but those inputs.

Work per round is fixed, so commit counts and epochs per round repeat
exactly; how many rounds fit is set by ``--seconds``.  Rounds are short
(a quarter of a second of traffic) because the host's speed changes
every few seconds: a value is then read from the rounds that fell into
its fast spells (``report.best``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.algorithms import Bsic, Resail
from repro.artifact import ArtifactCatalog
from repro.control import CALM, ChurnGenerator, ManagedFib
from repro.datasets import (
    matching_addresses,
    skewed_addresses,
    synthesize_as65000,
    synthesize_as131072,
)
from repro.server import LookupServer

from .loadgen import WAIT_S

SERVING = dict(workers=2, max_batch=512, max_wait_s=0.002, backend="auto",
               cache_size=0)

FIB_SCALE = 0.05
CHURN_OPS = 25          # routing updates per commit
ARTIFACT = "bench"      # catalog name of the warm-start snapshot
#: Requests of distinct traffic generated up front; rounds cycle through it.
STREAM_REQUESTS = 12_000


@dataclass(frozen=True)
class Workload:
    name: str               # BENCHMARK.json says why each one exists
    family: str            # "v4": RESAIL over AS65000; "v6": BSIC over AS131072
    stream: str            # "zipf": skewed_addresses; "spread": matching_addresses
    mode: str              # LookupServer mode
    warm_start: bool       # set up from a saved artifact instead of a build
    request_size: int      # addresses per request
    requests: int          # requests per round
    pass_requests: int     # requests per pass of the traced run's server rungs
    window: int = 0        # closed loop: requests kept outstanding
    rate: float = 0.0      # open loop: requests per second
    commit_every: int = 0  # a churn commit in the middle of every run of
                           # this many requests; 0: commits land on the idle
                           # server between the rounds
    probe_commits: int = 20  # commits replayed by the control/engine probes

    @property
    def commits_per_round(self):
        if not self.commit_every:
            return 0
        return len(range(self.commit_every // 2, self.requests,
                         self.commit_every))

    def quick(self):
        """A tenth of the work, for the smoke test."""
        return replace(
            self, requests=self.requests // 10,
            pass_requests=self.pass_requests // 10,
            commit_every=self.commit_every // 10,
            probe_commits=max(2, self.probe_commits // 4))


WORKLOADS = (
    Workload(
        name="v4-zipf-saturate-thread",
        family="v4", stream="zipf", mode="thread", warm_start=False,
        request_size=16, requests=2_500, pass_requests=5_000, window=64),
    Workload(
        name="v4-spread-trickle-thread",
        family="v4", stream="spread", mode="thread", warm_start=False,
        request_size=4, requests=500, pass_requests=1_000, rate=2_000.0),
    Workload(
        name="v4-zipf-churn-process",
        family="v4", stream="zipf", mode="process", warm_start=True,
        request_size=16, requests=3_000, pass_requests=5_000, window=64,
        commit_every=1_000),
    Workload(
        name="v6-spread-churn-thread",
        family="v6", stream="spread", mode="thread", warm_start=False,
        request_size=16, requests=3_000, pass_requests=1_500, window=64,
        commit_every=3_000, probe_commits=4),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def _resail(fib):
    return Resail(fib, min_bmp=13)


def _bsic(fib):
    return Bsic(fib, k=24)


class Inputs:
    """The table plus everything generated from ``--seed``."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        if workload.family == "v4":
            self.fib = synthesize_as65000(scale=FIB_SCALE)
            self.factory = _resail
        else:
            self.fib = synthesize_as131072(scale=FIB_SCALE)
            self.factory = _bsic
        size = workload.request_size
        rounds = max(2, STREAM_REQUESTS // workload.requests)
        draw = skewed_addresses if workload.stream == "zipf" \
            else matching_addresses
        self.addresses = draw(self.fib, rounds * workload.requests * size,
                              seed=seed)
        self.requests = [self.addresses[i:i + size]
                         for i in range(0, len(self.addresses), size)]
        self._rounds = rounds

    def round_requests(self, index):
        first = index % self._rounds * self.workload.requests
        return self.requests[first:first + self.workload.requests]

    def pass_requests(self, index):
        """The traffic of one pass of a traced server rung."""
        count = self.workload.pass_requests
        first = index % max(1, len(self.requests) // count) * count
        return self.requests[first:first + count]

    def churn(self):
        """A fresh iterator over the seeded churn trace, one commit each."""
        generator = ChurnGenerator(self.fib, seed=self.seed, profile=CALM)
        return generator.batches(1 << 40, CHURN_OPS)


def save_artifact(inputs, root):
    """Snapshot a built structure for the warm-start workload."""
    algo = inputs.factory(inputs.fib)
    catalog = ArtifactCatalog(root)
    catalog.save(ARTIFACT, algo, inputs.fib,
                 vector_plan=algo.compile_vector_plan())
    return catalog


def set_up(inputs, catalog=None):
    """Built table in hand -> a started server that has answered once.

    Cold: build the structure inside ``ManagedFib`` and let the server
    compile its replicas.  Warm: map the artifact, import the structure,
    and hand the snapshot path to the process workers.
    """
    workload = inputs.workload
    if workload.warm_start:
        loaded = catalog.load(ARTIFACT)
        managed = ManagedFib(inputs.factory, inputs.fib,
                             algo=loaded.algorithm())
        server = LookupServer(managed=managed, mode=workload.mode,
                              artifact=str(loaded.path), **SERVING)
    else:
        managed = ManagedFib(inputs.factory, inputs.fib)
        server = LookupServer(managed=managed, mode=workload.mode, **SERVING)
    server.start()
    server.submit(inputs.round_requests(0)[0]).result(WAIT_S)
    return managed, server
