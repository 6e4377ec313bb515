"""Soak tests: linearizable serving under concurrent churn and reloads.

N producer threads hammer a :class:`~repro.server.LookupServer` while
the main thread drives managed churn through a scripted capacity guard
that forces a seeded ~35% of batches to *roll back* — interleaving
landed commits with genuine rollbacks.  An
:class:`~repro.server.EpochAudit` snapshots the oracle at every landed
commit, keyed by the serving epoch; afterwards every request is checked
against the snapshot of the epoch its batch executed under.

Proved properties:

  * **zero lost or duplicated responses** — every accepted request
    resolves exactly once (``deliveries == 1``: request size divides
    ``max_batch``, so no request straddles batches);
  * **zero stale or torn reads** — every answer equals the trie
    oracle's answer *at that request's serving epoch*: a batch never
    observes a half-applied or rolled-back update;
  * **rollbacks leave serving untouched** — the epoch does not move on
    a rolled-back batch and subsequent answers still match the last
    landed table;
  * **clean drain** — close() answers everything accepted, the pool
    winds down, and later submits are refused.

Wall-clock is bounded by the suite-wide 120s timeout (pytest-timeout
in CI, the conftest SIGALRM shim offline).
"""

import random
import sys
import threading
import time

import pytest

from repro.algorithms import Bsic
from repro.algorithms.hibst import HiBst
from repro.artifact import ArtifactCatalog
from repro.chaos import ChaosPlan
from repro.control import ChurnGenerator, ManagedFib, RuntimePolicy
from repro.control.runtime import Health
from repro.prefix.prefix import Prefix
from repro.obs.clock import MonotonicClock
from repro.prefix.trie import Fib
from repro.server import (
    EpochAudit,
    LookupServer,
    ServerError,
    ServingHealth,
    serve_workload,
)

WIDTH = 8
PRODUCERS = 4
REQUESTS_PER_PRODUCER = 50
REQUEST_SIZE = 8     # divides MAX_BATCH: no request ever spans batches
MAX_BATCH = 64
CHURN_BATCHES = 40


class ScriptedGuard:
    """A capacity guard that hard-trips on a seeded ~35% of batches.

    ``ManagedFib`` inspects the *new* structure first and, on a trip,
    re-inspects the *committed* one to decide whether the guard clears
    on rollback — so the script answers "trip" once and then "fits"
    for the follow-up call, producing a genuine rolled-back batch with
    the runtime staying serviceable (no terminal FAILED).
    """

    def __init__(self, seed, rate=0.35):
        self._rng = random.Random(seed)
        self._rate = rate
        self._clear_next = False
        self.trips = 0

    def inspect(self, algo):
        if self._clear_next:
            self._clear_next = False
            return [], []  # the committed structure still fits
        if self._rng.random() < self._rate:
            self._clear_next = True
            self.trips += 1
            return [f"scripted capacity trip #{self.trips}"], []
        return [], []


def build_fib(seed=21, size=30):
    rng = random.Random(seed)
    fib = Fib(WIDTH)
    while len(fib) < size:
        length = rng.randint(1, WIDTH)
        fib.insert(Prefix.from_bits(rng.getrandbits(length), length, WIDTH),
                   rng.randint(1, 99))
    return fib


def oracle_answers(oracle):
    return [oracle.lookup(a) for a in range(1 << WIDTH)]


def start_producers(server, seed):
    """PRODUCERS threads each submitting REQUESTS_PER_PRODUCER seeded
    requests; returns ``(threads, produced, failures)``."""
    produced = [[] for _ in range(PRODUCERS)]
    failures = []

    def produce(lane):
        rng = random.Random(seed + lane)
        try:
            for _ in range(REQUESTS_PER_PRODUCER):
                addresses = [rng.randrange(1 << WIDTH)
                             for _ in range(REQUEST_SIZE)]
                produced[lane].append((addresses,
                                       server.submit(addresses)))
        except BaseException as exc:  # noqa: BLE001 — surface in the test
            failures.append(exc)

    threads = [threading.Thread(target=produce, args=(lane,),
                                name=f"producer-{lane}")
               for lane in range(PRODUCERS)]
    for thread in threads:
        thread.start()
    return threads, produced, failures


def check_produced(produced, audit):
    """Every request answered exactly once, from its epoch's table."""
    for lane_requests in produced:
        assert len(lane_requests) == REQUESTS_PER_PRODUCER
        for _addresses, handle in lane_requests:
            hops = handle.result(timeout=60)
            # Exactly one delivery: nothing lost, nothing duplicated.
            assert handle.deliveries == 1
            stale = audit.check(handle, hops)
            assert stale is not None, "request size divides max_batch"
            assert stale == [], (
                f"stale reads (epoch, address, served, oracle): {stale}")
    assert audit.checked == PRODUCERS * REQUESTS_PER_PRODUCER * REQUEST_SIZE
    assert audit.mismatches == audit.straddled == 0


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_serving_is_linearizable_under_churn_and_rollbacks(mode):
    base = build_fib()
    guard = ScriptedGuard(seed=5)
    managed = ManagedFib(lambda fib: HiBst(fib), base, guard=guard,
                         policy=RuntimePolicy(check_every=4))
    workers = 3 if mode == "thread" else 2
    server = LookupServer(managed=managed, workers=workers, mode=mode,
                          max_batch=MAX_BATCH, max_wait_s=0.001)
    audit = EpochAudit(server, managed)

    landed = rolled_back = 0
    with server:
        threads, produced, failures = start_producers(server, seed=100)
        generator = ChurnGenerator(base, seed=9)
        for _ in range(CHURN_BATCHES):
            epoch_before = server.epoch
            outcome = managed.apply_batch(list(generator.ops(4)))
            if outcome == "batch_rolled_back":
                rolled_back += 1
                # Rollback leaves the serving plan untouched.
                assert server.epoch == epoch_before
            else:
                landed += 1
                assert server.epoch == epoch_before + 1
        for thread in threads:
            thread.join()
        server.flush()

        assert not failures, failures
        assert managed.health is not Health.FAILED

        # The scripted guard really interleaved both outcomes.
        assert rolled_back >= 1, "guard script produced no rollbacks"
        assert landed >= 5, "churn produced too few landed commits"
        check_produced(produced, audit)

    # Clean drain: everything answered, workers gone, submits refused.
    assert server.drained()
    with pytest.raises(ServerError):
        server.submit([1])


# ---------------------------------------------------------------------------
# serve_workload: the loop behind `repro serve`, and the audit it shares
# ---------------------------------------------------------------------------


def workload(count, seed=400):
    rng = random.Random(seed)
    return [[rng.randrange(1 << WIDTH) for _ in range(REQUEST_SIZE)]
            for _ in range(count)]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_serve_workload_audits_every_answer_under_churn(mode):
    base = build_fib()
    managed = ManagedFib(lambda fib: HiBst(fib), base)
    server = LookupServer(managed=managed, workers=2, mode=mode,
                          max_batch=MAX_BATCH, max_wait_s=0.001)
    generator = ChurnGenerator(base, seed=9)
    churn = [list(generator.ops(4)) for _ in range(8)]
    report = serve_workload(server, managed, workload(1000), churn=churn)

    assert not report["interrupted"]
    assert report["submitted"] == report["requests"] == 1000
    assert report["shed"] == report["straddled"] == 0
    assert report["checked"] == 1000 * REQUEST_SIZE
    assert report["mismatches"] == 0
    assert report["commits"] == report["epoch"] >= 1
    assert report["serve_s"] > 0
    assert server.drained()


def test_serve_workload_drains_on_interrupt():
    base = build_fib()
    managed = ManagedFib(lambda fib: HiBst(fib), base)
    server = LookupServer(managed=managed, workers=2, max_batch=MAX_BATCH,
                          max_wait_s=0.001)

    def churn():
        yield list(ChurnGenerator(base, seed=9).ops(4))
        raise KeyboardInterrupt  # what SIGINT/SIGTERM raise mid-run

    report = serve_workload(server, managed, workload(5000), churn=churn())

    assert report["interrupted"]
    assert server.drained()
    # Producers stopped early; everything they got accepted was answered
    # (or refused with a typed error) and audited.
    assert 0 < report["submitted"] < report["requests"]
    assert report["checked"] == \
        (report["submitted"] - report["shed"]) * REQUEST_SIZE
    assert report["mismatches"] == 0


def test_epoch_audit_reports_a_corrupted_snapshot():
    """The check can fail: a snapshot that disagrees with what was
    served is reported, address by address."""
    base = build_fib()
    managed = ManagedFib(lambda fib: HiBst(fib), base)
    with LookupServer(managed=managed, workers=1, max_batch=MAX_BATCH,
                      max_wait_s=0.001) as server:
        audit = EpochAudit(server, managed)
        managed.apply_batch(list(ChurnGenerator(base, seed=9).ops(4)))
        assert server.epoch == 1 and sorted(audit.snapshots) == [0, 1]
        handle = server.submit(list(range(MAX_BATCH)))
        hops = handle.result(timeout=60)
    assert audit.check(handle, hops) == []
    assert (audit.checked, audit.mismatches) == (MAX_BATCH, 0)

    audit.snapshots[1].insert(Prefix.from_bits(5, WIDTH, WIDTH), 100)
    assert audit.check(handle, hops) == [(1, 5, hops[5], 100)]
    assert audit.mismatches == 1


# ---------------------------------------------------------------------------
# BSIC: deltas mutate the live structure before the gate is taken
# ---------------------------------------------------------------------------


class ProbingGuard(ScriptedGuard):
    """A scripted guard that also *reads through the server* each time
    the runtime consults it.

    With a delta-capable scheme the guard runs while the batch sits
    applied to the live structure but not yet committed (and again
    right after a hard trip rolled it back in place) — the widest
    window in which a compiled plan with live table readers would
    answer from a table the serving epoch does not have yet.
    """

    def __init__(self, seed, rate=0.35):
        super().__init__(seed, rate)
        self.audit = None
        self.probes = self.torn = 0

    def inspect(self, algo):
        if self.audit is not None:
            server = self.audit.server
            got = server.lookup_batch(list(range(1 << WIDTH)), timeout=60)
            committed = self.audit.snapshots[server.epoch]
            self.probes += 1
            self.torn += sum(g != w for g, w in
                             zip(got, oracle_answers(committed)))
        return super().inspect(algo)


def test_bsic_delta_is_invisible_until_the_commit_gate():
    """Thread mode, commits under load: BSIC batches land in place
    (and ~35% roll back in place) while producers keep reading.  No
    request may be lost, duplicated, or answered from any table but
    its epoch's — in particular not from a half-applied delta."""
    base = build_fib()
    guard = ProbingGuard(seed=5)
    managed = ManagedFib(lambda fib: Bsic(fib, k=4), base, guard=guard,
                         policy=RuntimePolicy(check_every=4))
    server = LookupServer(managed=managed, workers=3, mode="thread",
                          max_batch=MAX_BATCH, max_wait_s=0.001)
    audit = EpochAudit(server, managed)
    outcomes = []
    with server:
        guard.audit = audit
        threads, produced, failures = start_producers(server, seed=200)
        generator = ChurnGenerator(base, seed=9)
        for _ in range(CHURN_BATCHES):
            outcomes.append(managed.apply_batch(list(generator.ops(4))))
        for thread in threads:
            thread.join()
        server.flush()
        guard.audit = None

        assert not failures, failures
        assert managed.health is not Health.FAILED
        assert outcomes.count("batch_applied") >= 5, outcomes
        assert outcomes.count("batch_rolled_back") >= 1, outcomes
        assert "batch_rebuilt" not in outcomes  # every commit was a delta
        assert guard.probes >= CHURN_BATCHES and guard.torn == 0
        check_produced(produced, audit)
    counters = managed.registry.snapshot()["counters"]
    assert sum(counters["repro_engine_plan_patches_total"].values()) > 0
    assert server.drained()


def test_bsic_process_worker_kill_resyncs_then_chains_deltas():
    """Process mode: BSIC commits ship as deltas; a killed worker is
    restarted from a full snapshot and later deltas chain onto it."""
    base = build_fib(seed=23, size=40)
    managed = ManagedFib(lambda fib: Bsic(fib, k=4), base,
                         policy=RuntimePolicy(check_every=0, guard_every=0))
    chaos = ChaosPlan([], script=[("kill", 0, 2)])
    addresses = list(range(1 << WIDTH))

    def total(metric):
        counters = managed.registry.snapshot()["counters"]
        return sum(counters.get(metric, {}).values())

    def served_equals_oracle():
        assert server.lookup_batch(addresses, timeout=60) == \
            oracle_answers(managed.oracle)

    batches = list(ChurnGenerator(base, seed=23).batches(40, 8))
    with LookupServer(managed=managed, workers=2, mode="process",
                      max_batch=MAX_BATCH, chaos=chaos) as server:
        for batch in batches[:-1]:
            assert managed.apply_batch(batch) == "batch_applied"
            for _ in range(2):  # march worker 0 toward the scripted kill
                served_equals_oracle()
        deadline = time.monotonic() + 30
        while total("repro_server_restarts_total") < 1:
            assert time.monotonic() < deadline, "worker never restarted"
            served_equals_oracle()
        snapshot_bytes = total("repro_server_snapshot_bytes_total")
        assert managed.apply_batch(batches[-1]) == "batch_applied"
        for _ in range(4):  # enough batches to reach both workers
            served_equals_oracle()
        # The post-restart commit shipped as a delta, not a snapshot.
        assert total("repro_server_snapshot_bytes_total") == snapshot_bytes
    assert total("repro_server_worker_deaths_total") >= 1
    assert total("repro_server_delta_bytes_total") > 0


# ---------------------------------------------------------------------------
# Blue/green artifact reloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_blue_green_reload_is_linearizable_under_load(mode, tmp_path):
    """Producers hammer the server while the main thread flips between
    catalog artifact versions (with churn landed on each loaded base).

    Every request must answer exactly once, entirely within one epoch,
    and bit-exactly against the oracle *of that epoch* — a reload never
    loses, duplicates, tears or stales a read, and churn applied after
    a reload lands on the loaded base, not the pre-reload one.
    """
    versions = {}
    catalog = ArtifactCatalog(str(tmp_path))
    for seed in (21, 22, 23):
        fib = build_fib(seed=seed, size=30)
        versions[catalog.save("soak", HiBst(fib), fib)] = fib

    base = versions["v001"]
    managed = ManagedFib(lambda fib: HiBst(fib), base)
    workers = 3 if mode == "thread" else 2
    server = LookupServer(managed=managed, workers=workers, mode=mode,
                          max_batch=MAX_BATCH, max_wait_s=0.001)
    audit = EpochAudit(server, managed)

    with server:
        threads, produced, failures = start_producers(server, seed=300)
        reloads = 0
        for cycle, version in enumerate(["v002", "v003", "v001", "v002"]):
            loaded = catalog.load("soak", version)
            epoch = server.reload_artifact(loaded)
            reloads += 1
            assert server.epoch == epoch
            # reload_artifact does not re-fire commit listeners (it is
            # not a churn commit); record the flipped oracle manually.
            audit.record()
            # Churn lands on the *loaded* base — the managed runtime
            # adopted the artifact's FIB as its new oracle.
            generator = ChurnGenerator(managed.oracle, seed=40 + cycle)
            for _ in range(3):
                managed.apply_batch(list(generator.ops(4)))
        for thread in threads:
            thread.join()
        server.flush()

        assert not failures, failures
        assert managed.health is not Health.FAILED
        assert reloads == 4

        check_produced(produced, audit)

    assert server.drained()
    counters = server.registry.snapshot()["counters"]
    commits = counters.get("repro_server_commits_total", {})
    assert sum(count for labels, count in commits.items()
               if "reload" in str(labels)) == 4


def test_worker_death_mid_reload_restarts_from_new_version(tmp_path):
    """Chaos: a process worker killed during a blue/green flip must be
    restarted from the NEW catalog version — the parent swaps its
    artifact path before shipping, so the re-fork can never resurrect
    the old table."""
    catalog = ArtifactCatalog(str(tmp_path))
    old_fib = build_fib(seed=31, size=30)
    new_fib = build_fib(seed=32, size=30)
    catalog.save("chaos", HiBst(old_fib), old_fib)           # v001
    catalog.save("chaos", HiBst(new_fib), new_fib)           # v002
    loaded_old = catalog.load("chaos", "v001")

    managed = ManagedFib(lambda fib: HiBst(fib), old_fib)
    # Lenient health: this test is about the restart's snapshot version,
    # and host load must not be able to push the server into BROWNOUT
    # shedding meanwhile.
    lenient = ServingHealth(
        MonotonicClock(), queue_capacity=32,
        degraded_restarts=10, brownout_restarts=20,
        degraded_miss_rate=1.1, brownout_miss_rate=1.1,
        degraded_depth=100.0, brownout_depth=200.0)
    server = LookupServer(managed=managed, workers=2, mode="process",
                          max_batch=MAX_BATCH, max_wait_s=0.001,
                          artifact=str(loaded_old.path), health=lenient)
    addresses = list(range(1 << WIDTH))
    with server:
        assert server.lookup_batch(addresses, timeout=60) == \
            [old_fib.lookup(a) for a in addresses]

        replica = server.engines()[0]
        source = replica.source
        note_ship = source._on_ship
        killed = []

        def kill_at_ship(kind, nbytes):
            # The ship point: the parent has already swapped in the new
            # artifact path and is about to send the reload message.
            if kind == "reload":
                killed.append(replica.kill())
            note_ship(kind, nbytes)

        source._on_ship = kill_at_ship
        loaded_new = catalog.load("chaos", "v002")
        epoch = server.reload_artifact(loaded_new)
        assert killed == [True]
        assert epoch == 1

        # The batch that finds worker 0 dead is re-queued and the
        # supervisor re-forks it; the re-fork must mmap the v002
        # snapshot the parent installed before shipping.
        want = [new_fib.lookup(a) for a in addresses]
        counters = server.registry.snapshot
        deadline = time.monotonic() + 30
        while not counters()["counters"].get("repro_server_restarts_total"):
            assert time.monotonic() < deadline, "worker 0 never restarted"
            assert server.lookup_batch(addresses, timeout=60) == want
        for _ in range(6):  # enough batches to hit every worker
            assert server.lookup_batch(addresses, timeout=60) == want
        assert managed.health is not Health.FAILED
    assert server.drained()


def test_shed_overload_never_hangs_a_caller():
    """Under the shed policy a refused request fails fast — callers
    always get an answer or an error, never a hang."""
    base = build_fib(seed=3)
    server = LookupServer(HiBst(base), workers=1, max_batch=4,
                          max_wait_s=0.001, queue_depth=1, overload="shed")
    answered = shed = 0
    with server:
        handles = [server.submit([a % 256 for a in range(i, i + 4)])
                   for i in range(200)]
        server.flush()
        for handle in handles:
            try:
                hops = handle.result(timeout=60)
            except ServerError:
                shed += 1
                continue
            answered += 1
            assert hops == [base.lookup(a) for a in handle.addresses]
    assert answered + shed == 200
    assert answered > 0
    counters = server.registry.snapshot()["counters"]
    shed_total = sum(counters.get("repro_server_shed_total", {}).values())
    assert (shed_total > 0) == (shed > 0)


def test_idle_cuts_race_submitters_without_loss():
    """The idle trigger cuts from submitters and from workers going
    idle.  Four workers (more than the cores) over a one-slot blocking
    queue, four producers alternating pauses and bursts, a 1 µs switch
    interval: every request is answered from the table exactly once,
    and some batches were cut idle."""
    base = build_fib(seed=9)
    server = LookupServer(HiBst(base), workers=4, max_batch=512,
                          max_wait_s=0.002, queue_depth=1, overload="block")
    produced = [[] for _ in range(PRODUCERS)]
    failures = []

    def produce(lane):
        rng = random.Random(90 + lane)
        pause = threading.Event()
        try:
            for i in range(REQUESTS_PER_PRODUCER * 2):
                if i % 10 < 5:   # five sparse requests, then a burst
                    pause.wait(rng.uniform(0.0, 0.002))
                addresses = [rng.randrange(1 << WIDTH)
                             for _ in range(REQUEST_SIZE)]
                produced[lane].append((addresses,
                                       server.submit(addresses)))
        except BaseException as exc:  # noqa: BLE001 — surface in the test
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with server:
            threads = [threading.Thread(target=produce, args=(lane,))
                       for lane in range(PRODUCERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            for lane_requests in produced:
                for addresses, handle in lane_requests:
                    assert handle.result(timeout=60) == \
                        [base.lookup(a) for a in addresses]
                    assert handle.deliveries == 1
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert sum(map(len, produced)) == PRODUCERS * REQUESTS_PER_PRODUCER * 2
    flushes = server.registry.get("repro_server_flush_total")
    assert flushes.value(server="server", reason="idle") > 0
    assert not server.pool.alive()
