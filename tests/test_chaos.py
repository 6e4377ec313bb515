"""Unit tests for the chaos harness (:mod:`repro.chaos`).

The plan tests prove the scheduling contract — every fault decision is
a pure function of ``(name, seed, worker, seq)`` — and the soak tests
run the real harness end-to-end in both pool modes at a small request
count (the CI soak at full size runs through ``make chaos``).
"""

import pytest

from repro.chaos import (
    ALL_CHAOS,
    AckDropFault,
    ChaosBatchFault,
    ChaosEngine,
    ChaosPlan,
    CommitStallFault,
    SoakFailure,
    WorkerKillFault,
    run_chaos_soak,
)
from repro.control.faults import ALL_FAULTS, FaultPlan
from repro.server import WorkerCrash


class CountingEngine:
    def __init__(self):
        self.calls = 0

    def lookup_batch(self, addresses):
        self.calls += 1
        return [None] * len(addresses)

    def on_commit(self, outcome, algo, touched, delta=None):
        self.committed = outcome


# ---------------------------------------------------------------------------
# ChaosPlan scheduling
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_decisions_are_pure_functions_of_the_key(self):
        a = ChaosPlan.build(sorted(ALL_CHAOS), seed=5)
        b = ChaosPlan.build(sorted(ALL_CHAOS), seed=5)
        # Same (worker, seq) keys in a different query order: identical.
        keys = [(w, s) for w in range(3) for s in range(50)]
        got_a = {k: (a.batch_action(*k), a.ack_action(*k)) for k in keys}
        got_b = {k: (b.batch_action(*k), b.ack_action(*k))
                 for k in reversed(keys)}
        assert got_a == got_b
        # A different seed reshuffles the schedule.
        c = ChaosPlan.build(sorted(ALL_CHAOS), seed=6)
        got_c = {k: (c.batch_action(*k), c.ack_action(*k)) for k in keys}
        assert got_a != got_c

    def test_rate_zero_never_fires_rate_one_always(self):
        silent = ChaosPlan.build(["worker_kill"], seed=0, rate=0.0)
        noisy = ChaosPlan.build(["worker_kill"], seed=0, rate=1.0)
        assert all(silent.batch_action(w, s) is None
                   for w in range(2) for s in range(20))
        assert all(noisy.batch_action(w, s) == "crash"
                   for w in range(2) for s in range(20))

    def test_script_triggers_exactly(self):
        plan = ChaosPlan([], script=[("kill", 1, 7), ("raise", 0, 3),
                                     ("ack_drop", 2, 1), ("ack_delay", 0, 0)])
        assert plan.batch_action(1, 7) == "crash"
        assert plan.batch_action(0, 3) == "raise"
        assert plan.batch_action(1, 6) is None
        assert plan.ack_action(2, 1) == (0.0, True)
        delay_s, drop = plan.ack_action(0, 0)
        assert delay_s > 0 and not drop
        assert plan.ack_action(2, 2) is None

    def test_script_wins_over_rate_injectors(self):
        plan = ChaosPlan([WorkerKillFault(seed=0, rate=0.0)],
                         script=[("kill", 0, 0)])
        assert plan.batch_action(0, 0) == "crash"

    def test_rejects_unknown_names_and_script_kinds(self):
        with pytest.raises(ValueError, match="unknown chaos faults"):
            ChaosPlan.build(["no_such_fault"], seed=0)
        with pytest.raises(ValueError, match="unknown script kind"):
            ChaosPlan([], script=[("explode", 0, 0)])

    def test_commit_stall_takes_the_max(self):
        plan = ChaosPlan([CommitStallFault(seed=0, rate=1.0, stall_s=0.01),
                          CommitStallFault(seed=1, rate=1.0, stall_s=0.03)])
        assert plan.commit_stall(0) == 0.03
        assert ChaosPlan.none().commit_stall(0) == 0.0

    def test_registry_mirrors_the_control_plane_idiom(self):
        # Same named-registry + seeded build() contract as FaultPlan.
        assert set(ALL_CHAOS) == {"worker_kill", "batch_exception",
                                  "ack_delay", "ack_drop", "commit_stall"}
        assert not set(ALL_CHAOS) & set(ALL_FAULTS)  # disjoint namespaces
        fault_plan = FaultPlan.build(sorted(ALL_FAULTS), seed=1)
        chaos_plan = ChaosPlan.build(sorted(ALL_CHAOS), seed=1)
        assert fault_plan.names() == sorted(ALL_FAULTS)
        assert [i.name for i in chaos_plan.injectors] == sorted(ALL_CHAOS)

    def test_ack_drop_fault_shape(self):
        drop = AckDropFault(seed=0, rate=1.0)
        assert drop.ack_action(0, 0) == (0.0, True)


# ---------------------------------------------------------------------------
# ChaosEngine (thread-mode adapter)
# ---------------------------------------------------------------------------


class TestChaosEngine:
    def test_kill_raises_worker_crash_before_executing(self):
        inner = CountingEngine()
        engine = ChaosEngine(inner, ChaosPlan([], script=[("kill", 0, 1)]),
                             worker=0)
        engine.lookup_batch([1])  # seq 0: clean
        with pytest.raises(WorkerCrash):
            engine.lookup_batch([2])  # seq 1: scripted kill
        assert inner.calls == 1  # the killed batch never executed

    def test_raise_throws_retry_safe_fault(self):
        engine = ChaosEngine(CountingEngine(),
                             ChaosPlan([], script=[("raise", 0, 0)]),
                             worker=0)
        with pytest.raises(ChaosBatchFault) as info:
            engine.lookup_batch([1])
        assert info.value.retry_safe

    def test_sequence_survives_across_calls_and_delegates(self):
        inner = CountingEngine()
        engine = ChaosEngine(inner, ChaosPlan.none(), worker=3)
        for _ in range(5):
            engine.lookup_batch([1, 2])
        assert engine._seq == 5 and inner.calls == 5
        engine.on_commit("batch_applied", None, [])  # __getattr__ delegation
        assert inner.committed == "batch_applied"
        # Every wrapper of one engine hands out the same commit hook.
        other = ChaosEngine(inner, ChaosPlan.none(), worker=4)
        assert other.on_commit == engine.on_commit == inner.on_commit


# ---------------------------------------------------------------------------
# The soak, end to end (small, deterministic)
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def test_thread_soak_holds_all_invariants(self):
        report = run_chaos_soak(mode="thread", workers=2, requests=60,
                                seed=3)
        assert report["ok"]
        assert report["lost"] == report["duplicated"] == report["stale"] == 0
        assert report["unresolved_after_close"] == 0
        assert report["final_alive_workers"] == 2
        assert report["answered"] > 0
        # 60 requests resolve a median, not a p99 or a p999: those
        # would be the maximum, so they are withheld.
        latency = report["latency"]
        assert 0 < latency["samples"] <= 60
        assert latency["request_p50_s"] is not None
        assert latency["request_p99_s"] is None
        assert latency["request_p999_s"] is None

    def test_soak_invariants_hold_across_reruns(self):
        # Batch *boundaries* vary with thread scheduling, so death
        # counts can differ run to run — but the invariants (and the
        # configuration echo) must hold on every rerun of a seed.
        a = run_chaos_soak(mode="thread", workers=2, requests=60, seed=3)
        b = run_chaos_soak(mode="thread", workers=2, requests=60, seed=3)
        for report in (a, b):
            assert report["ok"]
            assert report["lost"] == report["duplicated"] \
                == report["stale"] == 0
        for key in ("requests", "chaos", "script", "seed", "workers"):
            assert a[key] == b[key]

    def test_process_soak_holds_all_invariants(self):
        report = run_chaos_soak(mode="process", workers=2, requests=40,
                                seed=1)
        assert report["ok"]
        assert report["lost"] == report["duplicated"] == report["stale"] == 0
        assert report["final_alive_workers"] == 2

    def test_scripted_kill_forces_a_restart(self):
        report = run_chaos_soak(mode="thread", workers=2, requests=40,
                                seed=0, chaos=[], script=[("kill", 1, 2)])
        assert report["ok"]
        assert report["worker_deaths"] == 1
        assert report["worker_restarts"] == 1

    def test_request_size_must_divide_max_batch(self):
        with pytest.raises(ValueError, match="request_size"):
            run_chaos_soak(request_size=7, max_batch=64)

    def test_soak_failure_carries_the_report(self):
        # An impossible invariant setup: kill both workers' every batch
        # with a zero restart budget, so nothing can be answered.
        from repro.server import RestartPolicy  # noqa: F401 (doc anchor)
        with pytest.raises(SoakFailure) as info:
            run_chaos_soak(mode="thread", workers=1, requests=10, seed=0,
                           chaos=["worker_kill"], rate=1.0,
                           deadline_s=0.2)
        report = info.value.args[1]
        assert report["ok"] is False
        assert report["failures"]
