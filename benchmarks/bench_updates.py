"""Extension experiment: incremental update cost (Appendix A.3).

The paper ranks update friendliness qualitatively: RESAIL and MASHUP
update in place; BSIC must rebuild from an auxiliary database.  Two
benches check that ranking:

* ``test_update_costs`` replays one BGP-like churn trace (from the
  shared :mod:`repro.control.churn` generator — announcements,
  withdrawals, next-hop modifies, flap storms) against the raw
  structures and times each scheme.
* ``test_managed_churn_fault_ranking`` drives the same schemes through
  the managed runtime with every fault injector armed, and checks that
  all three absorb the churn as in-place deltas — BSIC by re-deriving
  only the touched slices (Appendix A.3.2's "affected structures") —
  with no planned rebuild, and that nobody ever diverges from the
  oracle.
* ``test_churn_under_serving`` is the incremental-commit gate: the
  same churn committed through the delta path (in-place
  ``apply_delta`` + plan patching) must beat the legacy
  copy-and-recompile path (RESAIL, IPv4) and the forced per-batch
  rebuild (BSIC k=24, IPv6) by at least 5x per commit, while a batch
  engine keeps serving lookups between batches.
"""

import os
import time

from _bench_utils import emit

from repro.algorithms import Bsic, Mashup, Resail
from repro.analysis import Table
from repro.control import (
    ALL_FAULTS,
    ANNOUNCE,
    CALM,
    ChurnGenerator,
    FaultPlan,
    Health,
    ManagedFib,
    churn_trace,
)
from repro.control import RuntimePolicy
from repro.datasets import (matching_addresses, synthesize_as65000,
                            synthesize_as131072, uniform_addresses)
from repro.engine import BatchEngine
from repro.prefix import Fib

CHURN = 60
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def test_update_costs(benchmark):
    base = synthesize_as65000(scale=0.002)
    oracle = Fib(32, list(base))
    algos = {
        "RESAIL": Resail(oracle, min_bmp=13, hash_capacity=1 << 16),
        "MASHUP": Mashup(oracle, (16, 4, 4, 8)),
        "BSIC": Bsic(oracle, k=16),
    }
    # The ops are valid by construction (withdrawals name live routes),
    # so they can be applied directly to the raw structures.
    trace = churn_trace(base, CHURN, seed=41, profile=CALM)
    probes = uniform_addresses(32, 64, seed=42)

    def replay():
        times = {name: 0.0 for name in algos}
        for op in trace:
            prefix = op.resolve()
            for name, algo in algos.items():
                start = time.perf_counter()
                if op.action == ANNOUNCE:
                    algo.insert(prefix, op.next_hop)
                else:
                    algo.delete(prefix)
                times[name] += time.perf_counter() - start
            if op.action == ANNOUNCE:
                oracle.insert(prefix, op.next_hop)
            else:
                oracle.delete(prefix)
            for address in probes:
                want = oracle.lookup(address)
                for name, algo in algos.items():
                    assert algo.lookup(address) == want, (name, op.render())
        return times

    times = benchmark.pedantic(replay, rounds=1, iterations=1)
    table = Table(f"Update cost over {len(trace)} BGP-like changes",
                  ["Scheme", "Total (s)", "Per update (ms)"])
    for name, seconds in sorted(times.items(), key=lambda kv: kv[1]):
        table.add_row(name, f"{seconds:.3f}", f"{seconds / len(trace) * 1e3:.2f}")
    emit("update_costs", table.render(),
         values={"churn_ops": len(trace), "probes": len(probes)},
         timings={"per_scheme_total_s": times})

    # Appendix A.3's ordering: RESAIL's in-place writes are cheapest;
    # BSIC re-derives one slice's BST per route, MASHUP re-hybridizes.
    assert times["RESAIL"] < times["BSIC"] < times["MASHUP"]


def test_managed_churn_fault_ranking(benchmark):
    """Managed churn with all faults: every scheme lands batches in
    place (BSIC slice by slice), nobody takes a planned rebuild, nobody
    diverges."""
    base = synthesize_as65000(scale=0.002)
    schemes = [
        ("RESAIL", lambda fib: Resail(fib, min_bmp=13, hash_capacity=1 << 16)),
        ("MASHUP", lambda fib: Mashup(fib, (16, 4, 4, 8))),
        ("BSIC", lambda fib: Bsic(fib, k=16)),
    ]
    ops, batch_size, seed = 400, 25, 17

    def run():
        results = {}
        for name, factory in schemes:
            managed = ManagedFib(
                factory, base,
                faults=FaultPlan.build(sorted(ALL_FAULTS), seed=seed),
                check_seed=seed,
            )
            generator = ChurnGenerator(base, seed=seed)
            for batch in generator.batches(ops, batch_size):
                managed.apply_batch(batch)
            managed.log.check_accounting()
            managed.log.check_registry_consistency()
            results[name] = managed
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(f"Managed churn, {ops} ops + all faults",
                  ["Scheme", "Applied", "Rebuilt", "Rolled back",
                   "Planned/recovery rebuilds", "Health"])
    for name, managed in results.items():
        log = managed.log
        table.add_row(
            name,
            str(log.count("batch_applied")),
            str(log.count("batch_rebuilt")),
            str(log.count("batch_rolled_back")),
            f"{log.count('rebuild_planned')}/{log.count('rebuild_recovery')}",
            str(managed.health),
        )
    emit("update_fault_ranking", table.render(),
         values={
             name: {
                 "applied": managed.log.count("batch_applied"),
                 "rebuilt": managed.log.count("batch_rebuilt"),
                 "rolled_back": managed.log.count("batch_rolled_back"),
                 "rebuild_planned": managed.log.count("rebuild_planned"),
                 "rebuild_recovery": managed.log.count("rebuild_recovery"),
                 "health": str(managed.health),
                 "metrics": managed.registry.snapshot(),
             }
             for name, managed in results.items()
         },
         timings={
             "per_scheme": {
                 name: managed.registry.timings_snapshot()
                 for name, managed in results.items()
             },
         })

    for name, managed in results.items():
        assert managed.log.count("violation") == 0, name
        assert managed.health is not Health.FAILED, name

    # The paper's update disciplines, observable in the event logs:
    # nobody takes a *planned* rebuild — BSIC's "rebuild the affected
    # structures" is a slice-local delta — and only injected faults
    # (recovery rebuilds) keep a batch from landing in place.
    for name, managed in results.items():
        log = managed.log
        assert log.count("rebuild_planned") == 0, name
        assert log.count("batch_applied") > 0, name


def _churn_legs(factory, base, probes, tag, batches, batch_size, seed):
    """One scheme through both legs of the identical CALM trace: the
    incremental pipeline (``delta``) and the forced legacy discipline
    (``recompile``: ``delta_updates=False`` — a copy per batch for an
    in-place scheme, a rebuild for BSIC — and ``patch_threshold=0``).
    A batch engine serves a probe burst after every commit, checked
    against the oracle."""
    # Checks and guards cost the same in both legs and would only
    # dilute the commit-path comparison; the probe sweep is the net.
    legs = {
        "delta": (RuntimePolicy(check_every=0, guard_every=0), 256),
        "recompile": (RuntimePolicy(check_every=0, guard_every=0,
                                    delta_updates=False), 0),
    }
    results = {}
    for leg, (policy, threshold) in legs.items():
        managed = ManagedFib(factory, base, policy=policy, check_seed=seed)
        engine = BatchEngine.over_managed(
            managed, patch_threshold=threshold,
            name=f"{tag}-{leg}")
        commit_s, serve_s = [], []
        generator = ChurnGenerator(base, seed=seed, profile=CALM)
        for batch in generator.batches(batches * batch_size, batch_size):
            start = time.perf_counter()
            outcome = managed.apply_batch(batch)
            commit_s.append(time.perf_counter() - start)
            assert outcome in ("batch_applied", "batch_rebuilt"), outcome
            start = time.perf_counter()
            answers = engine.lookup_batch(probes)
            serve_s.append(time.perf_counter() - start)
            want = [managed.oracle.lookup(a) for a in probes]
            assert answers == want, (tag, leg)
        managed.log.check_accounting()
        results[leg] = (managed, commit_s, serve_s)
    return results


def _churn_summary(results, tag, batches):
    """Totals, serve p99, speedup and path counters of :func:`_churn_legs`."""
    def counter(managed, name, leg):
        series = managed.registry.snapshot()["counters"].get(name, {})
        return series.get(f'{{engine="{tag}-{leg}"}}', 0)

    totals = {leg: sum(commit_s)
              for leg, (_, commit_s, _) in results.items()}
    p99 = {leg: sorted(serve_s)[int(0.99 * (len(serve_s) - 1))]
           for leg, (_, _, serve_s) in results.items()}
    counters = {
        leg: {
            "plan_patches": counter(
                managed, "repro_engine_plan_patches_total", leg),
            "recompiles": counter(
                managed, "repro_engine_plan_recompiles_total", leg),
            "applied": managed.log.count("batch_applied"),
            "rebuilt": managed.log.count("batch_rebuilt"),
        }
        for leg, (managed, _, _) in results.items()
    }
    timings = {"commit_total_s": totals,
               "commit_per_batch_ms": {
                   leg: totals[leg] / batches * 1e3 for leg in totals},
               "serve_p99_us": {leg: p99[leg] * 1e6 for leg in p99},
               "speedup_x": totals["recompile"] / totals["delta"]}
    return timings, counters


def test_churn_under_serving(benchmark):
    """Sustained churn under serving: delta commits vs the legacy path.

    RESAIL over the IPv4 table (delta + patch vs copy + recompile) and
    BSIC k=24 over the IPv6 table (slice-local delta + patch vs one
    forced rebuild per batch).  The CI gate: delta commits land at
    least 5x faster, for both.
    """
    batches, batch_size, seed = 12, 25, 23
    schemes = {
        "churn": (lambda fib: Resail(fib, min_bmp=13, hash_capacity=1 << 16),
                  synthesize_as65000(scale=max(0.002, 0.02 * SCALE))),
        "bsic_v6": (lambda fib: Bsic(fib, k=24),
                    synthesize_as131072(scale=max(0.025, 0.05 * SCALE))),
    }
    probes = {"churn": uniform_addresses(32, 256, seed=seed),
              "bsic_v6": matching_addresses(schemes["bsic_v6"][1], 256,
                                            seed=seed)}

    def run():
        return {tag: _churn_legs(factory, base, probes[tag], tag, batches,
                                 batch_size, seed)
                for tag, (factory, base) in schemes.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    timings, counters = _churn_summary(results["churn"], "churn", batches)
    v6_timings, v6_counters = _churn_summary(results["bsic_v6"], "bsic_v6",
                                             batches)

    table = Table(
        f"Churn under serving, {batches}x{batch_size} CALM ops over "
        f"{len(schemes['churn'][1])} IPv4 / {len(schemes['bsic_v6'][1])} "
        "IPv6 routes",
        ["Scheme", "Leg", "Commit total (s)", "Per batch (ms)",
         "Patches/recompiles", "Serve p99 (us)"])
    for scheme, t, c in (("RESAIL v4", timings, counters),
                         ("BSIC v6", v6_timings, v6_counters)):
        for leg in ("delta", "recompile"):
            table.add_row(
                scheme, leg, f"{t['commit_total_s'][leg]:.4f}",
                f"{t['commit_per_batch_ms'][leg]:.2f}",
                f"{c[leg]['plan_patches']}/{c[leg]['recompiles']}",
                f"{t['serve_p99_us'][leg]:.0f}")
        table.add_row(scheme, "speedup", f"{t['speedup_x']:.1f}x", "", "", "")

    emit("update_churn_serving", table.render(),
         values={"fib_routes": len(schemes["churn"][1]), "batches": batches,
                 "batch_size": batch_size, "probes": len(probes["churn"]),
                 "speedup_threshold_x": 5.0, "legs": counters,
                 "bsic_v6": {"fib_routes": len(schemes["bsic_v6"][1]),
                             "legs": v6_counters}},
         timings={**timings, "bsic_v6": v6_timings})

    # The delta legs really took the incremental path...
    assert counters["delta"]["applied"] == batches
    assert counters["delta"]["plan_patches"] == batches
    assert v6_counters["delta"]["applied"] == batches
    # (a tree outgrowing the compiled step chain recompiles instead)
    assert v6_counters["delta"]["plan_patches"] \
        + v6_counters["delta"]["recompiles"] == batches
    assert v6_counters["delta"]["plan_patches"] > 0
    # ...the legacy legs really recompiled — BSIC rebuilt — every commit...
    for legs in (counters, v6_counters):
        assert legs["recompile"]["plan_patches"] == 0
        assert legs["recompile"]["recompiles"] >= batches
    assert v6_counters["recompile"]["rebuilt"] == batches
    # ...and the gate: incremental commits are at least 5x cheaper.
    assert timings["speedup_x"] >= 5.0, timings["speedup_x"]
    assert v6_timings["speedup_x"] >= 5.0, v6_timings["speedup_x"]
