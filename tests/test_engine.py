"""Unit tests for the batch dataplane engine (``repro.engine``).

Covers the plan compiler's error paths, the skew-aware FIB cache
(hybrid eviction, invalidation, tally seeding), the engine's counters
and cache wiring, the commit-listener contract with the managed
runtime, VRF-hash sharding, and the ``repro serve`` CLI.
"""

import json
import tracemalloc

import pytest

from repro.algorithms import (Bsic, Dxr, HiBst, LogicalTcam, Poptrie, Resail,
                              Sail)
from repro.cli import build_parser, main
from repro.control import ChurnGenerator, FaultPlan, ManagedFib, RuntimePolicy
from repro.core import PlanError, compile_plan
from repro.datasets import (mixed_addresses, skewed_addresses,
                            small_example_fib, synthesize_as65000)
from repro.engine import BatchEngine, FibCache, VrfShardedEngine
from repro.obs import DEFAULT_SPAN_SAMPLE_RATE
from repro.prefix import Fib, Prefix


def p(bits, length, width=8):
    return Prefix.from_bits(bits, length, width)


# ----------------------------------------------------------------------
# FibCache
# ----------------------------------------------------------------------
class TestFibCache:
    def test_probe_miss_then_hit(self):
        cache = FibCache(4)
        assert cache.probe(10) == (False, None)
        cache.put(10, 7)
        assert cache.probe(10) == (True, 7)
        assert cache.stats.reads == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_caches_negative_answers(self):
        cache = FibCache(4)
        cache.put(99, None)
        assert cache.probe(99) == (True, None)

    def test_capacity_is_enforced(self):
        cache = FibCache(3)
        for address in range(10):
            cache.put(address, address)
        assert len(cache) == 3

    def test_eviction_prefers_cold_over_recent(self):
        # Hybrid policy: among the `sample` oldest entries the lowest
        # hit count goes first, so a hot-but-old entry survives a scan.
        cache = FibCache(4, sample=4)
        for address in (1, 2, 3, 4):
            cache.put(address, address)
        for _ in range(5):
            cache.probe(1)  # 1 is oldest but hot
        cache.put(5, 5)  # overflow: evicts 2 (cold), not 1
        assert 1 in cache
        assert 2 not in cache

    def test_invalidate_drops_only_covered_addresses(self):
        cache = FibCache(8)
        for address in (0x10, 0x11, 0x80, 0xFF):
            cache.put(address, 1)
        dropped = cache.invalidate([p(0b0001, 4)])  # 0x10..0x1F
        assert dropped == 2
        assert sorted(a for a, _ in cache.items()) == [0x80, 0xFF]

    def test_invalidate_empty_is_noop(self):
        cache = FibCache(4)
        cache.put(1, 1)
        assert cache.invalidate([]) == 0
        assert len(cache) == 1

    def test_seed_from_tally_ranks_by_count(self):
        cache = FibCache(2)
        tally = {5: 100, 6: 1, 7: 50}
        seeded = cache.seed(tally, resolve=lambda a: a * 10)
        assert seeded == 2
        assert dict(cache.items()) == {5: 50, 7: 70}

    def test_seeded_weights_feed_eviction(self):
        cache = FibCache(2, sample=2)
        cache.seed({5: 100, 7: 2}, resolve=lambda a: a)
        cache.put(9, 9)  # evicts 7 (count 2), keeps 5 (count 100)
        assert 5 in cache and 7 not in cache

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FibCache(0)
        with pytest.raises(ValueError):
            FibCache(4, sample=0)

    def test_hit_rate_and_clear(self):
        cache = FibCache(4)
        cache.put(1, 1)
        cache.probe(1)
        cache.probe(2)
        assert cache.hit_rate() == pytest.approx(0.5)
        assert cache.clear() == 1
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Plan compiler error paths (happy paths live in test_engine_conformance)
# ----------------------------------------------------------------------
class TestPlanErrors:
    def test_unknown_initial_register_is_rejected(self, example_fib):
        algo = LogicalTcam(example_fib)
        algo.cram_initial_state = lambda: {"no-such-register": 1}
        with pytest.raises(PlanError, match="no-such-register"):
            compile_plan(algo)

    def test_describe_reports_schedule(self, example_fib):
        plan = compile_plan(LogicalTcam(example_fib))
        doc = plan.describe()
        assert doc["algorithm"] and doc["width"] == example_fib.width
        assert doc["steps"] == len(plan) == len(doc["step_names"])
        assert doc["waves"] >= 1


class TestLiveReads:
    @pytest.mark.parametrize("make", [Sail, Resail], ids=["sail", "resail"])
    def test_compile_copies_no_table(self, make):
        """The scalar plan binds each table's live read: compiling it
        over SAIL's 24 bitmaps and arrays, or RESAIL's bitmaps 13-24
        and d-left table, allocates steps, not tables (a bitmap copy
        alone is 2 MB at /21, 16 MB at /24)."""
        algo = make(synthesize_as65000(scale=0.01))
        tracemalloc.start()
        try:
            plan = compile_plan(algo)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan) > 0
        assert retained < 1 << 20, \
            f"{algo.name}: compile_plan retained {retained:,} bytes"


# ----------------------------------------------------------------------
# BatchEngine
# ----------------------------------------------------------------------
class TestBatchEngine:
    def test_cacheless_engine_matches_oracle(self, example_fib):
        engine = BatchEngine(LogicalTcam(example_fib))
        addresses = list(range(0, 256, 3))
        assert engine.lookup_batch(addresses) == [
            example_fib.lookup(a) for a in addresses
        ]
        assert engine.cache is None

    def test_cache_serves_repeats_and_counts(self, example_fib):
        engine = BatchEngine(LogicalTcam(example_fib), cache_size=16,
                             name="t")
        # A batch probes the cache first and runs its misses as one plan
        # batch, so repeats hit from the next batch on.
        engine.lookup_batch([1, 2, 3])
        addresses = [1, 2, 1, 1, 2, 3, 4]
        hops = engine.lookup_batch(addresses)
        assert hops == [example_fib.lookup(a) for a in addresses]
        reg = engine.registry
        assert reg.counter("repro_engine_lookups_total", "").value(engine="t") == 10
        assert reg.counter("repro_engine_cache_hits_total", "").value(engine="t") == 6
        assert reg.counter("repro_engine_cache_misses_total", "").value(engine="t") == 4
        assert reg.counter("repro_engine_batches_total", "").value(engine="t") == 2

    def test_refresh_rebinds_and_invalidates_scoped(self, example_fib):
        engine = BatchEngine(LogicalTcam(example_fib), cache_size=16)
        engine.warm([0x10, 0x80])
        changed = Fib(8, list(example_fib))
        changed.insert(p(0b0001, 4), 9)  # covers 0x10..0x1F
        engine.refresh(LogicalTcam(changed), touched=[p(0b0001, 4)])
        assert 0x10 not in engine.cache  # invalidated
        assert 0x80 in engine.cache  # untouched prefix stays cached
        assert engine.lookup(0x10) == 9  # fresh answer from the new plan

    def test_refresh_without_extent_clears_everything(self, example_fib):
        engine = BatchEngine(LogicalTcam(example_fib), cache_size=16)
        engine.warm([0x10, 0x80])
        engine.refresh()
        assert len(engine.cache) == 0
        assert engine.registry.counter(
            "repro_engine_plan_recompiles_total", ""
        ).value(engine="engine") == 1

    def test_seed_cache_resolves_through_plan(self, example_fib):
        engine = BatchEngine(LogicalTcam(example_fib), cache_size=8)
        assert engine.seed_cache({0x10: 5, 0x80: 3}) == 2
        hit, hop = engine.cache.probe(0x10)
        assert hit and hop == example_fib.lookup(0x10)

    def test_seed_cache_without_cache_is_zero(self, example_fib):
        assert BatchEngine(LogicalTcam(example_fib)).seed_cache({1: 1}) == 0


# ----------------------------------------------------------------------
# Managed-runtime integration (commit-listener contract)
# ----------------------------------------------------------------------
class TestManagedIntegration:
    def _managed(self, fib, **kwargs):
        return ManagedFib(lambda f: LogicalTcam(f), fib, **kwargs)

    def test_landed_batch_refreshes_engine(self, example_fib):
        managed = self._managed(example_fib)
        engine = BatchEngine.over_managed(managed, cache_size=32, name="m")
        addresses = list(range(0, 256, 5))
        engine.lookup_batch(addresses)
        for batch in ChurnGenerator(example_fib, seed=3).batches(24, 8):
            managed.apply_batch(batch)
        assert engine.lookup_batch(addresses) == [
            managed.oracle.lookup(a) for a in addresses
        ]
        reg = managed.registry  # shared by default
        assert reg is engine.registry
        commits = reg.counter("repro_engine_commits_total", "")
        landed = (commits.value(engine="m", outcome="batch_applied")
                  + commits.value(engine="m", outcome="batch_rebuilt"))
        assert landed == 3
        assert reg.counter(
            "repro_engine_plan_recompiles_total", "").value(engine="m") == 3

    def test_rollback_does_not_notify(self, example_fib):
        # rebuild_budget=0 + max_retries=0: any persistent fault rolls
        # the batch back instead of rebuilding.
        managed = self._managed(
            example_fib,
            policy=RuntimePolicy(max_retries=0, rebuild_budget=0),
            faults=FaultPlan.build(["mid_update_exception"], seed=1, rate=1.0),
        )
        engine = BatchEngine.over_managed(managed, cache_size=16)
        engine.warm(list(range(16)))
        before = dict(engine.cache.items())
        ops = list(ChurnGenerator(example_fib, seed=4).ops(6))
        outcome = managed.apply_batch(ops)
        assert outcome == "batch_rolled_back"
        # No listener fired: same plan, same cache, answers still right.
        assert dict(engine.cache.items()) == before
        assert engine.registry.counter(
            "repro_engine_plan_recompiles_total", "").value(engine="engine") == 0
        for address in range(16):
            assert engine.lookup(address) == managed.oracle.lookup(address)

    def test_listener_can_be_removed(self, example_fib):
        managed = self._managed(example_fib)
        engine = BatchEngine.over_managed(managed)
        managed.remove_commit_listener(engine.on_commit)
        for batch in ChurnGenerator(example_fib, seed=5).batches(8, 8):
            managed.apply_batch(batch)
        assert engine.registry.counter(
            "repro_engine_plan_recompiles_total", "").value(engine="engine") == 0


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestVrfSharding:
    def test_per_vrf_isolation(self):
        sharded = VrfShardedEngine(8, lambda f: LogicalTcam(f),
                                   shards=2, max_vrfs=4)
        red = Fib(8, [(p(0b1, 1), 1)])
        blue = Fib(8, [(p(0b1, 1), 2)])
        sharded.add_vrf(0, red)
        sharded.add_vrf(1, blue)
        assert sharded.lookup(0, 0xFF) == 1
        assert sharded.lookup(1, 0xFF) == 2
        assert sharded.lookup(0, 0x00) is None

    def test_batch_preserves_request_order(self):
        sharded = VrfShardedEngine(8, lambda f: LogicalTcam(f),
                                   shards=2, max_vrfs=4)
        for vrf_id in range(3):
            sharded.add_vrf(vrf_id, Fib(8, [(p(0b1, 1), vrf_id + 1)]))
        requests = [(v, 0xFF) for v in (2, 0, 1, 1, 2, 0)]
        assert sharded.lookup_batch(requests) == [3, 1, 2, 2, 3, 1]
        dispatch = sharded.registry.counter(
            "repro_engine_shard_dispatch_total", "")
        assert dispatch.value(shard=0) == 4  # VRFs 0 and 2
        assert dispatch.value(shard=1) == 2  # VRF 1

    def test_replacing_a_vrf_rebuilds_its_shard(self):
        sharded = VrfShardedEngine(8, lambda f: LogicalTcam(f),
                                   shards=1, max_vrfs=2, cache_size=8)
        sharded.add_vrf(0, Fib(8, [(p(0b1, 1), 1)]))
        assert sharded.lookup(0, 0xFF) == 1  # now cached
        sharded.add_vrf(0, Fib(8, [(p(0b1, 1), 7)]))
        assert sharded.lookup(0, 0xFF) == 7  # cache was cleared

    def test_unknown_vrf_and_bad_widths_raise(self):
        sharded = VrfShardedEngine(8, lambda f: LogicalTcam(f), max_vrfs=2)
        with pytest.raises(KeyError):
            sharded.lookup(0, 1)
        with pytest.raises(ValueError):
            sharded.add_vrf(0, Fib(16))
        with pytest.raises(ValueError):
            sharded.add_vrf(5, Fib(8))

    @pytest.mark.parametrize("make", [
        Bsic, lambda f: Dxr(f, k=16), HiBst,
        lambda f: Poptrie(f, dp_bits=16), LogicalTcam,
    ], ids=["bsic", "dxr", "hibst", "poptrie", "ltcam"])
    def test_vrf_tagged_ipv6_serves_from_the_scalar_plan(self, make):
        # Idiom I5 widens a 64-bit key by the VRF tag: no lane dtype
        # holds 66 bits, so every shard's vector plan delegates.
        base = Fib(64)
        for i in range(24):
            base.insert(Prefix.from_bits((0x2001 << 16) | i, 32, 64), i)
        base.insert(Prefix.from_bits(0xFFFF, 16, 64), 99)  # bit 63 set
        base.insert(Prefix.from_bits(0x20010000AB, 40, 64), 7)
        sharded = VrfShardedEngine(64, make, shards=2, max_vrfs=4)
        for vrf_id in range(4):
            sharded.add_vrf(vrf_id, base.copy())
        for engine in sharded.shard_engines():
            assert engine.active_backend == "plan"
            assert not engine.vector_plan.fully_lowered
        addresses = [p.value | 1 for p, _hop in base] + [
            0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
        requests = [(i % 4, a) for i, a in enumerate(addresses)]
        assert sharded.lookup_batch(requests) == [
            base.lookup(a) for a in addresses]
        assert sharded.lookup(3, addresses[0]) == base.lookup(addresses[0])


# ----------------------------------------------------------------------
# CLI: repro serve
# ----------------------------------------------------------------------
class TestServeCli:
    def test_defaults_are_the_measured_configuration(self):
        # bench/workloads.py::SERVING is what bench/ measures; a bare
        # `repro serve` must be that configuration, not a slower one.
        # There is no backend flag: the vector plan decides kernels vs
        # scalar itself.
        args = build_parser().parse_args(["serve"])
        assert (args.workers, args.max_batch, args.max_wait,
                args.cache) == (2, 512, 2.0, 0)
        assert not hasattr(args, "backend")
        assert args.sample_rate == DEFAULT_SPAN_SAMPLE_RATE

    def test_smoke_serves_from_the_pool(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        assert main(["serve", "--smoke", "--algo", "resail", "--seed", "7",
                     "--metrics-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.count(": backend vector") == 2  # one line per worker
        assert "lookups/s" in text
        assert "per-epoch oracle" in text
        doc = json.loads(out.read_text())
        counters = doc["metrics"]["counters"]
        assert sum(counters["repro_server_requests_total"].values()) == 250
        assert sum(counters["repro_server_batches_total"].values()) > 0
        assert "repro_engine_lookups_total" in counters
        assert "repro_serve_batch" in doc["timings"]

    def test_smoke_vrf_hash(self, capsys):
        assert main(["serve", "--smoke", "--algo", "ltcam", "--vrfs", "3",
                     "--shards", "2", "--seed", "7"]) == 0
        assert "shard" in capsys.readouterr().out
        # VRF-tagged IPv6 is 66 bits wide: the shard serves from its
        # scalar plan and answers the oracle.
        assert main(["serve", "--smoke", "--family", "v6", "--vrfs", "4",
                     "--algo", "bsic", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert "backend plan" in text and "all consistent" in text
