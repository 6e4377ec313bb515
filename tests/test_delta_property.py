"""End-to-end properties of the incremental commit pipeline.

The contract under test: a structure grown by *deltas* is
indistinguishable from one built *from scratch* over the same routing
table.  Hypothesis drives arbitrary churn through the delta-capable
algorithms (SAIL, RESAIL, DXR, BSIC) and asserts, after every commit:

    patched engine == from-scratch plan == interpreter == trie oracle

including after rollbacks (the punitive-guard leg) and after a process
worker is killed mid-stream and resynced from a snapshot (the serving
leg).  Alongside the pipeline property live the unit laws it rests on:
``DeltaOp.inverse`` round-trips, ``FibDelta.wire_ops`` net-effect
semantics, and the incremental-freeze write logs that make plan
patching O(delta) instead of O(table).
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.memory.dleft as dleft_module
import repro.memory.sram as sram_module
import repro.memory.tcam as tcam_module
from repro.algorithms import Bsic, Dxr, Resail, Sail
from repro.chaos import ChaosPlan
from repro.cli import ALGORITHM_FACTORIES
from repro.control import (
    ANNOUNCE,
    WITHDRAW,
    CapacityGuard,
    ChurnGenerator,
    DeltaOp,
    FibDelta,
    ManagedFib,
    RuntimePolicy,
    UpdateOp,
)
from repro.core import compile_plan
from repro.core.vector import (DenseArrayView, RangeView, SparseMapView,
                               compile_vector_plan, key_dtype, map_view,
                               patch_sparse_view, view_from_state, view_state)
from repro.datasets import (matching_addresses, synthesize_as65000,
                            synthesize_as131072, uniform_addresses)
from repro.engine import BatchEngine
from repro.memory.dleft import DLeftHashTable
from repro.memory.sram import Bitmap, DirectIndexTable, ExactMatchTable
from repro.memory.tcam import TcamTable
from repro.prefix import Fib, Prefix
from repro.server import LookupServer

WIDTH = 8


def _delta_factories():
    out = []
    for name, factory in sorted(ALGORITHM_FACTORIES.items()):
        if factory(Fib(32)).supports_delta:
            out.append((name, factory))
    return out


#: The algorithms with a whole-batch ``apply_delta`` path.
DELTA_CAPABLE = _delta_factories()

#: Quiet runtime: no shadow checks, no guard — the property asserts
#: correctness itself, through every compiled path.
QUIET = dict(check_every=0, guard_every=0)


# ---------------------------------------------------------------------------
# Delta algebra: inverse round-trips and wire_ops net effect
# ---------------------------------------------------------------------------

#: A churn script over a tiny prefix universe: (raw bits, raw length,
#: announce?, hop).  Withdrawals of absent prefixes are legal in
#: wire_ops (they net out) but are redirected to announcements in the
#: inverse test, where ops must be valid against the staged table.
op_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
              st.integers(min_value=0, max_value=WIDTH),
              st.booleans(),
              st.integers(min_value=1, max_value=31)),
    min_size=0, max_size=24)


def _script_to_delta(script, table, *, strict):
    """Replay a raw script against ``table`` (a {(bits, length): hop}
    dict), building the DeltaOps exactly like the runtime does —
    ``prev_hop`` captured from the staged state before each op."""
    ops = []
    for raw_bits, length, announce, hop in script:
        bits = raw_bits & (((1 << length) - 1) if length else 0)
        key = (bits, length)
        prev = table.get(key)
        if not announce and strict and prev is None:
            announce = True  # withdrawals must name live routes
        prefix = Prefix.from_bits(bits, length, WIDTH)
        if announce:
            ops.append(DeltaOp(ANNOUNCE, prefix, next_hop=hop,
                               prev_hop=prev))
            table[key] = hop
        else:
            ops.append(DeltaOp(WITHDRAW, prefix, prev_hop=prev))
            table.pop(key, None)
    return FibDelta(ops)


def _apply_delta(table, delta):
    for op in delta:
        key = (op.prefix.bits, op.prefix.length)
        if op.action == ANNOUNCE:
            table[key] = op.next_hop
        else:
            table.pop(key, None)


class TestDeltaAlgebra:
    @given(script=op_scripts)
    @settings(max_examples=50, deadline=None)
    def test_inverse_round_trips(self, script):
        """delta then delta.inverse() is the identity on the table."""
        table = {(0, 0): 7, (1, 1): 3}
        before = dict(table)
        delta = _script_to_delta(script, table, strict=True)
        after = dict(table)
        _apply_delta(table, delta.inverse())
        assert table == before
        # And the inverse of the inverse lands back on the post state.
        _apply_delta(table, delta.inverse().inverse())
        assert table == after

    @given(script=op_scripts)
    @settings(max_examples=50, deadline=None)
    def test_wire_ops_are_the_net_effect(self, script):
        """Applying wire_ops to the pre-batch table yields the
        post-batch table; prefixes with no net change never ship."""
        table = {(0, 0): 7, (1, 1): 3}
        before = dict(table)
        delta = _script_to_delta(script, table, strict=False)
        wire = delta.wire_ops()
        assert wire == sorted(wire)  # deterministic shipping order
        replayed = dict(before)
        for bits, length, hop in wire:
            if hop is None:
                replayed.pop((bits, length), None)
            else:
                replayed[(bits, length)] = hop
        assert replayed == table
        # Net no-ops are dropped: every shipped triple changes state.
        for bits, length, hop in wire:
            assert before.get((bits, length)) != hop
        # Last-op-per-prefix wins: at most one triple per prefix.
        assert len({(b, l) for b, l, _h in wire}) == len(wire)

    def test_wire_ops_drop_announce_withdraw_pair(self):
        prefix = Prefix.from_bits(0b1010, 4, WIDTH)
        delta = FibDelta([
            DeltaOp(ANNOUNCE, prefix, next_hop=9, prev_hop=None),
            DeltaOp(WITHDRAW, prefix, prev_hop=9),
        ])
        assert delta.wire_ops() == []
        assert delta.prefixes() == {prefix}


# ---------------------------------------------------------------------------
# The pipeline property: delta-grown == built-from-scratch
# ---------------------------------------------------------------------------


def _assert_delta_equals_scratch(managed, engine, factory, probes):
    """The committed structure, served through the patched engine, must
    answer exactly like a from-scratch build over the same oracle —
    through the vector plan, the scalar plan, and the interpreter."""
    oracle = managed.oracle
    expected = [oracle.lookup(a) for a in probes]
    assert engine.lookup_batch(probes) == expected
    assert engine.plan.lookup_batch(probes) == expected  # live reads
    scratch = factory(oracle.copy())
    scratch_plan = compile_plan(scratch)
    assert [scratch_plan.lookup(a) for a in probes] == expected
    # The per-packet interpreter on a deterministic probe subset.
    for address in probes[:: max(1, len(probes) // 8)]:
        assert managed.algo.cram_lookup(address) == oracle.lookup(address)


@pytest.mark.parametrize(("name", "factory"), DELTA_CAPABLE,
                         ids=[n for n, _f in DELTA_CAPABLE])
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_built_equals_scratch_built(name, factory, seed):
    base = synthesize_as65000(scale=0.001)
    managed = ManagedFib(factory, base, policy=RuntimePolicy(**QUIET),
                         check_seed=seed)
    engine = BatchEngine.over_managed(managed, name=f"delta-prop-{name}")
    probes = uniform_addresses(32, 96, seed=seed)
    commits = 0
    for batch in ChurnGenerator(base, seed=seed).batches(32, 8):
        outcome = managed.apply_batch(batch)
        assert outcome in {"batch_applied", "batch_rebuilt"}
        commits += 1
        _assert_delta_equals_scratch(managed, engine, factory, probes)
    counters = managed.registry.snapshot()["counters"]

    def total(metric):
        return sum(counters.get(metric, {}).values())

    patches = total("repro_engine_plan_patches_total")
    recompiles = total("repro_engine_plan_recompiles_total")
    # Every commit refreshed the engine exactly once, one way or the
    # other; in-place appliers must have patched at least once.
    assert patches + recompiles == commits
    if name in ("sail", "resail"):
        assert patches == commits


@pytest.mark.parametrize(("name", "factory"), DELTA_CAPABLE,
                         ids=[n for n, _f in DELTA_CAPABLE])
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_built_equals_scratch_after_rollback(name, factory, seed):
    """Under a punitive guard most batches roll back; whatever the
    outcome, the served structure must keep matching a from-scratch
    build of the committed oracle."""
    guard = CapacityGuard(tcam_blocks=0, sram_pages=0, stage_budget=1,
                          dleft_overflow_limit=0)
    base = synthesize_as65000(scale=0.001)
    managed = ManagedFib(factory, base, guard=guard,
                         policy=RuntimePolicy(**QUIET), check_seed=seed)
    engine = BatchEngine.over_managed(managed, name=f"rollback-prop-{name}")
    probes = uniform_addresses(32, 96, seed=seed)
    for batch in ChurnGenerator(base, seed=seed).batches(24, 8):
        managed.apply_batch(batch)
        _assert_delta_equals_scratch(managed, engine, factory, probes)


def test_patch_threshold_escape_hatch():
    """Past the patch threshold the engine must fall back to a full
    recompile — and a threshold of 0 disables patching outright."""
    base = synthesize_as65000(scale=0.001)
    results = {}
    for threshold in (256, 2, 0):
        managed = ManagedFib(lambda fib: Resail(fib, min_bmp=13,
                                                hash_capacity=1 << 16),
                             base, policy=RuntimePolicy(**QUIET),
                             check_seed=5)
        engine = BatchEngine.over_managed(
            managed, patch_threshold=threshold,
            name=f"threshold-{threshold}")
        for batch in ChurnGenerator(base, seed=5).batches(24, 8):
            assert managed.apply_batch(batch) == "batch_applied"
        counters = managed.registry.snapshot()["counters"]
        label = f'{{engine="threshold-{threshold}"}}'
        results[threshold] = (
            counters.get("repro_engine_plan_patches_total",
                         {}).get(label, 0),
            counters.get("repro_engine_plan_recompiles_total",
                         {}).get(label, 0),
            engine.lookup_batch(uniform_addresses(32, 32, seed=5)),
        )
    # Batches of 8 fit a 256 threshold (all patches), overflow a 2
    # threshold (all recompiles), and 0 disables the patch path.
    assert results[256][:2] == (3, 0)
    assert results[2][:2] == (0, 3)
    assert results[0][:2] == (0, 3)
    # ... without ever changing the answers.
    assert results[256][2] == results[2][2] == results[0][2]


# ---------------------------------------------------------------------------
# BSIC: slice-local deltas behind frozen kernel views
# ---------------------------------------------------------------------------

#: The paper's two configurations: IPv4 k=16, IPv6 k=24 (uint64 address
#: lanes; every delta there runs a real ``vector_patch``).
BSIC_SHAPES = [(32, 16), (64, 24)]
BSIC_IDS = ["w32-k16", "w64-k24"]


def _bsic_base(width):
    return (synthesize_as65000(scale=0.001) if width == 32
            else synthesize_as131072(scale=0.005))


def _bsic_runtime(k, base, name, **kwargs):
    kwargs.setdefault("policy", RuntimePolicy(**QUIET))
    managed = ManagedFib(lambda fib: Bsic(fib, k=k), base, **kwargs)
    engine = BatchEngine.over_managed(managed, name=name)
    return managed, engine


def _engine_counts(managed, name):
    counters = managed.registry.snapshot()["counters"]
    label = f'{{engine="{name}"}}'
    return (counters.get("repro_engine_plan_patches_total", {}).get(label, 0),
            counters.get("repro_engine_plan_recompiles_total",
                         {}).get(label, 0))


def _around(prefixes, width):
    """First/last covered address of each prefix and their neighbours."""
    probes = set()
    for prefix in prefixes:
        first, last = prefix.address_range()
        probes.update((first, last, max(first - 1, 0),
                       min(last + 1, (1 << width) - 1)))
    return sorted(probes)


def _assert_bsic_equals_scratch(managed, engine, k, probes):
    """Native, interpreter, scalar plan, vector plan (patched lane
    kernels at both widths) and engine all answer like the trie oracle,
    and the paper's currency equals a from-scratch build of the same
    table."""
    algo, oracle = managed.algo, managed.oracle
    assert engine.active_backend == "vector"
    assert engine.vector_plan.fully_lowered
    expected = [oracle.lookup(a) for a in probes]
    assert [algo.lookup(a) for a in probes] == expected
    assert engine.plan.lookup_batch(probes) == expected
    assert engine.vector_plan.lookup_batch_hops(probes) == expected
    assert engine.lookup_batch(probes) == expected
    for address in probes[:: max(1, len(probes) // 8)]:
        assert algo.cram_lookup(address) == oracle.lookup(address)
    scratch = Bsic(oracle.copy(), k=k)
    assert algo.cram_metrics() == scratch.cram_metrics()
    assert algo.layout() == scratch.layout()
    assert len(algo.initial) == len(scratch.initial)
    assert algo.level_sizes() == scratch.level_sizes()


@pytest.mark.parametrize(("width", "k"), BSIC_SHAPES, ids=BSIC_IDS)
@pytest.mark.parametrize("guarded", [False, True],
                         ids=["post-commit", "post-rollback"])
@given(seed=st.integers(min_value=0, max_value=2**16))
@example(seed=21694)  # --hypothesis-seed=1172: re-derives the busiest slices
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bsic_delta_built_equals_scratch_built(width, k, guarded, seed):
    """Churn lands as slice-local deltas (or, under the punitive
    guard, applies and rolls back in place); either way BSIC stays
    indistinguishable from a from-scratch build."""
    base = _bsic_base(width)
    kwargs = {}
    if guarded:
        kwargs["guard"] = CapacityGuard(tcam_blocks=0, sram_pages=0,
                                        stage_budget=1)
        kwargs["policy"] = RuntimePolicy(check_every=0)
    managed, engine = _bsic_runtime(k, base, "bsic-prop",
                                    check_seed=seed, **kwargs)
    steady = matching_addresses(base, 48, seed=seed)
    algo = managed.algo
    outcomes = []
    for batch in ChurnGenerator(base, seed=seed).batches(32, 8):
        outcomes.append(managed.apply_batch(batch))
        touched = [op.prefix for op in batch if op.prefix is not None]
        _assert_bsic_equals_scratch(managed, engine, k,
                                    steady + _around(touched, width))
    if guarded:
        assert set(outcomes) == {"batch_rolled_back"}
        # Undone in place, not rebuilt.
        assert managed.algo is algo
    else:
        assert set(outcomes) == {"batch_applied"}
        patches, recompiles = _engine_counts(managed, "bsic-prop")
        assert patches + recompiles == len(outcomes) and patches > 0


@pytest.mark.parametrize(("width", "k"), BSIC_SHAPES, ids=BSIC_IDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_bsic_short_prefix_moves_slice_defaults(width, k, data):
    """Announcing / withdrawing a prefix of length <= k re-derives the
    BSTs under it (their uncovered ranges inherit its hop) and writes
    or clears exactly its own ternary row."""
    slice_bits = data.draw(st.integers(0, (1 << k) - 1))
    length = data.draw(st.integers(0, k))
    hop = data.draw(st.integers(1, 200))
    sibling = slice_bits ^ 1
    long_a = Prefix.from_bits((slice_bits << 2) | 0b01, k + 2, width)
    long_b = Prefix.from_bits((sibling << 3) | 0b110, k + 3, width)
    base = Fib(width, [(long_a, 7), (long_b, 8)])
    short = Prefix.from_bits(slice_bits >> (k - length), length, width)
    gap = slice_bits << (width - k)  # under `short`, outside long_a
    managed, engine = _bsic_runtime(k, base, "bsic-short")
    probes = _around([long_a, long_b, short], width) + [gap]

    assert managed.apply_batch([UpdateOp(ANNOUNCE, short, hop)]) \
        == "batch_applied"
    assert managed.algo.lookup(gap) == hop
    _assert_bsic_equals_scratch(managed, engine, k, probes)
    assert managed.apply_batch([UpdateOp(WITHDRAW, short)]) == "batch_applied"
    assert managed.algo.lookup(gap) is None
    _assert_bsic_equals_scratch(managed, engine, k, probes)
    assert _engine_counts(managed, "bsic-short") == (2, 0)


@pytest.mark.parametrize(("width", "k"), BSIC_SHAPES, ids=BSIC_IDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_bsic_withdraw_that_empties_a_slice(width, k, data):
    """The last long prefix leaving a slice turns its BST row back
    into the /k route's hop row — or into no row at all."""
    slice_bits = data.draw(st.integers(0, (1 << k) - 1))
    has_exact = data.draw(st.booleans())
    long = Prefix.from_bits((slice_bits << 5) | 0b10110, k + 5, width)
    exact = Prefix.from_bits(slice_bits, k, width)
    base = Fib(width, [(long, 3)] + ([(exact, 4)] if has_exact else []))
    managed, engine = _bsic_runtime(k, base, "bsic-empty")
    probes = _around([long, exact], width)
    assert [e.data[0] for e in managed.algo.initial.entries()] == ["bst"]

    assert managed.apply_batch([UpdateOp(WITHDRAW, long)]) == "batch_applied"
    rows = [e.data for e in managed.algo.initial.entries()]
    assert rows == ([("hop", 4)] if has_exact else [])
    assert managed.algo.level_sizes() == []
    _assert_bsic_equals_scratch(managed, engine, k, probes)
    # ... and back: the slice grows a tree again.
    assert managed.apply_batch([UpdateOp(ANNOUNCE, long, 5)]) \
        == "batch_applied"
    _assert_bsic_equals_scratch(managed, engine, k, probes)


@pytest.mark.parametrize(("width", "k"), BSIC_SHAPES, ids=BSIC_IDS)
@given(extra=st.integers(min_value=2, max_value=9))
@settings(max_examples=4, deadline=None)
def test_bsic_depth_growth_declines_the_patch(width, k, extra):
    """A batch that makes some tree deeper than the compiled step
    chain cannot be patched: the hooks say so and the engine counts a
    recompile; the next shallow batch patches again."""
    base = _bsic_base(width)
    managed, engine = _bsic_runtime(k, base, "bsic-deep")
    depth = managed.algo.depth
    slice_bits = next(iter(managed.algo._slices.groups))
    # 2**depth disjoint long prefixes in one slice: > 2**depth ranges.
    bits = depth + 1
    grow = [UpdateOp(ANNOUNCE,
                     Prefix.from_bits((slice_bits << bits) | i, k + bits,
                                      width), 10 + i % 5)
            for i in range(0, 1 << bits, 2)]
    assert len(grow) <= engine.patch_threshold
    assert managed.apply_batch(grow) == "batch_applied"
    assert managed.algo.depth > depth
    assert _engine_counts(managed, "bsic-deep") == (0, 1)
    probes = _around([op.prefix for op in grow[:extra]], width)
    _assert_bsic_equals_scratch(managed, engine, k, probes)
    modify = [UpdateOp(ANNOUNCE, op.prefix, 99) for op in grow[:extra]]
    assert managed.apply_batch(modify) == "batch_applied"
    assert _engine_counts(managed, "bsic-deep") == (1, 1)
    _assert_bsic_equals_scratch(managed, engine, k, probes)


def test_dxr_depth_growth_declines_the_patch():
    """DXR's companion: a delta that deepens ``search_depth`` past the
    compiled probe chain names a probe step the old scalar plan lacks,
    so the engine recompiles once; the next shallow batch patches
    again, and the answers follow the oracle throughout."""
    slice_bits = 0x0A01
    base = Fib(32, [(_v4((slice_bits << 8) | i, 24), 1 + i)
                    for i in (1, 5, 9)])
    managed = ManagedFib(lambda fib: Dxr(fib, k=16), base,
                         policy=RuntimePolicy(**QUIET))
    engine = BatchEngine.over_managed(managed, name="dxr-deep")
    depth = managed.algo.search_depth
    bits = depth + 1
    grow = [UpdateOp(ANNOUNCE, _v4((slice_bits << bits) | i, 16 + bits),
                     10 + i % 5)
            for i in range(0, 1 << bits, 2)]
    probes = _around([p for p, _hop in base] + [op.prefix for op in grow], 32)

    def check():
        expected = [managed.oracle.lookup(a) for a in probes]
        assert engine.lookup_batch(probes) == expected
        assert engine.plan.lookup_batch(probes) == expected

    assert managed.apply_batch(grow) == "batch_applied"
    assert managed.algo.search_depth > depth
    assert _engine_counts(managed, "dxr-deep") == (0, 1)
    assert len(engine.plan.step_names) == 1 + managed.algo.search_depth
    check()
    modify = [UpdateOp(ANNOUNCE, op.prefix, 99) for op in grow[:3]]
    assert managed.apply_batch(modify) == "batch_applied"
    assert _engine_counts(managed, "dxr-deep") == (1, 1)
    check()


@pytest.mark.parametrize(("width", "k"), BSIC_SHAPES, ids=BSIC_IDS)
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bsic_frozen_and_live_plans(width, k, seed):
    """No vector plan compiled earlier ever sees a later delta; a
    scalar plan compiled earlier reads the live sections, so it
    answers the live oracle after every one."""
    base = _bsic_base(width)
    managed, engine = _bsic_runtime(k, base, "bsic-frozen",
                                    check_seed=seed)
    live_plan = compile_plan(managed.algo)
    frozen_vector = compile_vector_plan(managed.algo)
    groups = managed.algo._slices.groups
    busiest = max(groups, key=lambda s: len(groups[s]))
    victim = Prefix.from_bits(busiest << 1, k + 1, width)
    probes = matching_addresses(base, 64, seed=seed) \
        + _around([victim], width) \
        + uniform_addresses(width - k - 1, 16, seed=seed)  # inside victim
    probes[-16:] = [victim.value | a for a in probes[-16:]]
    before = [base.lookup(a) for a in probes]
    for hop in range(1, 9):
        # Each batch re-derives the busiest slice's whole section.
        assert managed.apply_batch(
            [UpdateOp(ANNOUNCE, victim, hop)]) == "batch_applied"
        after = [managed.oracle.lookup(a) for a in probes]
        assert live_plan.lookup_batch(probes) == after
        assert frozen_vector.lookup_batch_hops(probes) == before
    assert after != before
    _assert_bsic_equals_scratch(managed, engine, k, probes)


# ---------------------------------------------------------------------------
# The scalar plan reads the live tables
# ---------------------------------------------------------------------------


def _v4(bits, length):
    return Prefix.from_bits(bits, length, 32)


def _commit_under_one_plan(factory, base, batches):
    """Commit ``batches`` as in-place deltas under one scalar plan,
    compiled before the first: after every commit that plan answers
    the committed oracle.  Returns the structure for a witness check."""
    managed = ManagedFib(factory, base, policy=RuntimePolicy(**QUIET))
    algo = managed.algo
    plan = compile_plan(algo)
    seen = [prefix for prefix, _hop in base] + [
        op.prefix for batch in batches for op in batch]
    probes = _around(seen, 32) + [0, 0xC0000001, (1 << 32) - 1]
    for batch in batches:
        assert managed.apply_batch(batch) == "batch_applied"
        assert managed.algo is algo  # applied in place, not rebuilt
        oracle = managed.oracle
        assert plan.lookup_batch(probes) == [oracle.lookup(a) for a in probes]
    return algo


def test_live_plan_follows_sail_chunks_and_default_route():
    base = Fib(32, [(_v4(0x0A0102, 24), 3), (_v4(0x0A, 8), 1)])
    chunk = _v4(0x0A010280 >> 7, 25)
    algo = _commit_under_one_plan(Sail, base, [
        [UpdateOp(ANNOUNCE, chunk, 7)],          # pivot-pushes a chunk
        [UpdateOp(ANNOUNCE, _v4(0, 0), 9)],      # the default route
        [UpdateOp(ANNOUNCE, chunk, 8),           # the chunk rebuilt, and
         UpdateOp(WITHDRAW, _v4(0x0A0102, 24))],  # its /24 withdrawn
    ])
    assert 0x0A0102 in algo.chunks and algo.default_hop == 9


def test_live_plan_follows_resail_through_dleft_growth():
    base = Fib(32, [(_v4(0x0A00 | i, 16), i + 1) for i in range(40)])
    algo = _commit_under_one_plan(
        lambda fib: Resail(fib, hash_capacity=64), base, [
            [UpdateOp(ANNOUNCE, _v4(0xB000 | i, 20), 50 + i)
             for i in range(40)],
            [UpdateOp(ANNOUNCE, _v4(0x0A000180 >> 7, 25), 99),  # look-aside
             UpdateOp(WITHDRAW, _v4(0x0A03, 16))],
        ])
    assert algo.hash_table.capacity > 64  # auto-grow rehashed every key


def test_live_plan_follows_dxr_across_compaction():
    rows = [_v4((0x0A01 << 8) | i, 24) for i in range(0, 64, 4)]
    base = Fib(32, [(row, 1) for row in rows])
    depth = Dxr(base, k=16).search_depth
    # Each op re-derives slice 10.1's section and strands the old one,
    # so every batch ends in a compaction that reassigns `ranges`.
    algo = _commit_under_one_plan(lambda fib: Dxr(fib, k=16), base, [
        [UpdateOp(ANNOUNCE, row, hop) for row in rows[:4]]
        for hop in (2, 3, 4)])
    assert algo._dead_ranges == 0 and algo.search_depth == depth


# ---------------------------------------------------------------------------
# Incremental freeze: write-log replay == full re-freeze
# ---------------------------------------------------------------------------

bit_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
    min_size=0, max_size=64)


#: TCAM scripts: (op, length, bits, data).  Ops 0/1 write and withdraw
#: prefixes (LPM priorities); 2/3 insert and delete raw rows whose
#: priority is unrelated to their mask, including duplicates of one
#: (value, mask) at several priorities.
def _tcam_keys(width):
    """Every 4-bit head (all a script can distinguish), with the tail
    bits clear, set, and mixed."""
    tail = width - 4
    keys = [(head << tail) | fill
            for head in range(16)
            for fill in (0, (1 << tail) - 1, (1 << tail) // 3)]
    return np.array(keys, dtype=key_dtype(width))


#: The dict-shaped SRAM tables and the view each freezes to: a
#: direct-index key space small enough to densify, one past
#: ``DENSE_LIMIT``, and an exact-match table.
MAP_TABLES = {
    "direct-dense": (lambda: DirectIndexTable(12, 8), DenseArrayView),
    "direct-sparse": (lambda: DirectIndexTable(24, 8), SparseMapView),
    "exact": (lambda: ExactMatchTable(24, 8), SparseMapView),
}

#: Slot scripts: (key index, value); value 0 clears or deletes the slot.
slot_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=0, max_value=15)),
    min_size=0, max_size=48)


def _slot_keys(table):
    """The 64 keys a script can name, spread over the whole key space."""
    return np.array([i * 2654435761 % (1 << table.key_width)
                     for i in range(64)], dtype=np.int64)


def _slot_apply(table, script):
    keys = _slot_keys(table).tolist()
    for index, value in script:
        if value:
            table.store(keys[index], value)
        elif isinstance(table, DirectIndexTable):
            table.clear_slot(keys[index])
        elif table.load(keys[index]) is not None:
            table.delete(keys[index])


def _record_intervals(patch):
    """Record the key intervals ``(lo, hi, span)`` every TCAM freeze
    re-derives while ``patch`` is active."""
    derived = []
    real = TcamTable._ranges

    def recorded(self, intervals, encode, floors):
        derived.extend(intervals)
        return real(self, intervals, encode, floors)

    patch.setattr(TcamTable, "_ranges", recorded)
    return derived


def _assert_same_gather(view, fresh, keys):
    active = np.arange(keys.shape[0]) % 3 != 1
    for mask in (None, active):
        vals, found = view.gather(keys, mask)
        want_vals, want_found = fresh.gather(keys, mask)
        assert vals.dtype == want_vals.dtype == np.int64
        assert found.tolist() == want_found.tolist()
        assert vals.tolist() == want_vals.tolist()


class TestIncrementalFreeze:
    @given(initial=bit_scripts, churn=bit_scripts)
    @settings(max_examples=30, deadline=None)
    def test_bitmap_replay_equals_full_freeze(self, initial, churn):
        bitmap = Bitmap(8)
        for index, value in initial:
            bitmap.set(index, value)
        view = bitmap.vector_reader()
        for index, value in churn:
            bitmap.set(index, value)
        revived = bitmap.vector_reader(prev=view)
        assert revived is view  # caught up in place, not re-copied
        assert revived.packed.tolist() == \
            bitmap.vector_reader().packed.tolist() == \
            [int(bitmap.test(i)) for i in range(256)]

    def test_bitmap_log_trim_falls_back_to_full_copy(self, monkeypatch):
        monkeypatch.setattr(sram_module, "FREEZE_LOG_CAP", 4)
        bitmap = Bitmap(8)
        stale = bitmap.vector_reader()
        for index in range(32):  # way past the cap: the tail is gone
            bitmap.set(index)
        resynced = bitmap.vector_reader(prev=stale)
        assert resynced is not stale  # full copy, not a replay
        assert resynced.packed.tolist() == \
            [int(bitmap.test(i)) for i in range(256)]

    @given(script=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.integers(min_value=0, max_value=15)),
        min_size=0, max_size=48))
    @settings(max_examples=30, deadline=None)
    def test_dleft_replay_equals_full_freeze(self, script):
        table = DLeftHashTable(key_width=16, data_width=8, capacity=128)
        for key in (1, 2, 3):
            table.insert(key, key)
        view = table.vector_reader()
        for key, data in script:
            if data == 0:
                try:
                    table.delete(key)
                except KeyError:
                    pass
            else:
                table.insert(key, data)
        expected = table._flatten()
        revived = table.vector_reader(prev=view)
        assert revived is view
        assert dict(zip(revived.keys.tolist(),
                        revived.data.tolist())) == expected

    def test_dleft_grow_invalidates_outstanding_snapshots(self):
        table = DLeftHashTable(key_width=16, data_width=8, capacity=8,
                               auto_grow=True)
        table.insert(1, 1)
        stale = table.vector_reader()
        for key in range(2, 40):  # trips auto-grow (rehash) mid-churn
            table.insert(key, key & 0xFF or 1)
        resynced = table.vector_reader(prev=stale)
        assert resynced is not stale  # no tail describes a rehash
        assert dict(zip(resynced.keys.tolist(), resynced.data.tolist())) \
            == table._flatten() == {k: k for k in range(1, 40)}

    @pytest.mark.parametrize("kind", sorted(MAP_TABLES))
    @given(initial=slot_scripts, churn=slot_scripts)
    @settings(max_examples=30, deadline=None)
    def test_map_table_replay_equals_full_freeze(self, kind, initial,
                                                 churn):
        make, view_type = MAP_TABLES[kind]
        table = make()
        _slot_apply(table, initial)
        view = table.vector_reader()
        assert isinstance(view, view_type)
        _slot_apply(table, churn)
        revived = table.vector_reader(prev=view)
        assert revived is view  # caught up in place, not re-copied
        keys = _slot_keys(table)
        _assert_same_gather(revived, table.vector_reader(), keys)
        vals, found = revived.gather(keys)
        assert [v if f else None for v, f in
                zip(vals.tolist(), found.tolist())] == \
            [table.load(k) for k in keys.tolist()]

    @pytest.mark.parametrize("kind", sorted(MAP_TABLES))
    @given(churn=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.integers(min_value=1, max_value=15)),
        min_size=8, max_size=48))
    @settings(max_examples=10, deadline=None)
    def test_map_table_log_trim_falls_back_to_full_copy(self, kind, churn):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sram_module, "FREEZE_LOG_CAP", 4)
            table = MAP_TABLES[kind][0]()
            stale = table.vector_reader()
            _slot_apply(table, churn)  # past the cap: the tail is gone
            resynced = table.vector_reader(prev=stale)
        assert resynced is not stale  # full copy, not a replay
        _assert_same_gather(resynced, table.vector_reader(),
                            _slot_keys(table))

    @pytest.mark.parametrize("width", [8, 24, 32, 64])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tcam_range_splice_equals_full_freeze(self, width, data):
        """Random prefix-shaped tables — plain prefixes, MASHUP-style
        rows (an exact tag on top of a stride prefix) and duplicate raw
        ``(value, mask)`` rows, where the first writer wins — churned by
        random insert/delete runs.  Each of two outstanding views (two
        replicas, synced at different times) re-frozen with ``prev=``
        equals a fresh freeze, gathers what ``search`` answers at every
        range edge and either side of it, and leaves every array of
        every earlier freeze as it was."""
        tag_bits = data.draw(st.sampled_from([0, 2]), label="tag_bits")
        stride = width - tag_bits
        op = st.tuples(
            st.sampled_from(["prefix", "drop", "raw", "unraw"]),
            st.integers(0, (1 << tag_bits) - 1),
            st.integers(0, stride),
            st.one_of(  # a few top-bit patterns, so that rows nest,
                st.integers(0, 7).map(lambda top: top << (stride - 3)),
                st.just((1 << stride) - 1),  # the top of the key space
                st.integers(0, (1 << stride) - 1)),
            st.integers(0, 7))
        table = TcamTable(width)
        encode = (lambda code: code + 100) if width == 64 else None
        wrap = encode or (lambda code: code)

        def apply(step):
            kind, tag, length, bits, code = step
            value = (tag << stride) | (bits >> (stride - length)
                                       << (stride - length))
            mask = tcam_module.prefix_mask(tag_bits + length, width)
            try:
                if kind == "prefix":
                    table.insert_prefix(
                        Prefix(value, tag_bits + length, width), code)
                elif kind == "drop":
                    table.delete_prefix(
                        Prefix(value, tag_bits + length, width))
                elif kind == "raw":   # may duplicate a row: first wins
                    table.insert(value, mask, stride - length, code)
                else:
                    table.delete(value, mask)
            except KeyError:
                pass

        for step in data.draw(st.lists(op, max_size=12), label="initial"):
            apply(step)
        views = [table.vector_reader(encode=encode)] * 2
        frozen = []
        for n, run in enumerate(data.draw(
                st.lists(st.lists(op, min_size=1, max_size=4),
                         max_size=6), label="runs")):
            for step in run:
                apply(step)
            frozen += [(view, [view.lefts.copy(), view.hops.copy(),
                               view.none.copy()]) for view in views]
            for which in ((0, 1) if n % 2 else (0,)):
                views[which] = table.vector_reader(encode=encode,
                                                   prev=views[which])
                fresh = table.vector_reader(encode=encode)
                for got, want in zip(
                        (views[which].lefts, views[which].hops,
                         views[which].none),
                        (fresh.lefts, fresh.hops, fresh.none)):
                    assert got.dtype == want.dtype
                    assert got.tolist() == want.tolist()
                edges = sorted({min(max(int(left) + d, 0), (1 << width) - 1)
                                for left in fresh.lefts.tolist()
                                for d in (-1, 0, 1)})
                keys = np.array(edges, dtype=key_dtype(width))
                vals, found = views[which].gather(keys)
                assert [v if f else None for v, f in
                        zip(vals.tolist(), found.tolist())] == \
                    [None if table.search(k) is None
                     else wrap(table.search(k)) for k in edges]
        for view, arrays in frozen:
            for old, now in zip(arrays, (view.lefts, view.hops, view.none)):
                assert np.array_equal(old, now)

    def test_tcam_splice_walks_every_group_transition(self):
        """The transitions the fuzzer reaches by chance, by hand: a new
        length group ahead of, between and behind the frozen ones; a
        group emptying; a shadowed duplicate taking over; a row at the
        top of the key space; and a re-freeze with nothing written."""
        table = TcamTable(64)
        keys = _tcam_keys(64)
        for head in range(6):
            table.insert_prefix(Prefix.from_bits(head, 4, 64), head)
        view = table.vector_reader()

        def resync():
            nonlocal view
            fresh = table.vector_reader(prev=view)
            assert fresh is not view
            view = fresh
            full = table.vector_reader()
            assert view.lefts.tolist() == full.lefts.tolist()
            _assert_same_gather(view, full, keys)

        table.insert_prefix(Prefix.from_bits(0b10, 2, 64), 20)   # behind
        table.insert_prefix(Prefix.from_bits(1, 64, 64), 64)     # ahead
        table.insert_prefix(Prefix.from_bits(0b101, 3, 64), 30)  # between
        resync()
        assert view.gather(keys[30:31])[0].tolist() == [30]
        table.delete_prefix(Prefix.from_bits(0b101, 3, 64))      # empties
        resync()
        # Two rows of one (value, mask): the older wins its group, and
        # deleting it promotes the younger one of the same priority.
        table.insert(0xA << 60, 0xF << 60, priority=60, data=77)
        table.insert(0xA << 60, 0xF << 60, priority=60, data=78)
        resync()
        assert view.gather(keys[30:31])[0].tolist() == [77]
        table.delete(0xA << 60, 0xF << 60)
        resync()
        assert view.gather(keys[30:31])[0].tolist() == [78]
        table.insert_prefix(Prefix.from_bits((1 << 64) - 1, 64, 64), 99)
        resync()
        assert view.gather(keys[-2:])[0].tolist() == [99, 0]
        assert table.vector_reader(prev=view) is view  # nothing written

    def test_tcam_log_trim_falls_back_to_full_rebuild(self, monkeypatch):
        monkeypatch.setattr(sram_module, "FREEZE_LOG_CAP", 4)
        table = TcamTable(16)
        for i in range(200):
            table.insert_prefix(Prefix.from_bits(i, 12, 16), i)
        stale = table.vector_reader()
        live = table.vector_reader()
        table.insert_prefix(Prefix.from_bits(7, 12, 16), 999)
        with monkeypatch.context() as patch:   # inside the log: a splice
            derived = _record_intervals(patch)
            table.vector_reader(prev=live)
        assert derived == [(7 << 4, 8 << 4, 4)]
        for i in range(200, 232):   # way past the cap: the tail is gone
            table.insert_prefix(Prefix.from_bits(i, 12, 16), i)
        rebuilt = table.vector_reader(prev=stale)
        assert rebuilt is not stale and isinstance(rebuilt, RangeView)
        keys = np.arange(0, 1 << 16, 5, dtype=np.int64)
        _assert_same_gather(rebuilt, table.vector_reader(), keys)
        # An un-encodable write makes the view unbuildable either way.
        table.insert_prefix(Prefix.from_bits(1, 3, 16), ("not", "int"))
        assert table.vector_reader(prev=rebuilt) is None
        assert table.vector_reader() is None

    def test_a_long_write_rederives_only_its_interval(self, monkeypatch):
        """A /24 write re-derives the 256 keys under it and nothing
        else: the search is evaluated at that interval's edges only,
        and every other range is spliced over untouched."""
        table = TcamTable(32)
        for i in range(500):
            table.insert_prefix(Prefix.from_bits(i, 20, 32), i)
        table.insert_prefix(Prefix.from_bits(0x0A, 8, 32), 1000)
        table.insert_prefix(Prefix.from_bits(0x0A0001_0, 28, 32), 7)
        view = table.vector_reader()
        with monkeypatch.context() as patch:
            derived = _record_intervals(patch)
            table.insert_prefix(Prefix.from_bits(0x0A0001, 24, 32), 5)
            patched = table.vector_reader(prev=view)
        assert derived == [(0x0A000100, 0x0A000200, 8)]
        fresh = table.vector_reader()
        assert patched.lefts.tolist() == fresh.lefts.tolist()
        assert patched.hops.tolist() == fresh.hops.tolist()
        # The /8, the /28 at the /24's start, the rest of the /24, the
        # /8 again.
        keys = np.array([0x0A0000FF, 0x0A000100, 0x0A000110, 0x0A0001FF,
                         0x0A000200], dtype=np.int64)
        assert patched.gather(keys)[0].tolist() == [1000, 7, 5, 5, 1000]

    def test_wide_tcam_range_view_state_round_trip(self):
        """A 64-bit table's left endpoints pass bit 63: they travel in
        the key dtype and come back as the same search."""
        table = TcamTable(64)
        for i in range(40):
            table.insert_prefix(
                Prefix.from_bits((1 << 63) | i, 64, 64), i)      # /64s
            table.insert_prefix(Prefix.from_bits(i, 20, 64), i + 1000)
        view = table.vector_reader()
        kind, meta, arrays = view_state(view)
        assert kind == "range" and arrays["lefts"].dtype == np.uint64
        back = view_from_state(kind, meta, arrays)
        keys = np.array([(1 << 63) | 5, (1 << 63) | 4000, 3 << 44,
                         (3 << 44) | 77, 0, (1 << 64) - 1], dtype=np.uint64)
        _assert_same_gather(back, view, keys)
        assert back.gather(keys)[0].tolist() == [5, 0, 1003, 1003, 1000, 0]

    @given(slots=st.dictionaries(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=63), max_size=24),
        updates=st.dictionaries(
        st.integers(min_value=0, max_value=200),
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
        max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_patch_sparse_view_equals_rebuild(self, slots, updates):
        view = map_view(dict(slots), 8)
        assert isinstance(view, SparseMapView)
        patch_sparse_view(view, updates)
        merged = dict(slots)
        for key, value in updates.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        rebuilt = map_view(merged, 8)
        assert np.array_equal(view.keys, rebuilt.keys)
        assert np.array_equal(view.data, rebuilt.data)


# ---------------------------------------------------------------------------
# Worker-restart resync: delta shipping survives a mid-stream kill
# ---------------------------------------------------------------------------


def test_process_worker_restart_resyncs_then_chains_deltas():
    """Kill a process worker mid-stream: the supervisor restarts it
    from a full snapshot, after which commit deltas chain onto the
    resynced replica — and every answer keeps matching the oracle."""
    base = synthesize_as65000(scale=0.001)
    managed = ManagedFib(lambda fib: Resail(fib, min_bmp=13,
                                            hash_capacity=1 << 16),
                         base, policy=RuntimePolicy(**QUIET), check_seed=11)
    chaos = ChaosPlan([], script=[("kill", 0, 2)])
    probes = uniform_addresses(32, 48, seed=11)

    def total(metric):
        counters = managed.registry.snapshot()["counters"]
        return sum(counters.get(metric, {}).values())

    batches = list(ChurnGenerator(base, seed=11).batches(40, 8))
    with LookupServer(managed=managed, workers=2, mode="process",
                      max_batch=32, chaos=chaos) as server:
        for batch in batches[:-1]:
            assert managed.apply_batch(batch) == "batch_applied"
            for _ in range(2):  # march worker 0 toward the scripted kill
                expected = [managed.oracle.lookup(a) for a in probes]
                assert server.lookup_batch(probes, timeout=60) == expected
        # The supervisor restarts the killed worker on a backoff timer;
        # keep serving until it has (every answer must stay correct).
        deadline = time.monotonic() + 30
        while total("repro_server_restarts_total") < 1:
            assert time.monotonic() < deadline, "worker never restarted"
            expected = [managed.oracle.lookup(a) for a in probes]
            assert server.lookup_batch(probes, timeout=60) == expected
        # One more committed delta must chain onto the resynced replica.
        assert managed.apply_batch(batches[-1]) == "batch_applied"
        expected = [managed.oracle.lookup(a) for a in probes]
        assert server.lookup_batch(probes, timeout=60) == expected
    assert total("repro_server_worker_deaths_total") >= 1
    assert total("repro_server_restarts_total") >= 1
    assert total("repro_server_delta_bytes_total") > 0  # steady state ships deltas
