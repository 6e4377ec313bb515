"""Differential kernel-conformance fuzzer for the lane compiler.

Hypothesis generates random FIBs, churn batches, and address mixes;
every example asserts the four execution paths agree for all nine
algorithms:

    vector plan == scalar plan == CRAM interpreter == binary-trie oracle

post-commit and post-rollback.  The address mixes
deliberately include *adversarial-depth* probes — prefix endpoints and
their ±1 neighbours, which exercise the deepest tree walks and the
equal/greater branches of every BST kernel — and the width-62/63/64
boundary, where the address lanes change from ``int64`` to ``uint64``
(``key_dtype``) and a mixed-dtype operation would round through
``float64``: all seven width-generic schemes must lower and agree with
the oracle on both sides of it.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    Bsic,
    Dxr,
    HiBst,
    LogicalTcam,
    Mashup,
    MultibitTrie,
    Poptrie,
    Resail,
    Sail,
)
from repro.control import CapacityGuard, ChurnGenerator, ManagedFib
from repro.core import MISS_HOP, compile_plan, compile_vector_plan
from repro.core.vector import (Lanes, RangeView, SparseMapView, key_dtype,
                               view_state)
from repro.memory import DLeftHashTable, ExactMatchTable
from repro.prefix import Fib, Prefix

#: The nine schemes at their fuzzing widths (SAIL/RESAIL are IPv4-only).
MAKERS = {
    "ltcam": (8, lambda fib: LogicalTcam(fib)),
    "hibst": (8, lambda fib: HiBst(fib)),
    "bsic": (8, lambda fib: Bsic(fib, k=4)),
    "dxr": (8, lambda fib: Dxr(fib, k=4)),
    "multibit": (8, lambda fib: MultibitTrie(fib, [4, 4])),
    "mashup": (8, lambda fib: Mashup(fib, [3, 2, 3])),
    "poptrie": (8, lambda fib: Poptrie(fib, dp_bits=4)),
    "sail": (32, lambda fib: Sail(fib)),
    "resail": (32, lambda fib: Resail(fib, min_bmp=13)),
}

#: Lane-width boundary: 63 is the last width whose keys are int64;
#: a 64-bit key is uint64.  The seven width-generic schemes.
BOUNDARY_MAKERS = {
    "ltcam": lambda fib: LogicalTcam(fib),
    "hibst": lambda fib: HiBst(fib),
    "bsic": lambda fib: Bsic(fib, k=16),
    "dxr": lambda fib: Dxr(fib, k=16),
    "multibit": lambda fib: MultibitTrie(
        fib, [16, 16, 16, fib.width - 48]),
    "mashup": lambda fib: Mashup(fib, [16, 16, 16, fib.width - 48]),
    "poptrie": lambda fib: Poptrie(fib, dp_bits=16),
}

entry_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),   # raw length
              st.integers(min_value=0, max_value=(1 << 64) - 1),  # bits
              st.integers(min_value=0, max_value=63)),  # hop
    min_size=0, max_size=24)


def build_fib(width: int, entries) -> Fib:
    fib = Fib(width)
    for raw_length, raw_bits, hop in entries:
        length = raw_length % (width + 1)
        fib.insert(Prefix.from_bits(raw_bits & ((1 << length) - 1),
                                    length, width), hop)
    return fib


def probe_addresses(fib: Fib, extras) -> list:
    """Adversarial-depth mix: every prefix's endpoints and their ±1
    neighbours (deepest walks, both compare branches), plus random
    draws and the address-space corners."""
    width = fib.width
    top = (1 << width) - 1
    addresses = {0, top, top >> 1, (top >> 1) + 1}
    for prefix, _hop in fib:
        lo = prefix.value
        hi = prefix.value | ((1 << (width - prefix.length)) - 1)
        for address in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            if 0 <= address <= top:
                addresses.add(address)
    for extra in extras:
        addresses.add(extra & top)
    return sorted(addresses)


def assert_paths_agree(algo, fib, addresses, interpreter_every=16):
    expected = [fib.lookup(a) for a in addresses]
    plan = compile_plan(algo)
    assert [plan.lookup(a) for a in addresses] == expected
    vplan = compile_vector_plan(algo, plan=plan)
    assert vplan.fully_lowered
    assert vplan.lookup_batch_hops(addresses) == expected
    # The per-packet interpreter re-derives the schedule per call:
    # probe a deterministic subset.
    for address in addresses[::max(1, len(addresses) // interpreter_every)]:
        assert algo.cram_lookup(address) == fib.lookup(address)


@pytest.mark.parametrize("name", sorted(MAKERS))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_differential_paths_agree(name, entries, extras):
    width, maker = MAKERS[name]
    fib = build_fib(width, entries)
    algo = maker(fib)
    assert_paths_agree(algo, fib, probe_addresses(fib, extras))


@pytest.mark.parametrize("width", (62, 63, 64))
@pytest.mark.parametrize("name", sorted(BOUNDARY_MAKERS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_differential_width_boundaries(name, width, entries, extras):
    fib = build_fib(width, entries)
    algo = BOUNDARY_MAKERS[name](fib)
    addresses = probe_addresses(fib, extras)
    expected = [fib.lookup(a) for a in addresses]
    plan = compile_plan(algo)
    assert [plan.lookup(a) for a in addresses] == expected
    vplan = compile_vector_plan(algo, plan=plan)
    # The real kernels on both sides of the dtype boundary.
    assert vplan.fully_lowered and len(vplan) > 0
    assert vplan.lookup_batch_hops(addresses) == expected


@pytest.mark.parametrize("name", sorted(MAKERS))
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_post_commit_and_post_rollback(name, seed):
    width, maker = MAKERS[name]
    base = build_fib(width, [(1, 1, 1), (3, 5, 2), (width, 77, 3)])
    for guard, expect_outcome in (
        (CapacityGuard(tcam_blocks=1 << 30, sram_pages=1 << 30,
                       stage_budget=1 << 30,
                       dleft_overflow_limit=1 << 30), "commit"),
        (CapacityGuard(tcam_blocks=0, sram_pages=0, stage_budget=1,
                       dleft_overflow_limit=0), "rollback"),
    ):
        managed = ManagedFib(maker, base, guard=guard)
        outcomes = set()
        for batch in ChurnGenerator(base, seed=seed).batches(4, 6):
            outcomes.add(managed.apply_batch(batch))
            # After every landed OR rolled-back batch, the committed
            # structure must still answer like the committed oracle
            # through all four paths.
            oracle = managed.oracle
            addresses = probe_addresses(oracle, [seed])
            assert_paths_agree(managed.algo, oracle, addresses,
                               interpreter_every=4)
        if expect_outcome == "rollback":
            # A batch may still land under the punitive guard — but
            # only by shrinking the FIB inside the budget (e.g. a
            # trace that withdraws every route); anything else must
            # roll back.
            assert outcomes <= {"batch_rolled_back", "batch_applied",
                                "batch_rebuilt"}
            if outcomes != {"batch_rolled_back"}:
                hard, _soft = guard.inspect(managed.algo)
                assert not hard, (outcomes, hard)
        else:
            assert "batch_rolled_back" not in outcomes


# ---------------------------------------------------------------------------
# Edges of the adopt-on-write register file and RESAIL's stacked level
# ---------------------------------------------------------------------------

#: One fixed table per width for the non-hypothesis edges below.
FIXED_ENTRIES = [(0, 0, 9), (1, 1, 1), (3, 5, 2), (5, 19, 3), (8, 77, 4),
                 (8, 200, 5), (13, 0x0ABC, 6), (16, 0xC0A8, 7),
                 (24, 0xC0A801, 8), (27, 0xC0A80100 >> 5, 10),
                 (32, 0xC0A801FF, 11)]


def view_bytes(vplan):
    """Every array of every compiled table view, as bytes."""
    return {(step, field): array.tobytes()
            for step, view in vplan.view_map().items()
            for field, array in view_state(view)[2].items()}


def check_view_dtypes(step, view, keys):
    """A view's key arrays have the table's key dtype, its data is
    ``int64`` — the two halves of the contract never share an array."""
    if isinstance(view, SparseMapView):
        pairs = [(view.keys, view.data)]
    elif isinstance(view, RangeView):
        pairs = [(view.lefts, view.hops)]
        assert view.none.dtype == np.bool_, (step, view.none.dtype)
    else:
        return  # bitmap / dense views are indexed, not compared
    for key_array, data in pairs:
        assert key_array.dtype == keys, (step, key_array.dtype)
        assert data.dtype == np.int64, (step, data.dtype)


def check_register_file_contract(algo, fib, extras):
    vplan = compile_vector_plan(algo)
    assert vplan.fully_lowered
    program = vplan.plan.program
    views = dict(vplan.view_map())
    for step in vplan.lowered_steps:   # views the compiler resolved itself
        backing = getattr(program.step(step).table, "backing", None)
        if step not in views and hasattr(backing, "vector_reader"):
            views[step] = backing.vector_reader()
    for step, view in views.items():
        # A keyless table's range view (BSIC's BSTs, DXR's ranges) is
        # searched by the whole address.
        width = program.step(step).table.key_width
        if isinstance(view, RangeView) and not width:
            width = fib.width
        check_view_dtypes(step, view, key_dtype(width))
    addrs = np.asarray(probe_addresses(fib, extras),
                       dtype=key_dtype(fib.width))
    lanes = Lanes(vplan._registers, len(addrs))
    for reg, value in vplan._base_items:
        lanes.fill(reg, value)
    lanes.assign("addr", addrs)
    owned_by_views = [array for view in vplan.view_map().values()
                      for array in view_state(view)[2].values()]
    for step, kernel in zip(vplan.lowered_steps, vplan._kernels):
        kernel(lanes)
        held = []
        for reg, vals in lanes.vals.items():
            none = lanes.none[reg]
            # ``addr`` is the one key register; a float64 anywhere is
            # a mixed-dtype operation that rounded at bit 53.
            want = key_dtype(fib.width) if reg == "addr" else np.int64
            assert vals.dtype == want and vals.shape == addrs.shape, \
                (step, reg, vals.dtype)
            held.append((reg, vals))
            if none is not None:
                assert none.dtype == np.bool_ and none.shape == addrs.shape
                assert not vals[none].any(), (step, reg)
                held.append((reg + ".none", none))
        for i, (reg, array) in enumerate(held):
            for other, array2 in held[i + 1:]:
                assert not np.shares_memory(array, array2), (step, reg, other)
            for array2 in owned_by_views:
                assert not np.shares_memory(array, array2), (step, reg)
    vals, none = vplan._extract(lanes)
    assert vals.dtype == np.int64 and none.dtype == np.bool_
    assert np.where(none, None, vals).tolist() == \
        [fib.lookup(a) for a in addrs.tolist()]


@pytest.mark.parametrize("name", sorted(MAKERS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_register_file_contract_after_every_kernel(name, entries, extras):
    """``Lanes.assign`` adopts what the kernels hand it, so what it
    used to enforce is checked here instead, after every kernel of
    every scheme: ``addr`` in the key dtype and every other register an
    int64 lane vector, 0 under ``none``, and no array owned by two
    registers or by a table view (a later ``assign_where`` would write
    through)."""
    width, maker = MAKERS[name]
    fib = build_fib(width, entries)
    check_register_file_contract(maker(fib), fib, extras)


@pytest.mark.parametrize("width", (63, 64))
@pytest.mark.parametrize("name", sorted(BOUNDARY_MAKERS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_register_file_contract_at_the_key_dtype_boundary(name, width,
                                                          entries, extras):
    """The same contract where it splits: at width 64 ``addr`` and the
    full-width key columns are ``uint64``, at 63 they are still
    ``int64``, and everything derived from them is ``int64`` at both."""
    fib = build_fib(width, entries)
    check_register_file_contract(BOUNDARY_MAKERS[name](fib), fib, extras)


@pytest.mark.parametrize("width", (63, 64))
def test_exact_match_views_carry_the_key_dtype(width):
    """No width-generic scheme puts a 64-bit key in a hash table, so the
    ``map_view`` half of the contract is checked on the tables directly:
    a probe for ``2**width - 1`` finds it, through ``prev=`` too."""
    top = (1 << width) - 1
    probe = np.array([top, top - 1, 0], dtype=key_dtype(width))
    exact = ExactMatchTable(width, 8)
    dleft = DLeftHashTable(width, 8, capacity=16)
    for table, put in ((exact, exact.store), (dleft, dleft.insert)):
        put(top, 7)
        put(5, 2)
        view = table.vector_reader()
        check_view_dtypes(table.name, view, key_dtype(width))
        vals, found = view.gather(probe)
        assert (vals.tolist(), found.tolist()) == \
            ([7, 0, 0], [True, False, False])
    dleft.insert(top - 1, 9)
    assert dleft.vector_reader(prev=view) is view
    check_view_dtypes(dleft.name, view, key_dtype(width))
    assert view.gather(probe)[0].tolist() == [7, 9, 0]


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_batch_sizes_across_the_chunk_seam(name):
    width, maker = MAKERS[name]
    fib = build_fib(width, FIXED_ENTRIES)
    algo = maker(fib)
    plan = compile_plan(algo)
    vplan = compile_vector_plan(algo, plan=plan)
    rng = random.Random(width)
    pool = probe_addresses(fib, [rng.getrandbits(64) for _ in range(64)])
    before = view_bytes(vplan)
    for n in (0, 1, 4_096, 4_097, 8_193):   # DEFAULT_CHUNK is 4,096
        addresses = [rng.choice(pool) for _ in range(n)]
        expected = [fib.lookup(a) for a in addresses]
        raw = vplan.lookup_batch(addresses)
        assert raw.dtype == np.int64 and raw.shape == (n,)
        assert [None if hop == MISS_HOP else hop
                for hop in raw.tolist()] == expected
        assert vplan.lookup_batch_hops(addresses) == expected
        assert vplan.lookup_batch_hops(
            np.asarray(addresses, dtype=np.int64)) == expected
        assert plan.lookup_batch(addresses) == expected
    # No kernel wrote into an array a view owns.
    assert view_bytes(vplan) == before


def resail_edge_fib():
    fib = Fib(32)
    for bits, length, hop in (
            (0x05, 8, 1),                   # short: expands into B13
            (0x0ABC >> 1, 12, 2),           # short: expands into B13
            (0x1ABC, 13, 3),                # a real /13
            (0xC0A8, 16, 4), (0xC0A801, 24, 5),
            (0xC0A80100 >> 7, 25, 6),       # look-aside, under the /24
            (0xC0A801F0 >> 4, 28, 7), (0xC0A801FF, 32, 8),
            (0x0B000001, 32, 9)):           # look-aside, no bitmap hit
        fib.insert(Prefix.from_bits(bits, length, 32), hop)
    return fib


RESAIL_EDGE_BATCHES = {
    "all-look-aside": [0xC0A80100, 0xC0A8017F, 0xC0A801F0, 0xC0A801FE,
                       0xC0A801FF, 0x0B000001] * 11,
    "all-miss": [0, 0x0B000000, 0x0B000002, 0xC0A70000, 0xFFFFFFFF,
                 0x7FFFFFFF, 0x80000000] * 9,
    # Shorter than min_bmp or exactly /13, nothing longer over them:
    # the only set bit in the lane matrix is in the bitmap_13 row.
    "only-bitmap-13": [0x05 << 24, (0x05 << 24) | 0xFFFFFF,
                       0x55E << 20, (0x55E << 20) | 0xFFFFF,
                       0x1ABC << 19, (0x1ABC << 19) | 0x7FFFF] * 10,
}


@pytest.mark.parametrize("label", sorted(RESAIL_EDGE_BATCHES))
def test_resail_stacked_level_edge_batches(label):
    fib = resail_edge_fib()
    algo = Resail(fib, min_bmp=13)
    plan = compile_plan(algo)
    vplan = compile_vector_plan(algo, plan=plan)
    addresses = RESAIL_EDGE_BATCHES[label]
    matched = [fib.lookup_prefix(a) for a in addresses]
    if label == "all-look-aside":
        assert all(p is not None and p.length > 24 for p in matched)
    elif label == "all-miss":
        assert matched == [None] * len(addresses)
    else:
        assert all(p is not None and p.length <= 13 for p in matched)
        assert {p.length for p in matched} == {8, 12, 13}
    expected = [fib.lookup(a) for a in addresses]
    assert plan.lookup_batch(addresses) == expected
    assert vplan.lookup_batch_hops(addresses) == expected
    # The vector path leaves the CRAM program's key_i registers alone.
    assert vplan.describe()["lowered_steps"] == list(plan.step_names)


def test_resail_kernels_read_patched_and_replaced_views(monkeypatch):
    """A delta commit re-freezes each touched view through
    ``vector_reader(prev=)``: replayed in place while the write log
    reaches back to it, a fresh view object once the log was trimmed
    past it.  The stacked kernels read the new bits either way."""
    import repro.memory.sram as sram_module
    from repro.control import UpdateOp
    from repro.control.churn import ANNOUNCE, WITHDRAW
    from repro.engine import BatchEngine

    base = resail_edge_fib()
    managed = ManagedFib(lambda fib: Resail(fib, min_bmp=13), base)
    engine = BatchEngine.over_managed(managed, name="e")

    def check(extra):
        oracle = managed.oracle
        addresses = probe_addresses(oracle, extra)
        assert engine.vector_plan.lookup_batch_hops(addresses) == \
            [oracle.lookup(a) for a in addresses]

    def count(name):
        return engine.registry.get(name).value(engine="e")

    def views():
        return engine.vector_plan.view_map()

    check([])
    view24, view20, hash_view = (views()[step] for step in
                                 ("bitmap_24", "bitmap_20", "hash"))
    new24 = Prefix.from_bits(0x0C0102, 24, 32)
    assert managed.apply_batch(
        [UpdateOp(ANNOUNCE, new24, 21),
         UpdateOp(WITHDRAW, Prefix.from_bits(0xC0A801, 24, 32))]) \
        == "batch_applied"
    assert count("repro_engine_plan_patches_total") == 1
    # Replayed in place: same view objects, the kernels see the bits.
    assert views()["bitmap_24"] is view24
    assert views()["hash"] is hash_view
    assert view24.packed[0x0C0102] == 1 and view24.packed[0xC0A801] == 0
    assert engine.vector_plan.lookup(0x0C010203) == 21
    assert engine.vector_plan.lookup(0xC0A801C0) == 4   # the /16 again
    check([0x0C010203, 0xC0A801C0])

    # Trim the log past the compiled views: more /20 writes in one
    # commit than the cap keeps.
    monkeypatch.setattr(sram_module, "FREEZE_LOG_CAP", 4)
    batch = [UpdateOp(ANNOUNCE, Prefix.from_bits(0x0D000 + i, 20, 32), 30 + i)
             for i in range(12)]
    assert managed.apply_batch(batch) == "batch_applied"
    assert count("repro_engine_plan_patches_total") == 2
    assert count("repro_engine_plan_recompiles_total") == 0
    fresh20 = views()["bitmap_20"]
    assert fresh20 is not view20                     # a new view object
    assert views()["bitmap_24"] is view24            # untouched
    assert view20.packed[0x0D005] == 0 and fresh20.packed[0x0D005] == 1
    assert engine.vector_plan.lookup(0x0D005123) == 35
    check([0x0D000000, 0x0D00B999, 0x0D00C000])


#: Warm-start legs: each scheme, and views its artifact must persist.
MAPPED_VIEWS = {
    "resail": (lambda fib: Resail(fib, min_bmp=13),
               {"hash", "bitmap_13", "bitmap_24"}),
    "sail": (Sail, {"bitmap_1", "bitmap_24", "array_8", "array_24"}),
}


@pytest.mark.parametrize("name", sorted(MAPPED_VIEWS))
def test_kernels_over_read_only_mapped_views(tmp_path, name):
    """Warm start: the first compile adopts its views from the mapped
    artifact — every array of every view *is* a mapped section, not a
    re-flattened copy.  The kernels only ever read them, shown by
    serving with every adopted array marked read-only."""
    from repro.artifact import ArtifactCatalog

    factory, expect = MAPPED_VIEWS[name]
    fib = resail_edge_fib()
    algo = factory(fib)
    catalog = ArtifactCatalog(str(tmp_path))
    catalog.save("edge", algo, fib, vector_plan=algo.compile_vector_plan())
    loaded = catalog.load("edge")
    warm = loaded.algorithm()
    vplan = warm.compile_vector_plan()
    adopted = vplan.view_map()
    assert expect <= set(adopted)
    # Adopted by the first compile only: no two plans share a view.
    again = warm.compile_vector_plan().view_map()
    assert all(again[step] is not view for step, view in adopted.items())
    for step, view in adopted.items():
        for field, array in view_state(view)[2].items():
            assert not array.size or np.shares_memory(
                array, loaded.arrays[f"view/{step}/{field}"]), (step, field)
            array.flags.writeable = False
    before = view_bytes(vplan)
    addresses = probe_addresses(fib, [])
    addresses += [a for batch in RESAIL_EDGE_BATCHES.values() for a in batch]
    expected = [fib.lookup(a) for a in addresses]
    for _ in range(2):
        assert vplan.lookup_batch_hops(addresses) == expected
    assert view_bytes(vplan) == before
