"""Property-based tests (hypothesis) on the core data structures.

Invariants exercised:
  * the binary trie is a faithful map + LPM oracle against a model dict;
  * prefix expansion preserves longest-match semantics exactly;
  * range expansion + BST search equals trie LPM over the full space;
  * the lane kernels' one floor search over every slice's section
    equals BSIC's BST walk and DXR's binary search, at slice edges and
    on the uint64 path (endpoints >= 2**63);
  * TCAM prefix search equals trie LPM;
  * d-left stores and retrieves arbitrary key/value sets;
  * bit marking is a bijection on (bits, length);
  * RESAIL/BSIC/MASHUP equal the oracle on arbitrary small FIBs;
  * arbitrary update interleavings through the managed runtime never
    leave a stale entry in the engine's FIB cache — commits invalidate
    exactly what they touch, rollbacks leave the cache untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.algorithms import (Bsic, Dxr, LogicalTcam, Mashup, Resail,
                              bit_mark, unmark)
from repro.algorithms.bsic import BstForest
from repro.control import (
    ANNOUNCE,
    WITHDRAW,
    FaultPlan,
    ManagedFib,
    RuntimePolicy,
    UpdateOp,
)
from repro.core.vector import key_dtype
from repro.engine import BatchEngine
from repro.memory import DLeftHashTable, TcamTable
from repro.memory.sram import RangeSections
from repro.prefix import (
    BinaryTrie,
    Fib,
    Prefix,
    RangeEntry,
    expand_to_lengths,
    expand_to_ranges,
    lookup_ranges,
    ranges_to_bst,
)

WIDTH = 8


@st.composite
def prefixes(draw, width=WIDTH, min_len=0):
    length = draw(st.integers(min_len, width))
    bits = draw(st.integers(0, (1 << length) - 1)) if length else 0
    return Prefix.from_bits(bits, length, width)


@st.composite
def entry_lists(draw, width=WIDTH, min_len=0, max_size=24):
    raw = draw(st.lists(
        st.tuples(prefixes(width, min_len), st.integers(0, 15)),
        max_size=max_size,
    ))
    seen, out = set(), []
    for prefix, hop in raw:
        if prefix not in seen:
            seen.add(prefix)
            out.append((prefix, hop))
    return out


def reference_lpm(entries, address):
    best = None
    for prefix, hop in entries:
        if prefix.matches(address):
            if best is None or prefix.length > best[0]:
                best = (prefix.length, hop)
    return best[1] if best else None


class TestTrieProperties:
    @given(entry_lists(), st.integers(0, 255))
    def test_trie_lpm_matches_linear_scan(self, entries, address):
        trie = BinaryTrie(WIDTH)
        for prefix, hop in entries:
            trie.insert(prefix, hop)
        assert trie.lookup(address) == reference_lpm(entries, address)

    @given(entry_lists())
    def test_insert_delete_all_leaves_empty(self, entries):
        trie = BinaryTrie(WIDTH)
        for prefix, hop in entries:
            trie.insert(prefix, hop)
        for prefix, _hop in entries:
            trie.delete(prefix)
        assert len(trie) == 0
        assert all(trie.lookup(a) is None for a in range(0, 256, 17))


class TestExpansionProperties:
    @given(entry_lists(min_len=0), st.integers(0, 255))
    def test_expansion_preserves_lpm(self, entries, address):
        expanded = expand_to_lengths(entries, [2, 5, 8])
        before = BinaryTrie(WIDTH)
        after = BinaryTrie(WIDTH)
        for p, h in entries:
            before.insert(p, h)
        for p, h in expanded:
            after.insert(p, h)
        assert after.lookup(address) == before.lookup(address)

    @given(entry_lists(min_len=0))
    def test_expansion_lengths_are_allowed(self, entries):
        for prefix, _hop in expand_to_lengths(entries, [2, 5, 8]):
            assert prefix.length in (2, 5, 8)


class TestRangeProperties:
    @given(entry_lists(min_len=1), st.integers(0, 255))
    def test_bst_search_equals_lpm(self, entries, address):
        table = expand_to_ranges(entries, WIDTH, default_hop=None)
        bst = ranges_to_bst(table)
        assert bst.search(address) == reference_lpm(entries, address)

    @given(entry_lists(min_len=1))
    def test_ranges_cover_space_sorted_and_merged(self, entries):
        table = expand_to_ranges(entries, WIDTH)
        assert table[0].left == 0
        lefts = [r.left for r in table]
        assert lefts == sorted(set(lefts))
        for a, b in zip(table, table[1:]):
            assert a.next_hop != b.next_hop  # fully merged


@st.composite
def sliced_sections(draw):
    """``(width, k, {slice: section})``: sorted sections that each cover
    their slice from 0 (Appendix A.4's shape).  At width 64 every slice
    sits in the top half, so every endpoint is >= 2**63."""
    width, k = draw(st.sampled_from([(16, 6), (32, 16), (64, 24)]))
    shift = width - k
    low = 1 << (k - 1) if width == 64 else 0
    out = {}
    for slice_bits in draw(st.sets(st.integers(low, (1 << k) - 1),
                                   min_size=1, max_size=4)):
        lefts = [0] + sorted(draw(st.sets(
            st.integers(1, (1 << shift) - 1), max_size=6)))
        hops = draw(st.lists(st.one_of(st.none(), st.integers(0, 255)),
                             min_size=len(lefts), max_size=len(lefts)))
        out[slice_bits] = [RangeEntry(left, hop)
                           for left, hop in zip(lefts, hops)]
    return width, k, out


def edge_keys(width, firsts):
    """Every address one either side of each first address given."""
    return sorted({key for first in firsts
                   for key in (first - 1, first, first + 1)
                   if 0 <= key < 1 << width})


def floor_hops(view, keys, width):
    hops, none = view.floor(np.array(keys, dtype=key_dtype(width)))
    return [None if miss else hop
            for hop, miss in zip(hops.tolist(), none.tolist())]


class TestFloorSearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(sliced_sections())
    def test_floor_search_is_the_bst_walk_and_the_binary_search(self, case):
        width, k, sections = case
        shift = width - k
        ranges, forest = RangeSections(width, shift), BstForest(shift)
        roots = {}
        for slice_bits, section in sections.items():
            ranges.set(slice_bits, section)
            roots[slice_bits] = forest.add_tree(ranges_to_bst(section))
        firsts = [(slice_bits << shift) + offset
                  for slice_bits, section in sections.items()
                  for offset in [e.left for e in section] + [1 << shift]]
        keys = [key for key in edge_keys(width, firsts)
                if key >> shift in sections]
        top = (1 << shift) - 1
        for key, hop in zip(keys, floor_hops(ranges.freeze(), keys, width)):
            slice_bits, suffix = key >> shift, key & top
            assert hop == forest.search(roots[slice_bits], suffix) \
                == lookup_ranges(sections[slice_bits], suffix), hex(key)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(9, 64),
                              st.integers(0, (1 << 64) - 1),
                              st.integers(0, 15)), min_size=1, max_size=12))
    def test_floor_search_answers_dxr_and_bsic_on_uint64_lanes(self, routes):
        k, shift, fib = 8, 56, Fib(64)
        for length, bits, hop in routes:  # top bit set: uint64 keys
            top_bits = bits >> (64 - length) | 1 << (length - 1)
            fib.insert(Prefix.from_bits(top_bits, length, 64), hop)
        dxr, bsic = Dxr(fib, k=k), Bsic(fib, k=k)
        grouped = dxr._slices.groups
        firsts = [first for prefix, _hop in fib for first in (
            prefix.value, prefix.value + (1 << 64 - prefix.length))]
        firsts += [first for slice_bits in grouped
                   for first in (slice_bits << shift, slice_bits + 1 << shift)]
        keys = [key for key in edge_keys(64, firsts)
                if key >> shift in grouped]
        expected = [fib.lookup(key) for key in keys]
        assert [dxr.lookup(key) for key in keys] == expected
        assert floor_hops(dxr._sections.freeze(), keys, 64) == expected
        assert floor_hops(bsic._sections.freeze(), keys, 64) == expected


class TestTcamProperties:
    @given(entry_lists(min_len=0), st.integers(0, 255))
    def test_tcam_prefix_search_is_lpm(self, entries, address):
        tcam = TcamTable(WIDTH)
        for prefix, hop in entries:
            tcam.insert_prefix(prefix, hop)
        assert tcam.search(address) == reference_lpm(entries, address)


class TestDleftProperties:
    @given(st.dictionaries(st.integers(0, (1 << 20) - 1), st.integers(0, 255),
                           max_size=200))
    def test_stores_arbitrary_maps(self, mapping):
        table = DLeftHashTable(20, 8, capacity=max(1, len(mapping)))
        for key, value in mapping.items():
            table.insert(key, value)
        for key, value in mapping.items():
            assert table.lookup(key) == value
        assert len(table) == len(mapping)


class TestBitMarkingProperties:
    @given(st.integers(0, 24).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1 if n else 0))
    ))
    def test_bijection(self, args):
        length, bits = args
        assert unmark(bit_mark(bits, length)) == (bits, length)


class TestAlgorithmProperties:
    @settings(max_examples=25, deadline=None)
    @given(entry_lists(max_size=16))
    def test_bsic_equals_oracle(self, entries):
        fib = Fib(WIDTH, entries)
        bsic = Bsic(fib, k=4)
        for address in range(0, 256, 5):
            assert bsic.lookup(address) == fib.lookup(address)

    @settings(max_examples=25, deadline=None)
    @given(entry_lists(max_size=16))
    def test_mashup_equals_oracle(self, entries):
        fib = Fib(WIDTH, entries)
        mashup = Mashup(fib, [3, 2, 3])
        for address in range(0, 256, 5):
            assert mashup.lookup(address) == fib.lookup(address)

@st.composite
def update_batches(draw, width=WIDTH, max_batches=4, max_batch_size=6,
                   announce_only=False):
    """Batches of announce/withdraw interleavings over a small space.

    ``announce_only`` keeps every op valid (withdraws of absent routes
    are absorbed at validation, which can empty a batch).
    """
    n_batches = draw(st.integers(1, max_batches))
    batches = []
    for _ in range(n_batches):
        ops = []
        for _ in range(draw(st.integers(1, max_batch_size))):
            prefix = draw(prefixes(width, min_len=1))
            if announce_only or draw(st.booleans()):
                ops.append(UpdateOp(ANNOUNCE, prefix,
                                    draw(st.integers(0, 15))))
            else:
                ops.append(UpdateOp(WITHDRAW, prefix))
        batches.append(ops)
    return batches


class TestEngineCacheProperties:
    """No stale cache entry survives a commit — or a rollback.

    The engine subscribes to :class:`ManagedFib` commits; whatever
    interleaving of announces and withdraws lands (including withdraws
    of absent prefixes and re-announcements with new hops), after every
    batch each cached ``(address, hop)`` pair and every engine answer
    must equal the post-batch oracle.
    """

    PROBES = list(range(0, 256, 7))

    @settings(max_examples=40, deadline=None)
    @given(entry_lists(max_size=12), update_batches())
    def test_no_stale_cache_entry_survives_a_commit(self, entries, batches):
        managed = ManagedFib(lambda f: LogicalTcam(f), Fib(WIDTH, entries))
        engine = BatchEngine.over_managed(managed, cache_size=16)
        engine.lookup_batch(self.PROBES)  # populate the cache
        for batch in batches:
            outcome = managed.apply_batch(batch)
            assert outcome in ("batch_applied", "batch_rebuilt")
            oracle = managed.oracle
            for address, hop in engine.cache.items():
                assert hop == oracle.lookup(address)
            for address in self.PROBES:
                assert engine.lookup(address) == oracle.lookup(address)

    @settings(max_examples=25, deadline=None)
    @given(entry_lists(max_size=12),
           update_batches(max_batches=2, announce_only=True))
    def test_rollback_leaves_cache_consistent(self, entries, batches):
        # Every attempt faults, retries are off, and the rebuild budget
        # is zero: each batch must roll back, fire no commit listener,
        # and leave the cache exactly as consistent as before.
        managed = ManagedFib(
            lambda f: LogicalTcam(f),
            Fib(WIDTH, entries),
            policy=RuntimePolicy(max_retries=0, rebuild_budget=0),
            faults=FaultPlan.build(["mid_update_exception"], seed=9,
                                   rate=1.0),
        )
        engine = BatchEngine.over_managed(managed, cache_size=16)
        engine.lookup_batch(self.PROBES)
        cached_before = dict(engine.cache.items())
        for batch in batches:
            assert managed.apply_batch(batch) == "batch_rolled_back"
            assert dict(engine.cache.items()) == cached_before
            oracle = managed.oracle
            for address in self.PROBES:
                assert engine.lookup(address) == oracle.lookup(address)
            cached_before = dict(engine.cache.items())
        assert engine.registry.counter(
            "repro_engine_plan_recompiles_total", ""
        ).value(engine="engine") == 0


class TestResailWideProperties:
    @settings(max_examples=20, deadline=None)
    @given(entry_lists(width=32, min_len=1, max_size=12))
    def test_resail_equals_oracle(self, entries):
        fib = Fib(32, entries)
        resail = Resail(fib, min_bmp=13, hash_capacity=1 << 16)
        probes = [p.value | (0x5A5A5A5A >> p.length if p.length < 32 else 0)
                  for p, _ in entries] + [0, 0xFFFFFFFF, 0x0A0A0A0A]
        for address in probes:
            address &= 0xFFFFFFFF
            assert resail.lookup(address) == fib.lookup(address)
