"""The lane compiler: SoA register file, vector views, snapshots.

Conformance of the vector plan against the oracle is covered by
``test_engine_conformance.py``; this file tests the machinery itself —
:class:`~repro.core.vector.Lanes` invariants, the ``gather`` contract
of each view, snapshot isolation (a compiled vector plan must keep
answering from its frozen tables until recompiled), the ``MISS_HOP``
sentinel convention, scalar delegation for over-wide addresses, what
the engine reports as its ``active_backend``, and the thread server's
refusal of a plan that did not lower.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Bsic, HiBst, LogicalTcam, MultibitTrie, Sail
from repro.control import ChurnGenerator, ManagedFib
from repro.core import (
    MISS_HOP,
    VectorError,
    VectorStepSpec,
    compile_plan,
    compile_vector_plan,
)
from repro.core.vector import (
    DENSE_LIMIT,
    BitmapView,
    DenseArrayView,
    Lanes,
    RangeView,
    SparseMapView,
    map_view,
    popcount64,
)
from repro.engine import BatchEngine
from repro.prefix import Fib, Prefix
from repro.server import LookupServer


class UnloweredTcam(LogicalTcam):
    """LogicalTcam with its lowering withheld: nothing lowers.

    All nine real algorithms lower fully at lane-compatible widths, so
    the delegation path needs a synthetic algorithm (or an over-wide
    table) to stay covered.
    """

    def vector_specs(self, prev):
        return {}


def small_v4_fib():
    fib = Fib(32)
    fib.insert(Prefix.from_bits(0x0A, 8, 32), 1)        # 10.0.0.0/8
    fib.insert(Prefix.from_bits(0x0A01, 16, 32), 2)     # 10.1.0.0/16
    fib.insert(Prefix.from_bits(0xC0A801, 24, 32), 3)   # 192.168.1.0/24
    fib.insert(Prefix.from_bits(0xC0A80180 >> 6, 26, 32), 4)
    return fib


def small_v8_fib():
    fib = Fib(8)
    fib.insert(Prefix.from_bits(0b1, 1, 8), 1)
    fib.insert(Prefix.from_bits(0b1010, 4, 8), 2)
    fib.insert(Prefix.from_bits(0b00110011, 8, 8), 3)
    return fib


# ---------------------------------------------------------------------------
# Lanes: the SoA register file
# ---------------------------------------------------------------------------


class TestLanes:
    def test_none_lanes_hold_zero(self):
        # assign adopts: handing in 0 under ``none`` is the producer's
        # contract (np.where(hit, x, 0)), which the reads rely on.
        lanes = Lanes(["r"], 4)
        hit = np.array([True, False, True, False])
        lanes.assign("r", np.where(hit, np.array([5, 6, 7, 8]), 0),
                     none=~hit)
        assert lanes.values("r").tolist() == [5, 0, 7, 0]
        assert lanes.is_none("r").tolist() == [False, True, False, True]
        assert lanes.truthy("r").tolist() == [True, False, True, False]
        assert lanes.present("r").tolist() == [True, False, True, False]

    def test_assign_where_masks_and_clears(self):
        lanes = Lanes(["r"], 4)
        lanes.fill("r", 9)
        where = np.array([True, False, True, False])
        lanes.assign_where("r", where, np.array([1, 2, 3, 4]),
                           none=np.array([False, True, True, True]))
        # Unselected lanes keep their value; selected lane 2 went None.
        assert lanes.values("r").tolist() == [1, 9, 0, 9]  # 0: sentinel
        assert lanes.is_none("r").tolist() == [False, False, True, False]

    def test_fill_none_and_roundtrip(self):
        lanes = Lanes(["r"], 3)
        lanes.fill("r", 42)
        assert lanes.values("r").tolist() == [42] * 3
        assert not lanes.is_none("r").any()
        lanes.fill("r", None)
        assert lanes.is_none("r").all()
        assert lanes.values("r").tolist() == [0] * 3  # sentinel invariant

    def test_nothing_is_allocated_until_touched(self):
        lanes = Lanes(["a", "b"], 3)
        assert lanes.vals == {} and lanes.none == {} and lanes.mats == {}
        # A register no kernel wrote reads as None / 0 in every lane,
        # through every accessor, and costs an array only then.
        assert lanes.values("a").tolist() == [0, 0, 0]
        assert lanes.is_none("a").all()
        assert not lanes.present("a").any() and not lanes.truthy("a").any()
        assert set(lanes.vals) == {"a"}
        assert not lanes.truthy("b").any() and lanes.is_none("b").all()

    def test_assign_adopts_without_copying(self):
        lanes = Lanes(["r", "s"], 3)
        vals = np.array([4, 0, 6])
        none = np.array([False, True, False])
        lanes.assign("r", vals, none=none)
        assert lanes.values("r") is vals and lanes.is_none("r") is none
        # "No lane is None" stores no mask until somebody asks for it.
        lanes.assign("s", vals + 1)
        assert lanes.none["s"] is None
        assert lanes.truthy("s").all() and lanes.none["s"] is None
        assert not lanes.is_none("s").any() and lanes.present("s").all()
        # A partial write lands in the adopted array, in place.
        lanes.assign_where("r", np.array([False, True, False]), 9)
        assert vals.tolist() == [4, 9, 6] and not none.any()

    def test_assign_where_on_an_unwritten_register(self):
        lanes = Lanes(["r", "s"], 4)
        where = np.array([True, False, True, False])
        lanes.assign_where("r", where, np.array([1, 2, 3, 4]))
        assert lanes.values("r").tolist() == [1, 0, 3, 0]
        assert lanes.is_none("r").tolist() == [False, True, False, True]
        lanes.assign_where("s", where, np.array([1, 2, 3, 4]),
                           none=np.array([False, False, True, False]))
        assert lanes.values("s").tolist() == [1, 0, 0, 0]
        assert lanes.is_none("s").tolist() == [False, True, True, True]

    def test_assign_where_with_none_on_an_all_present_register(self):
        lanes = Lanes(["r"], 3)
        lanes.assign("r", np.array([7, 8, 9]))
        lanes.assign_where("r", np.array([False, True, True]),
                           np.array([1, 2, 3]),
                           none=np.array([True, True, False]))
        assert lanes.values("r").tolist() == [7, 0, 3]
        assert lanes.is_none("r").tolist() == [False, True, False]

    def test_unknown_register_is_an_error_not_a_new_register(self):
        lanes = Lanes(frozenset(["r"]), 2)
        for touch in (lambda: lanes.values("typo"),
                      lambda: lanes.is_none("typo"),
                      lambda: lanes.truthy("typo"),
                      lambda: lanes.assign("typo", np.zeros(2, np.int64)),
                      lambda: lanes.assign_where(
                          "typo", np.ones(2, dtype=bool), 1)):
            with pytest.raises(KeyError):
                touch()
        assert lanes.vals == {}

    def test_lane_matrix_is_shared_by_name(self):
        lanes = Lanes(["r"], 5)
        mat = lanes.matrix("m", 3, np.uint8)
        assert mat.shape == (3, 5) and mat.dtype == np.uint8
        assert lanes.matrix("m", 3, np.uint8) is mat
        assert lanes.vals == {}  # a matrix is not a register


# ---------------------------------------------------------------------------
# Vector table views
# ---------------------------------------------------------------------------


class TestViews:
    def test_bitmap_view_found_equals_probed(self):
        view = BitmapView(np.array([0, 1, 0, 1], dtype=np.uint8))
        keys = np.array([0, 1, 2, 3])
        active = np.array([True, True, False, True])
        vals, found = view.gather(keys, active)
        assert vals.tolist() == [0, 1, 0, 1]
        assert found.tolist() == [True, True, False, True]

    def test_dense_view_distinguishes_zero_from_absent(self):
        view = map_view({0: 0, 2: 5}, 2, capacity=4)
        assert isinstance(view, DenseArrayView)
        vals, found = view.gather(np.array([0, 1, 2, 3]),
                                  np.ones(4, dtype=bool))
        assert found.tolist() == [True, False, True, False]
        assert vals.tolist() == [0, 0, 5, 0]

    def test_sparse_view_probe_and_empty(self):
        view = map_view({1 << 30: 7, 5: 2}, 32)  # no capacity: sparse
        assert isinstance(view, SparseMapView)
        vals, found = view.gather(np.array([5, 6, 1 << 30]),
                                  np.ones(3, dtype=bool))
        assert vals.tolist() == [2, 0, 7]
        assert found.tolist() == [True, False, True]
        empty = map_view({}, 32, capacity=DENSE_LIMIT + 1)
        vals, found = empty.gather(np.array([3]), np.ones(1, dtype=bool))
        assert not found.any() and vals.tolist() == [0]

    def test_map_view_rejects_non_int_values(self):
        assert map_view({1: ("obj",)}, 8) is None
        # Stored None means miss and is dropped, like the scalar reader.
        view = map_view({1: None, 2: 9}, 2, capacity=4)
        _vals, found = view.gather(np.array([1, 2]), np.ones(2, dtype=bool))
        assert found.tolist() == [False, True]

    def test_tcam_view_first_row_wins(self):
        """(Id kept from when the view was a row matrix.)  Where two
        rows match, the first — the longer prefix — wins in the range
        view too."""
        from repro.memory.tcam import TcamTable

        table = TcamTable(8)
        table.insert_prefix(Prefix.from_bits(0b1010, 4, 8), 1)
        table.insert_prefix(Prefix.from_bits(0b10, 2, 8), 2)
        view = table.vector_reader()
        assert isinstance(view, RangeView)
        keys = np.array([0b1010_1010, 0b1001_0000, 0b0000_0001])
        vals, found = view.gather(keys, np.ones(3, dtype=bool))
        assert vals.tolist() == [1, 2, 0]
        assert found.tolist() == [True, True, False]

    def test_tcam_group_view_matches_matrix_view(self):
        """(Id kept from when a large table froze to a group view.)  The
        range view a table of many rows freezes to answers every key as
        the ternary matrix built by hand from its rows: first matching
        row in priority order."""
        from repro.memory.tcam import TcamTable

        fib = Fib(8)
        rng = np.random.default_rng(7)
        for length in range(1, 9):
            for bits in rng.integers(0, 1 << length, size=40).tolist():
                fib.insert(Prefix.from_bits(int(bits), length, 8),
                           int(length))
        table = TcamTable(8, name="t")
        for prefix, hop in fib:
            table.insert_prefix(prefix, hop)
        view = table.vector_reader()
        assert isinstance(view, RangeView)
        entries = sorted(  # the matrix form, built by hand
            (e.priority, e.mask, e.value & e.mask, e.data)
            for e in table.entries())
        masks = np.array([m for _p, m, _v, _d in entries], dtype=np.int64)
        values = np.array([v for _p, _m, v, _d in entries], dtype=np.int64)
        data = np.array([d for _p, _m, _v, d in entries], dtype=np.int64)
        keys = np.arange(256, dtype=np.int64)
        hits = (keys[:, None] & masks[None, :]) == values[None, :]
        mf = hits.any(axis=1)
        mv = np.where(mf, data[hits.argmax(axis=1)], 0)
        rv, rf = view.gather(keys, np.ones(256, dtype=bool))
        assert rf.tolist() == mf.tolist()
        assert rv.tolist() == mv.tolist()

    def test_tcam_range_view_is_longest_match(self):
        # A prefix table of many rows in every length group answers
        # each key with its longest matching row, as the scalar search.
        from repro.memory.tcam import TcamTable

        fib = Fib(8)
        rng = np.random.default_rng(7)
        for length in range(1, 9):
            for bits in rng.integers(0, 1 << length, size=40).tolist():
                fib.insert(Prefix.from_bits(int(bits), length, 8),
                           int(length))
        table = TcamTable(8, name="t")
        for prefix, hop in fib:
            table.insert_prefix(prefix, hop)
        view = table.vector_reader()
        assert isinstance(view, RangeView)
        assert view.lefts.size < len(table)  # equal neighbours merged
        keys = np.arange(256, dtype=np.int64)
        active = keys % 5 != 0
        for mask in (None, active):
            vals, found = view.gather(keys, mask)
            want = [table.search(k) if mask is None or mask[k] else None
                    for k in range(256)]
            assert [v if f else None for v, f in
                    zip(vals.tolist(), found.tolist())] == want
            assert vals[~found].tolist() == [0] * int((~found).sum())

    def test_classifier_shaped_tcam_has_no_view(self):
        """A non-contiguous mask (a classifier's port range) is not a
        prefix, so the table has no range form and its step no kernel;
        once that row is gone the table freezes again."""
        from repro.memory.tcam import TcamTable

        table = TcamTable(8)
        table.insert_prefix(Prefix.from_bits(0b1, 1, 8), 1)
        assert isinstance(table.vector_reader(), RangeView)
        table.insert(0b0000_0101, 0b0000_1111, priority=0, data=2)
        assert table.vector_reader() is None
        # The right priority for the mask's bit count is not enough.
        table.delete(0b0000_0101, 0b0000_1111)
        table.insert(0b0101_0000, 0b1111_0000, priority=3, data=2)
        assert table.vector_reader() is None
        table.delete(0b0101_0000, 0b1111_0000)
        assert isinstance(table.vector_reader(), RangeView)

    def test_wide_tcam_has_no_vector_view(self):
        """(Id kept from when it had none.)  A 64-bit table's range view
        holds ``uint64`` left endpoints, ``int64`` hops, and answers
        addresses on both sides of bit 63."""
        from repro.memory.tcam import TcamTable

        table = TcamTable(64)
        table.insert_prefix(Prefix.from_bits(0b1, 1, 64), 1)
        table.insert_prefix(Prefix.from_bits((1 << 64) - 1, 64, 64), 2)
        view = table.vector_reader()
        assert isinstance(view, RangeView)
        assert view.lefts.dtype == np.uint64
        assert view.hops.dtype == np.int64 and view.none.dtype == bool
        keys = np.array([(1 << 64) - 1, 1 << 63, (1 << 63) - 1, 0],
                        dtype=np.uint64)
        vals, found = view.gather(keys)
        assert vals.dtype == np.int64
        assert vals.tolist() == [2, 1, 0, 0]
        assert found.tolist() == [True, True, False, False]
        # One bit narrower and the keys are signed again.
        narrow = TcamTable(63)
        narrow.insert_prefix(Prefix.from_bits(0b1, 1, 63), 1)
        assert narrow.vector_reader().lefts.dtype == np.int64

    def test_popcount64_matches_python(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 63, size=64, dtype=np.int64)
        values = values.astype(np.uint64)
        values[0] = np.uint64(0)
        values[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        expected = [bin(int(v)).count("1") for v in values.tolist()]
        assert popcount64(values).tolist() == expected


# ---------------------------------------------------------------------------
# Satellite regression: LookupPlan.lookup_batch(out=...)
# ---------------------------------------------------------------------------


def test_plan_lookup_batch_out_does_not_accumulate():
    fib = small_v8_fib()
    plan = compile_plan(LogicalTcam(fib))
    first = list(range(0, 256, 2))
    second = list(range(1, 256, 2))
    reused = []
    got = plan.lookup_batch(first, out=reused)
    assert got is reused and len(reused) == len(first)
    got = plan.lookup_batch(second, out=reused)
    # The second batch must replace — not extend — the reused list.
    assert got is reused and len(reused) == len(second)
    assert reused == [fib.lookup(a) for a in second]


# ---------------------------------------------------------------------------
# Snapshot isolation: vector plans freeze their tables at compile time
# (the scalar plan reads them live)
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_sail_bitmap_and_sram_mutation(self):
        fib = small_v4_fib()
        algo = Sail(fib)
        plan = compile_plan(algo)
        vplan = compile_vector_plan(algo, plan=plan)
        addr = 0x0A020304  # 10.2.3.4 -> /8, hop 1
        assert vplan.lookup(addr) == 1
        # Mutate the live structure (bitmaps + hop arrays + chunks).
        algo.insert(Prefix.from_bits(0x0A02, 16, 32), 7)
        algo.insert(Prefix.from_bits(addr >> 4, 28, 32), 8)
        assert algo.lookup(addr) == 8          # native sees the update
        assert plan.lookup(addr) == 8          # so does the live scalar plan
        assert vplan.lookup(addr) == 1         # vector snapshot is stale
        assert compile_vector_plan(algo).lookup(addr) == 8

    def test_tcam_mutation(self):
        fib = small_v8_fib()
        algo = LogicalTcam(fib)
        vplan = compile_vector_plan(algo)
        addr = 0b10110001
        assert vplan.lookup(addr) == 1  # /1 match
        algo.insert(Prefix.from_bits(0b1011, 4, 8), 9)
        assert algo.lookup(addr) == 9
        assert vplan.lookup(addr) == 1  # frozen TCAM matrices
        assert compile_vector_plan(algo).lookup(addr) == 9

    def test_delete_is_also_invisible_until_recompile(self):
        fib = small_v8_fib()
        algo = LogicalTcam(fib)
        vplan = compile_vector_plan(algo)
        addr = 0b10100000
        assert vplan.lookup(addr) == 2
        algo.delete(Prefix.from_bits(0b1010, 4, 8))
        assert algo.lookup(addr) == 1
        assert vplan.lookup(addr) == 2
        assert compile_vector_plan(algo).lookup(addr) == 1


# ---------------------------------------------------------------------------
# The vector plan: sentinels, chunking, delegation, lowering errors
# ---------------------------------------------------------------------------


class TestVectorPlan:
    def test_miss_sentinel_and_hops_conversion(self):
        fib = Fib(8)
        fib.insert(Prefix.from_bits(0b1, 1, 8), 5)
        vplan = compile_vector_plan(MultibitTrie(fib, [4, 4]))
        hops = vplan.lookup_batch([0b10000000, 0b00000001])
        assert hops.dtype == np.int64
        assert hops.tolist() == [5, MISS_HOP]
        assert vplan.lookup_batch_hops([0b10000000, 0b00000001]) == [5, None]
        assert vplan.lookup(0b00000001) is None

    def test_chunked_execution_matches_unchunked(self):
        fib = small_v8_fib()
        algo = MultibitTrie(fib, [4, 4])
        whole = compile_vector_plan(algo)
        tiny = compile_vector_plan(algo, chunk=7)
        addresses = list(range(256))
        assert tiny.lookup_batch_hops(addresses) == \
            whole.lookup_batch_hops(addresses)

    def test_wide_addresses_delegate_to_scalar_plan(self):
        """(Id kept from when they did.)  64-bit addresses run on
        ``uint64`` lanes, and no batch silently switches to the scalar
        plan: what the lane dtype cannot hold is a ``ValueError``, a
        non-integer a ``TypeError``."""
        fib = Fib(64)
        fib.insert(Prefix.from_bits(0b1, 1, 64), 3)
        vplan = compile_vector_plan(LogicalTcam(fib))
        assert vplan.fully_lowered and len(vplan) == 1
        addresses = [1 << 63, (1 << 63) | 5, 17, (1 << 64) - 1]
        assert vplan.lookup_batch_hops(addresses) == [3, 3, None, 3]
        assert vplan.lookup_batch_hops(
            np.array(addresses, dtype=np.uint64)) == [3, 3, None, 3]
        for bad in ([-1], [1 << 64], np.array([-1])):
            with pytest.raises(ValueError, match="outside"):
                vplan.lookup_batch_hops(bad)
        narrow = Fib(32)
        narrow.insert(Prefix.from_bits(0, 0, 32), 1)  # a default route
        for algo in (LogicalTcam(narrow), Bsic(narrow)):
            vplan32 = compile_vector_plan(algo)
            for bad in ([-(1 << 63) - 1], [1 << 63], [1 << 64]):
                with pytest.raises(ValueError, match="outside"):
                    vplan32.lookup_batch_hops(bad)
                with pytest.raises(ValueError, match="outside"):
                    vplan32.lookup_batch(bad)
            for bad in ([3.7], [None], ["7"], np.array([3.0])):
                with pytest.raises(TypeError):
                    vplan32.lookup_batch_hops(bad)
            assert vplan32.lookup_batch_hops([np.int64(7), True]) == [1, 1]

    def test_withheld_spec_compiles_no_kernels(self):
        fib = small_v8_fib()
        vplan = compile_vector_plan(UnloweredTcam(fib))
        # All-or-nothing: one step without a spec and nothing lowers.
        assert vplan.fully_lowered is False
        assert len(vplan) == 0
        assert vplan.describe()["lowered_steps"] == []
        assert vplan.view_map() == {}

    @pytest.mark.parametrize("base", [LogicalTcam, HiBst, Bsic])
    def test_over_wide_key_compiles_no_kernels(self, base):
        # Past 64 bits no lane dtype exists (key_dtype is None): the
        # plan never asks for specs and delegates every batch.
        calls = []

        class Counting(base):
            def vector_specs(self, *args):
                calls.append("specs")
                return super().vector_specs(*args)

        fib = Fib(66)
        fib.insert(Prefix.from_bits(0b1, 1, 66), 3)
        fib.insert(Prefix.from_bits(0x2001 << 32, 48, 66), 4)
        vplan = compile_vector_plan(Counting(fib))
        assert calls == []
        assert not vplan.fully_lowered and len(vplan) == 0
        addresses = [0, 1 << 65, (1 << 66) - 1, (0x2001 << 50) | 9]
        assert vplan.lookup_batch_hops(addresses) == \
            [fib.lookup(a) for a in addresses]
        assert vplan.lookup_batch(addresses).tolist() == \
            [MISS_HOP, 3, 3, 4]

    def test_custom_scalar_extractor_compiles_no_kernels(self):
        class OddExtract(LogicalTcam):
            def cram_extract_hop(self, state):
                return state.get("hop")

        fib = small_v8_fib()
        vplan = compile_vector_plan(OddExtract(fib))
        # Every step has a spec, but hop extraction has no array form.
        assert not vplan.fully_lowered and len(vplan) == 0
        addresses = list(range(256))
        assert vplan.lookup_batch_hops(addresses) == \
            [fib.lookup(a) for a in addresses]

    def test_lowered_plan_runs_one_kernel_per_step(self):
        vplan = compile_vector_plan(MultibitTrie(small_v8_fib(), [4, 4]))
        assert vplan.fully_lowered
        assert vplan.lowered_steps == tuple(vplan.plan.step_names)
        assert len(vplan) == len(vplan.plan.step_names)

    def test_unknown_spec_names_raise(self):
        class BadTcam(LogicalTcam):
            def vector_specs(self, prev):
                return {"no_such_step": VectorStepSpec(
                    lambda lanes, vals, found, active: None)}

        with pytest.raises(VectorError, match="unknown steps"):
            compile_vector_plan(BadTcam(small_v8_fib()))

    def test_bad_chunk_rejected(self):
        with pytest.raises(VectorError):
            compile_vector_plan(LogicalTcam(small_v8_fib()), chunk=0)


# ---------------------------------------------------------------------------
# Property tests: None-lane masking against the trie oracle
# ---------------------------------------------------------------------------


prefix_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8),   # length
              st.integers(min_value=0, max_value=255),  # raw bits
              st.integers(min_value=0, max_value=31)),  # hop
    min_size=0, max_size=24)


@settings(max_examples=40, deadline=None)
@given(prefix_lists)
def test_multibit_vector_masks_match_oracle(entries):
    fib = Fib(8)
    for length, bits, hop in entries:
        fib.insert(Prefix.from_bits(bits & ((1 << length) - 1), length, 8),
                   hop)
    vplan = compile_vector_plan(MultibitTrie(fib, [4, 4]))
    addresses = list(range(256))
    raw = vplan.lookup_batch(addresses)
    for address, value in zip(addresses, raw.tolist()):
        expected = fib.lookup(address)
        if expected is None:  # no-route lanes carry the sentinel...
            assert value == MISS_HOP
        else:                 # ...and routed lanes the exact hop
            assert value == expected


@settings(max_examples=25, deadline=None)
@given(prefix_lists)
def test_delegated_vector_masks_match_oracle(entries):
    fib = Fib(8)
    for length, bits, hop in entries:
        fib.insert(Prefix.from_bits(bits & ((1 << length) - 1), length, 8),
                   hop)
    vplan = compile_vector_plan(UnloweredTcam(fib))  # whole-batch delegation
    addresses = list(range(256))
    assert vplan.lookup_batch_hops(addresses) == \
        [fib.lookup(a) for a in addresses]


# ---------------------------------------------------------------------------
# The engine runs its vector plan; the plan decides kernels vs scalar
# ---------------------------------------------------------------------------


class TestEngineBackend:
    def test_invalid_backend_rejected(self):
        # Only "auto" is accepted: the two paths it used to choose
        # between are the vector plan's own decision.
        for backend in ("plan", "vector", "simd"):
            with pytest.raises(ValueError, match="backend"):
                BatchEngine(LogicalTcam(small_v8_fib()), backend=backend)
            with pytest.raises(ValueError, match="backend"):
                LookupServer(LogicalTcam(small_v8_fib()), backend=backend)
        engine = BatchEngine(LogicalTcam(small_v8_fib()), backend="auto")
        assert engine.active_backend == "vector"

    def test_backend_gauge_and_auto_fallback(self):
        fib = small_v8_fib()
        vec = BatchEngine(MultibitTrie(fib, [4, 4]), name="vec")
        assert vec.active_backend == "vector"
        gauge = vec.registry.gauge("repro_engine_backend")
        assert gauge.value(engine="vec", backend="vector") == 1
        assert gauge.value(engine="vec", backend="plan") == 0
        # An unlowered program reports the scalar plan it delegates
        # to, and still answers the oracle...
        unlowered = BatchEngine(UnloweredTcam(fib), name="unlowered",
                                registry=vec.registry)
        assert unlowered.active_backend == "plan"
        assert not unlowered.vector_plan.fully_lowered
        assert len(unlowered.vector_plan) == 0
        assert gauge.value(engine="unlowered", backend="plan") == 1
        assert gauge.value(engine="unlowered", backend="vector") == 0
        addresses = list(range(256))
        assert unlowered.lookup_batch(addresses) == \
            [fib.lookup(a) for a in addresses]
        # ...and only the two series an engine can be on exist.
        assert {dict(key)["backend"] for key, _value in gauge.items()} \
            == {"plan", "vector"}

    def test_wide_bsic_compiles_no_kernels_and_skips_vector_patch(self):
        """(Id kept from when it did, and from when patches went
        through a ``vector_patch`` hook.)  A real width-64 table serves
        from kernels, and a delta commit is one patch: a compile over
        the same scalar plan and step chain, the old initial view
        handed back to its table as ``prev`` and the range view
        spliced from the old one."""
        base = Fib(64)
        for i in range(24):
            base.insert(Prefix.from_bits((0x2001 << 16) | i, 32, 64), i)
        base.insert(Prefix.from_bits(0xFFFF, 16, 64), 99)  # bit 63 set
        managed = ManagedFib(lambda fib: Bsic(fib, k=24), base)
        engine = BatchEngine.over_managed(managed, name="wide")
        assert engine.active_backend == "vector"
        assert engine.vector_plan.fully_lowered
        assert len(engine.vector_plan) == len(engine.plan.step_names)
        assert set(engine.vector_plan.view_map()) == {"initial",
                                                      "bst_level_0"}

        def count(metric):
            return engine.registry.get(metric).value(engine="wide")

        landed = 0
        for batch in ChurnGenerator(base, seed=5).batches(6, 4):
            plan = engine.plan
            patches = count("repro_engine_plan_patches_total")
            landed += managed.apply_batch(batch) in ("batch_applied",
                                                     "batch_rebuilt")
            if count("repro_engine_plan_patches_total") > patches:
                assert count("repro_engine_plan_patches_total") \
                    == patches + 1
                assert engine.plan is plan
                assert engine.vector_plan.lowered_steps == \
                    tuple(plan.step_names)
        # One refresh per landed commit, and the delta path patched.
        assert count("repro_engine_plan_patches_total") \
            + count("repro_engine_plan_recompiles_total") == landed
        assert count("repro_engine_plan_patches_total") > 0
        oracle = managed.oracle
        addresses = [p.value | 1 for p, _hop in oracle] + [
            0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
        expected = [oracle.lookup(a) for a in addresses]
        assert engine.lookup_batch(addresses) == expected
        assert engine.plan.lookup_batch(addresses) == expected

    def test_thread_server_refuses_an_unlowered_plan(self):
        # Its scalar plan reads the live tables, which an in-place
        # delta mutates before the commit gate quiesces the workers.
        fib = small_v8_fib()
        with pytest.raises(ValueError, match=re.escape(
                UnloweredTcam(fib).name)):
            LookupServer(UnloweredTcam(fib), mode="thread")

    def test_process_server_serves_an_unlowered_plan(self):
        # A forked child applies its deltas between its own batches.
        fib = small_v8_fib()
        addresses = list(range(256))
        with LookupServer(UnloweredTcam(fib), mode="process", workers=1,
                          factory=UnloweredTcam, base_fib=fib) as server:
            assert server.lookup_batch(addresses, timeout=60) == \
                [fib.lookup(a) for a in addresses]

    def test_lowering_gauges_published(self):
        fib = small_v8_fib()
        engine = BatchEngine(MultibitTrie(fib, [4, 4]), name="low")
        reg = engine.registry
        lowered = reg.gauge("repro_engine_vector_lowered_steps")
        assert lowered.value(engine="low") == \
            len(engine.vector_plan.lowered_steps) > 0
        BatchEngine(UnloweredTcam(fib), name="none", registry=reg)
        assert lowered.value(engine="none") == 0

    def test_commit_recompiles_vector_plan(self):
        base = small_v8_fib()
        managed = ManagedFib(lambda fib: LogicalTcam(fib), base)
        engine = BatchEngine.over_managed(managed, cache_size=16,
                                          name="churned")
        addresses = list(range(256))
        engine.lookup_batch(addresses)  # warm the cache pre-churn
        before = engine.vector_plan
        landed = 0
        for batch in ChurnGenerator(base, seed=3).batches(10, 5):
            if managed.apply_batch(batch) != "batch_rolled_back":
                landed += 1
        assert landed > 0
        assert engine.vector_plan is not before  # recompiled on commit
        oracle = managed.oracle
        assert engine.lookup_batch(addresses) == \
            [oracle.lookup(a) for a in addresses]
