"""Unit tests for range expansion and BSTs (DXR / BSIC substrate)."""

import pytest

from repro.prefix import (
    BinaryTrie,
    RangeEntry,
    SliceIndex,
    expand_to_ranges,
    from_bitstring,
    lookup_ranges,
    ranges_to_bst,
)


def P(s, width=4):
    return from_bitstring(s, width)


class TestExpandToRanges:
    def test_empty_entries_covers_space_with_default(self):
        out = expand_to_ranges([], 4, default_hop=7)
        assert out == [RangeEntry(0, 7)]

    def test_empty_entries_no_default(self):
        assert expand_to_ranges([], 4) == [RangeEntry(0, None)]

    def test_single_full_space_prefix(self):
        out = expand_to_ranges([(P(""), 3)], 4)
        assert out == [RangeEntry(0, 3)]

    def test_completion_intervals_inherit_default(self):
        out = expand_to_ranges([(P("01"), 1)], 4, default_hop=9)
        assert out == [RangeEntry(0, 9), RangeEntry(4, 1), RangeEntry(8, 9)]

    def test_nested_prefixes_split_ranges(self):
        out = expand_to_ranges([(P("0"), 1), (P("01"), 2)], 4)
        assert out == [
            RangeEntry(0, 1),
            RangeEntry(4, 2),
            RangeEntry(8, None),
        ]

    def test_merge_equal_neighbours(self):
        # Two adjacent prefixes with the same hop collapse to one range.
        out = expand_to_ranges([(P("00"), 5), (P("01"), 5)], 4)
        assert out == [RangeEntry(0, 5), RangeEntry(8, None)]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_to_ranges([(from_bitstring("01", 8), 1)], 4)

    def test_range_lookup_equals_trie_lpm(self):
        entries = [(P("00"), 2), (P("01"), 3), (P("0100"), 0),
                   (P("1010"), 1), (P("1011"), 2)]
        trie = BinaryTrie(4)
        for p, h in entries:
            trie.insert(p, h)
        table = expand_to_ranges(entries, 4, default_hop=None)
        for key in range(16):
            assert lookup_ranges(table, key) == trie.lookup(key), key


class TestPaperTable13:
    """Appendix A.4's worked example: slice 1001 of Table 3."""

    HOPS = {"A": 0, "B": 1, "C": 2, "D": 3}

    def table(self):
        entries = [
            (P("00"), self.HOPS["C"]),
            (P("01"), self.HOPS["D"]),
            (P("0100"), self.HOPS["A"]),
            (P("1010"), self.HOPS["B"]),
            (P("1011"), self.HOPS["C"]),
        ]
        return expand_to_ranges(entries, 4, default_hop=None)

    def test_matches_paper_rows(self):
        got = [(r.left, r.next_hop) for r in self.table()]
        assert got == [
            (0b0000, self.HOPS["C"]),
            (0b0100, self.HOPS["A"]),
            (0b0101, self.HOPS["D"]),
            (0b1000, None),
            (0b1010, self.HOPS["B"]),
            (0b1011, self.HOPS["C"]),
            (0b1100, None),
        ]

    def test_figure_12_bst_shape(self):
        bst = ranges_to_bst(self.table())
        assert bst.size() == 7
        assert bst.depth() == 3  # balanced over 7 endpoints
        # Root is the median endpoint, 1000.
        assert bst.left_endpoint == 0b1000


class TestBst:
    def test_search_matches_linear(self):
        table = expand_to_ranges(
            [(P("00"), 2), (P("01"), 3), (P("1010"), 1)], 4, default_hop=8
        )
        bst = ranges_to_bst(table)
        for key in range(16):
            assert bst.search(key) == lookup_ranges(table, key), key

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ranges_to_bst([])

    def test_level_sizes_sum_to_size(self):
        table = expand_to_ranges(
            [(P(format(i, "04b")), i % 3) for i in range(0, 16, 2)], 4
        )
        bst = ranges_to_bst(table)
        assert sum(bst.level_sizes()) == bst.size()
        assert len(bst.level_sizes()) == bst.depth()

    def test_depth_is_logarithmic(self):
        table = [RangeEntry(i, i % 5) for i in range(0, 128, 2)]
        bst = ranges_to_bst(table)
        assert bst.depth() == 7  # ceil(log2(64 + 1))


class TestSliceIndex:
    """The k-bit cut DXR and BSIC both keep for slice-local updates."""

    def make(self):
        index = SliceIndex(8, 4)
        for bits, hop in (("01", 1), ("0101", 2), ("010110", 3),
                          ("0101111", 4), ("100100", 5)):
            index.announce(from_bitstring(bits, 8), hop)
        return index

    def test_cut_at_k(self):
        index = self.make()
        assert sorted(index.groups) == [0b0101, 0b1001]
        assert len(index.shorts) == 2
        assert index.default(0b0101) == 2 and index.default(0b0100) == 1
        assert index.default(0b1001) is None

    def test_section_inherits_the_slice_default(self):
        index = self.make()
        assert index.section(0b0100) is None  # no long prefix there
        section = index.section(0b0101)
        assert section == expand_to_ranges(
            [(P("10"), 3), (P("111"), 4)], 4, default_hop=2)
        assert [lookup_ranges(section, key) for key in (0, 0b1000, 0b1110)] \
            == [2, 3, 4]

    def test_withdraw_drops_empty_groups_and_rejects_strangers(self):
        index = self.make()
        index.withdraw(from_bitstring("100100", 8))
        assert sorted(index.groups) == [0b0101]
        with pytest.raises(KeyError):
            index.withdraw(from_bitstring("100100", 8))
        with pytest.raises(KeyError):
            index.withdraw(from_bitstring("11", 8))

    def test_covered_and_grouped_slices(self):
        index = self.make()
        assert list(index.covered(from_bitstring("01", 8))) == [4, 5, 6, 7]
        assert index.grouped_under(from_bitstring("01", 8)) == [0b0101]
        assert sorted(index.grouped_under(from_bitstring("", 8))) == \
            [0b0101, 0b1001]
        assert index.grouped_under(from_bitstring("0100", 8)) == []
