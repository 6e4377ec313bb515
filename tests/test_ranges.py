"""Unit tests for range expansion and the implicit BSTs over range
tables (DXR / BSIC substrate)."""

import pytest

from repro.prefix import (
    BinaryTrie,
    RangeEntry,
    SliceIndex,
    bst_level_sizes,
    expand_to_ranges,
    from_bitstring,
    lookup_ranges,
)


def P(s, width=4):
    return from_bitstring(s, width)


def columns(table):
    """A ``RangeEntry`` table as ``sweep_ranges``'s two lists."""
    return [r.left for r in table], [r.next_hop for r in table]


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
            assert lookup_ranges(*columns(table), key) == trie.lookup(key), key


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
        table = self.table()
        sizes = bst_level_sizes(len(table))
        assert sum(sizes) == 7
        assert len(sizes) == 3  # balanced over 7 endpoints
        # Root is the median endpoint, 1000.
        assert table[(len(table) - 1) // 2].left == 0b1000


class TestBst:
    """The balanced BST over a range table, implicit: the node of a
    span is its midpoint, so a walk is a binary search and the level
    sizes depend on the table's length alone."""

    def test_search_matches_linear(self):
        table = expand_to_ranges(
            [(P("00"), 2), (P("01"), 3), (P("1010"), 1)], 4, default_hop=8
        )
        lefts, hops = columns(table)
        for key in range(16):
            floor = max(i for i, left in enumerate(lefts) if left <= key)
            assert lookup_ranges(lefts, hops, key) == hops[floor], key

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            bst_level_sizes(0)

    def test_level_sizes_sum_to_size(self):
        for n in range(1, 70):
            # The tree level by level: each span's node is its midpoint.
            frontier, walked = [(0, n - 1)], []
            while frontier:
                walked.append(len(frontier))
                frontier = [span for lo, hi in frontier
                            for span in ((lo, (lo + hi) // 2 - 1),
                                         ((lo + hi) // 2 + 1, hi))
                            if span[0] <= span[1]]
            sizes = bst_level_sizes(n)
            assert sizes == tuple(walked)
            assert sum(sizes) == n and len(sizes) == n.bit_length()

    def test_depth_is_logarithmic(self):
        table = [RangeEntry(i, i % 5) for i in range(0, 128, 2)]
        assert len(bst_level_sizes(len(table))) == 7  # ceil(log2(64 + 1))


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
        table = expand_to_ranges([(P("10"), 3), (P("111"), 4)], 4,
                                 default_hop=2)
        assert section == columns(table)
        assert [lookup_ranges(*section, key) for key in (0, 0b1000, 0b1110)] \
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
