"""Reproduction of the paper's worked examples (Tables 1, 2, 3, 13; Fig. 12).

These tests pin this implementation to the exact micro-examples the
paper walks through, so a reader can line the code up with the text.
"""

import pytest

from repro.algorithms import Bsic, Resail, bit_mark
from repro.datasets import small_example_fib
from repro.prefix import expand_to_ranges, from_bitstring

HOPS = {"A": 0, "B": 1, "C": 2, "D": 3}


class TestTable1:
    """The example routing table: 8 entries over 8-bit addresses."""

    def test_contents(self, example_fib):
        want = {
            "010100": "A", "011": "B", "100100": "C", "100101": "D",
            "10010100": "A", "10011010": "B", "10011011": "C", "10100011": "A",
        }
        got = {  # render back to the paper's notation
            format(p.bits, f"0{p.length}b"): hop for p, hop in example_fib
        }
        assert got == {bits: HOPS[h] for bits, h in want.items()}


class TestTable2:
    """RESAIL's hash table with pivot level 6 and 7-bit marked keys.

    Entries 1-4 of Table 1 are within the pivot; entries 5-8 are longer
    and live in the look-aside TCAM.  The paper's worked key: 011 ->
    0111000.
    """

    def test_bit_marked_keys(self):
        # Keys from the paper's Table 2 (pivot level 6 -> 7-bit keys).
        assert bit_mark(0b100100, 6, pivot=6) == 0b1001001
        assert bit_mark(0b010100, 6, pivot=6) == 0b0101001
        assert bit_mark(0b011, 3, pivot=6) == 0b0111000
        assert bit_mark(0b100101, 6, pivot=6) == 0b1001011

    def test_keys_are_distinct(self):
        keys = {
            bit_mark(0b100100, 6, pivot=6),
            bit_mark(0b010100, 6, pivot=6),
            bit_mark(0b011, 3, pivot=6),
            bit_mark(0b100101, 6, pivot=6),
        }
        assert len(keys) == 4


class TestTable3:
    """BSIC's initial lookup table for Table 1 with k=4."""

    def test_slices_and_values(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        rows = {}
        for e in bsic.initial.entries():
            key_bits = format(e.value, "04b")
            wild = 4 - bin(e.mask).count("1")
            rows[key_bits[: 4 - wild] + "*" * wild] = e.data
        assert rows["011*"] == ("hop", HOPS["B"])
        assert rows["0101"][0] == "bst"
        assert rows["1001"][0] == "bst"
        assert rows["1010"][0] == "bst"
        assert len(rows) == 4

    def test_bst2_entries(self, example_fib):
        """Slice 1001 condenses entries 3-7 into one pointer (BST 2)."""
        bsic = Bsic(example_fib, k=4)
        group = bsic._slices.groups[0b1001]
        suffixes = {format(p.bits, f"0{p.length}b")
                    for p, _h in group.values()}
        assert suffixes == {"00", "01", "0100", "1010", "1011"}


class TestTable13AndFigure12:
    """Range expansion and the BST for slice 1001 (Appendix A.4)."""

    def entries(self):
        return [
            (from_bitstring("00", 4), HOPS["C"]),
            (from_bitstring("01", 4), HOPS["D"]),
            (from_bitstring("0100", 4), HOPS["A"]),
            (from_bitstring("1010", 4), HOPS["B"]),
            (from_bitstring("1011", 4), HOPS["C"]),
        ]

    def test_seven_intervals_with_inherited_defaults(self):
        table = expand_to_ranges(self.entries(), 4, default_hop=None)
        assert [(r.left, r.next_hop) for r in table] == [
            (0b0000, HOPS["C"]), (0b0100, HOPS["A"]), (0b0101, HOPS["D"]),
            (0b1000, None), (0b1010, HOPS["B"]), (0b1011, HOPS["C"]),
            (0b1100, None),
        ]

    def test_bst_root_and_depth(self, example_fib):
        """BSIC's tree for slice 1001 is Figure 12's, implicit over the
        slice's seven ranges: its root is the middle one."""
        bsic = Bsic(example_fib, k=4)
        root = bsic.bst_root(0b1001)
        assert bsic.bst_node(root)[0] == 0b1000  # Figure 12's root
        assert bsic.depth == 3

    def test_all_algorithms_agree_on_table1(self, example_fib):
        """End-to-end: the worked example routes identically everywhere."""
        from repro.algorithms import Dxr, HiBst, LogicalTcam, Mashup, MultibitTrie

        algos = [
            Bsic(example_fib, k=4),
            Dxr(example_fib, k=4),
            MultibitTrie(example_fib, [2, 1, 2, 3]),
            Mashup(example_fib, [2, 1, 2, 3]),
            HiBst(example_fib),
            LogicalTcam(example_fib),
        ]
        for addr in range(256):
            want = example_fib.lookup(addr)
            for algo in algos:
                assert algo.lookup(addr) == want, (algo.name, addr)
