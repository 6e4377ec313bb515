"""Unit tests for the TCAM simulator."""

import pytest

from repro.memory import TcamTable, prefix_mask
from repro.prefix import from_bitstring


def P(s, width=8):
    return from_bitstring(s, width)


class TestBasics:
    def test_miss_on_empty(self):
        assert TcamTable(8).search(0) is None

    def test_exact_ternary_entry(self):
        t = TcamTable(8)
        t.insert(0b10100000, 0b11110000, priority=0, data="x")
        assert t.search(0b10101111) == "x"
        assert t.search(0b10010000) is None

    def test_value_outside_mask_rejected(self):
        t = TcamTable(8)
        with pytest.raises(ValueError):
            t.insert(0b00001111, 0b11110000, 0, "x")

    def test_value_exceeding_width_rejected(self):
        t = TcamTable(4)
        with pytest.raises(ValueError):
            t.insert(0x1F, 0x1F, 0, "x")

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            TcamTable(0)


class TestPriority:
    def test_lower_priority_number_wins(self):
        t = TcamTable(8)
        t.insert(0b10000000, 0b10000000, priority=5, data="short")
        t.insert(0b10100000, 0b11100000, priority=2, data="long")
        assert t.search(0b10100001) == "long"
        assert t.search(0b10000001) == "short"

    def test_insertion_order_breaks_ties(self):
        t = TcamTable(8)
        t.insert(0b10000000, 0b11000000, priority=1, data="first")
        t.insert(0b10000000, 0b11000000, priority=1, data="second")
        assert t.search(0b10000001) == "first"


class TestPrefixApi:
    def test_insert_prefix_lpm(self):
        t = TcamTable(8)
        t.insert_prefix(P("01"), "short")
        t.insert_prefix(P("0101"), "long")
        assert t.search(0b01010000) == "long"
        assert t.search(0b01100000) == "short"

    def test_narrow_prefix_in_wide_key(self):
        # A 4-bit-wide prefix matching the top of an 8-bit key.
        t = TcamTable(8)
        t.insert_prefix(from_bitstring("01", 4), "x")
        assert t.search(0b01110000) == "x"
        assert t.search(0b10000000) is None

    def test_prefix_wider_than_key_rejected(self):
        t = TcamTable(4)
        with pytest.raises(ValueError):
            t.insert_prefix(P("01", 8), "x")

    def test_delete_prefix(self):
        t = TcamTable(8)
        t.insert_prefix(P("01"), "a")
        t.insert_prefix(P("0101"), "b")
        t.delete_prefix(P("0101"))
        assert t.search(0b01010000) == "a"
        with pytest.raises(KeyError):
            t.delete_prefix(P("0101"))

    def test_reinsert_prefix_replaces_data(self):
        # A TCAM row write overwrites the row: re-announcing a prefix
        # with a new next hop must not leave a stale duplicate entry
        # shadowing the update (caught by the churn differential
        # checker via a next-hop modify).
        t = TcamTable(8)
        t.insert_prefix(P("0101"), "old")
        t.insert_prefix(P("0101"), "new")
        assert t.search(0b01010000) == "new"
        assert len(t) == 1
        t.delete_prefix(P("0101"))
        assert t.search(0b01010000) is None

    def test_delete_takes_the_oldest_of_duplicate_rows(self):
        t = TcamTable(8)
        t.insert(0b10000000, 0b11000000, priority=1, data="first")
        t.insert(0b10000000, 0b11000000, priority=1, data="second")
        t.delete(0b10000000, 0b11000000)
        assert len(t) == 1 and t.search(0b10000001) == "second"
        assert [e.data for e in t.entries()] == ["second"]

    def test_search_after_mutation_uses_fresh_index(self):
        t = TcamTable(8)
        t.insert_prefix(P("01"), "a")
        assert t.search(0b01000000) == "a"
        t.insert_prefix(P("0100"), "b")
        assert t.search(0b01000000) == "b"
        t.delete_prefix(P("0100"))
        assert t.search(0b01000000) == "a"


class TestAccounting:
    def test_tcam_bits_counts_value_component_only(self):
        t = TcamTable(32)
        for i in range(10):
            t.insert_prefix(from_bitstring(format(i, "08b"), 32), "h")
        assert t.tcam_bits() == 10 * 32

    def test_sram_bits_for_data(self):
        t = TcamTable(8)
        t.insert_prefix(P("01"), 1)
        t.insert_prefix(P("10"), 2)
        assert t.sram_bits(data_width=8) == 16


def test_prefix_mask():
    assert prefix_mask(0, 8) == 0
    assert prefix_mask(3, 8) == 0b11100000
    assert prefix_mask(8, 8) == 0xFF
    with pytest.raises(ValueError):
        prefix_mask(9, 8)


class TestIndexAgainstNaiveScan:
    """Differential fuzz: the mask-group search index must agree with a
    naive priority-ordered linear scan on arbitrary entry mixes."""

    def test_randomized_equivalence(self):
        import random

        rng = random.Random(99)
        for trial in range(30):
            table = TcamTable(12)
            entries = []
            for priority in range(rng.randrange(1, 20)):
                length = rng.randrange(0, 13)
                mask = ((1 << length) - 1) << (12 - length)
                value = rng.getrandbits(12) & mask
                table.insert(value, mask, priority, data=(priority, value))
                entries.append((priority, value, mask))
            entries.sort(key=lambda e: e[0])
            for _ in range(50):
                key = rng.getrandbits(12)
                naive = next(
                    ((p, v) for p, v, m in entries if key & m == v & m), None
                )
                assert table.search(key) == naive, (trial, key)

    def test_interleaved_mutation_equivalence(self):
        import random

        rng = random.Random(7)
        table = TcamTable(10)
        live = []
        for _ in range(120):
            if live and rng.random() < 0.35:
                priority, value, mask = live.pop(rng.randrange(len(live)))
                table.delete(value, mask)
            else:
                length = rng.randrange(0, 11)
                mask = ((1 << length) - 1) << (10 - length)
                value = rng.getrandbits(10) & mask
                priority = rng.randrange(0, 11)
                if any(v == value and m == mask for _p, v, m in live):
                    continue
                table.insert(value, mask, priority, data=(priority, value))
                live.append((priority, value, mask))
            ordered = sorted(live, key=lambda e: e[0])
            for _ in range(10):
                key = rng.getrandbits(10)
                naive = next(
                    ((p, v) for p, v, m in ordered if key & m == v & m), None
                )
                got = table.search(key)
                # Equal-priority overlaps may tie-break differently
                # across masks; require agreement on the priority.
                if naive is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == naive[0]
