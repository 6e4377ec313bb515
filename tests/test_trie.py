"""Unit tests for the binary trie and Fib (the reference LPM)."""

import pytest

from repro.prefix import BinaryTrie, Fib, Prefix, from_bitstring, parse_prefix


def P(s, width=8):
    return from_bitstring(s, width)


class TestBinaryTrie:
    def test_empty_lookup_misses(self):
        assert BinaryTrie(8).lookup(0) is None

    def test_insert_and_lpm(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        t.insert(P("0101"), 2)
        assert t.lookup(0b01010000) == 2
        assert t.lookup(0b01100000) == 1
        assert t.lookup(0b10000000) is None

    def test_default_route(self):
        t = BinaryTrie(8)
        t.insert(P(""), 9)
        assert t.lookup(0) == 9
        assert t.lookup(255) == 9

    def test_overwrite_updates_hop(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        t.insert(P("01"), 7)
        assert len(t) == 1
        assert t.lookup(0b01000000) == 7

    def test_delete_restores_shorter_match(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        t.insert(P("0101"), 2)
        t.delete(P("0101"))
        assert t.lookup(0b01010000) == 1
        assert len(t) == 1

    def test_delete_missing_raises(self):
        t = BinaryTrie(8)
        with pytest.raises(KeyError):
            t.delete(P("01"))
        t.insert(P("0101"), 1)
        with pytest.raises(KeyError):
            t.delete(P("01"))  # on the path but not an entry

    def test_delete_prunes_nodes(self):
        t = BinaryTrie(8)
        t.insert(P("01010101"), 1)
        t.delete(P("01010101"))
        assert t.node_count() == 1  # only the root is left

    def test_lookup_prefix(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        t.insert(P("0101"), 2)
        assert t.lookup_prefix(0b01010000) == P("0101")
        assert t.lookup_prefix(0b01100000) == P("01")
        assert t.lookup_prefix(0b10000000) is None

    def test_get_exact(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        assert t.get(P("01")) == 1
        assert t.get(P("0101")) is None

    def test_items_sorted(self):
        t = BinaryTrie(8)
        entries = [(P("11"), 1), (P("0"), 2), (P("0101"), 3)]
        for p, h in entries:
            t.insert(p, h)
        got = list(t.items())
        assert got == sorted(entries, key=lambda kv: (kv[0].value, kv[0].length))

    def test_width_mismatch_rejected(self):
        t = BinaryTrie(8)
        with pytest.raises(ValueError):
            t.insert(from_bitstring("01", 16), 1)

    def test_pruned_rows_are_reused(self):
        t = BinaryTrie(8)
        t.insert(P("01010101"), 1)
        grown = t.node_count()
        t.delete(P("01010101"))
        t.insert(P("10101010"), 2)
        assert t.node_count() == grown
        assert t.lookup(0b10101010) == 2 and t.lookup(0b01010101) is None

    def test_copy_is_independent(self):
        t = BinaryTrie(8)
        t.insert(P("01"), 1)
        t.insert(P("0101"), 2)
        t.delete(P("0101"))  # leaves free rows for both sides to reuse
        twin = t.copy()
        twin.insert(P("0111"), 3)
        t.insert(P("0100"), 4)
        assert list(t.items()) == [(P("01"), 1), (P("0100"), 4)]
        assert list(twin.items()) == [(P("01"), 1), (P("0111"), 3)]
        assert (len(t), len(twin)) == (2, 2)


class TestFib:
    def test_matches_trie_semantics(self, example_fib):
        for addr in range(256):
            direct = example_fib.lookup(addr)
            prefix = example_fib.lookup_prefix(addr)
            if direct is None:
                assert prefix is None
            else:
                assert prefix.matches(addr)
                assert example_fib.get(prefix) == direct

    def test_len_and_contains(self, example_fib):
        assert len(example_fib) == 8
        assert from_bitstring("011", 8) in example_fib
        assert from_bitstring("010", 8) not in example_fib

    def test_by_length_groups(self, example_fib):
        groups = example_fib.by_length()
        assert set(groups) == {3, 6, 8}
        assert len(groups[6]) == 3
        assert len(groups[8]) == 4

    def test_next_hops(self, example_fib):
        assert example_fib.next_hops() == [0, 1, 2, 3]

    def test_rejects_negative_hop(self):
        fib = Fib(8)
        with pytest.raises(ValueError):
            fib.insert(P("01"), -1)

    def test_delete(self):
        fib = Fib(8, [(P("01"), 1)])
        fib.delete(P("01"))
        assert len(fib) == 0
        assert fib.lookup(0b01000000) is None

    def test_copy_equals_reinsertion_and_is_independent(self, ipv4_fib):
        twin = ipv4_fib.copy()
        assert list(twin) == list(ipv4_fib)
        rebuilt = Fib(ipv4_fib.width, list(ipv4_fib))
        addresses = [p.value | 1 for p in ipv4_fib.prefixes()[:200]]
        assert [twin.lookup(a) for a in addresses] == \
            [rebuilt.lookup(a) for a in addresses]
        victim, hop = next(iter(ipv4_fib))
        twin.delete(victim)
        twin.insert(Prefix(0, 1, ipv4_fib.width), 77)
        assert ipv4_fib.get(victim) == hop
        assert Prefix(0, 1, ipv4_fib.width) not in ipv4_fib
        assert len(twin) == len(ipv4_fib)

    def test_iteration_is_sorted(self, ipv4_fib):
        entries = list(ipv4_fib)
        keys = [(p.value, p.length) for p, _ in entries]
        assert keys == sorted(keys)

    def test_reference_lookup_agrees_with_naive_scan(self, example_fib):
        entries = list(example_fib)
        for addr in range(256):
            matches = [(p.length, h) for p, h in entries if p.matches(addr)]
            want = max(matches)[1] if matches else None
            assert example_fib.lookup(addr) == want
