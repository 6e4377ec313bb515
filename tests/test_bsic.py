"""Unit tests for BSIC."""

import pytest

from repro.algorithms import Bsic
from repro.algorithms.bsic import BstForest, bsic_layout_from_counts
from repro.chip import map_to_ideal_rmt, map_to_tofino2
from repro.prefix import Fib, RangeEntry, expand_to_ranges, from_bitstring, parse_prefix, ranges_to_bst

P = parse_prefix
A = lambda s: int.from_bytes(bytes(map(int, s.split("."))), "big")


class TestBstForest:
    def make_tree(self, n=7):
        table = [RangeEntry(i * 2, i % 3) for i in range(n)]
        return ranges_to_bst(table), table

    def test_add_and_search(self):
        forest = BstForest(endpoint_bits=8)
        bst, table = self.make_tree()
        root = forest.add_tree(bst)
        for key in range(14):
            assert forest.search(root, key) == bst.search(key)

    def test_multiple_trees_independent(self):
        forest = BstForest(endpoint_bits=8)
        bst1, _ = self.make_tree(7)
        table2 = [RangeEntry(i * 3, 9) for i in range(5)]
        bst2 = ranges_to_bst(table2)
        r1 = forest.add_tree(bst1)
        r2 = forest.add_tree(bst2)
        assert forest.search(r2, 4) == 9
        assert forest.search(r1, 4) == bst1.search(4)

    def test_level_sizes(self):
        forest = BstForest(endpoint_bits=8)
        forest.add_tree(self.make_tree(7)[0])
        assert forest.level_sizes() == [1, 2, 4]
        assert forest.total_nodes() == 7
        assert forest.depth == 3

    def test_dropped_trees_stay_put_but_stop_counting(self):
        forest = BstForest(endpoint_bits=8)
        deep = forest.add_tree(self.make_tree(7)[0])
        shallow_tree = self.make_tree(3)[0]
        shallow = forest.add_tree(shallow_tree)
        assert forest.level_sizes() == [2, 4, 4]
        forest.drop_tree(deep)
        # Live counts are what a from-scratch forest would hold ...
        assert forest.level_sizes() == [1, 2] and forest.depth == 2
        assert (forest.total_nodes(), forest.dead_nodes()) == (3, 7)
        # ... while a reader still holding the old root sees its tree.
        assert forest.search(deep, 5) == self.make_tree(7)[0].search(5)
        assert forest.tree(shallow) == shallow_tree

    def test_node_entry_bits(self):
        # §4.2's four fields: endpoint + hop + two 24-bit pointers.
        assert BstForest(40).node_entry_bits == 40 + 8 + 48


def churned_bsic(seed=4, width=16, k=8):
    """A BSIC over a random table, and routes to churn it with: every
    slice-local kind of change (a long prefix in and out, a short one
    that re-derives the slices under it)."""
    import random

    rng = random.Random(seed)
    fib = Fib(width)
    while len(fib) < 120:
        length = rng.randint(k - 3, width)
        fib.insert(from_bitstring(format(rng.getrandbits(length),
                                         f"0{length}b"), width),
                   rng.randint(1, 30))
    routes = list(fib)
    churn = [(prefix, None) for prefix, _hop in routes[:6]] + [
        (from_bitstring(format(rng.getrandbits(length), f"0{length}b"),
                        width), rng.randint(1, 30))
        for length in (k - 2, k + 1, k + 4, width, width - 1)]
    return Bsic(fib, k=k), fib, churn


def commit(bsic, fib, churn):
    bsic.begin_update_batch()
    for prefix, hop in churn:
        if hop is None:
            bsic.delete(prefix)
            fib.delete(prefix)
        else:
            bsic.insert(prefix, hop)
            fib.insert(prefix, hop)
    bsic.end_update_batch()


class TestRangeView:
    """The lane kernels search one range view over every live slice;
    a commit re-freezes it by splicing only the slices it re-derived."""

    @staticmethod
    def fields(view):
        return [view.lefts.tolist(), view.hops.tolist(), view.none.tolist()]

    def test_patched_view_equals_a_fresh_freeze(self):
        from repro.core import compile_vector_plan
        from repro.core.vector import VectorPlan

        bsic, fib, churn = churned_bsic()
        old = compile_vector_plan(bsic)
        before = old.view_map()["bst_level_0"]
        commit(bsic, fib, churn)
        # The log reaches back to the old view: this is a splice.
        assert bsic._sections.log.tail(before.version)
        new = VectorPlan(bsic, plan=old.plan, prev=old.view_map())
        patched = new.view_map()["bst_level_0"]
        assert patched is not before
        fresh = compile_vector_plan(Bsic(fib, k=bsic.k))
        assert self.fields(patched) == \
            self.fields(fresh.view_map()["bst_level_0"])
        addresses = list(range(0, 1 << 16, 97))
        assert new.lookup_batch_hops(addresses) == \
            [fib.lookup(a) for a in addresses]

    def test_frozen_arrays_are_never_written(self):
        from repro.core import compile_vector_plan
        from repro.core.vector import VectorPlan

        bsic, fib, churn = churned_bsic(seed=9)
        addresses = list(range(0, 1 << 16, 89))
        expected = [fib.lookup(a) for a in addresses]
        old = compile_vector_plan(bsic)
        view = old.view_map()["bst_level_0"]
        arrays = (view.lefts, view.hops, view.none)
        snapshot = [array.copy() for array in arrays]
        plan = old
        for round_ in range(12):  # enough dead nodes to compact
            commit(bsic, fib, churn if round_ % 2 == 0 else
                   [(p, None if h is not None else 7)
                    for p, h in churn])
            plan = VectorPlan(bsic, plan=plan.plan, prev=plan.view_map())
        for before, array in zip(snapshot, arrays):
            assert (before == array).all()
        assert old.lookup_batch_hops(addresses) == expected
        assert plan.lookup_batch_hops(addresses) == \
            [fib.lookup(a) for a in addresses]


class TestPaperTable3:
    """§4.2's worked example: the initial table for Table 1 with k=4."""

    def test_initial_table_contents(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        entries = {(e.value, e.mask): e.data for e in bsic.initial.entries()}
        # 011* -> next hop B (=1): a short prefix padded with wildcards.
        assert entries[(0b0110, 0b1110)] == ("hop", 1)
        # 0101, 1001, 1010 -> pointers to BSTs.
        assert entries[(0b0101, 0b1111)][0] == "bst"
        assert entries[(0b1001, 0b1111)][0] == "bst"
        assert entries[(0b1010, 0b1111)][0] == "bst"
        assert len(entries) == 4

    def test_bst2_has_five_ranges_plus_completion(self, example_fib):
        # Paper Table 13: slice 1001 expands to 7 intervals.
        bsic = Bsic(example_fib, k=4)
        root = dict(
            (e.value, e.data) for e in bsic.initial.entries()
        )[0b1001][1]
        sizes = []
        index, level = root, 0
        # Count nodes reachable from this root.
        frontier = [(0, root)]
        count = 0
        while frontier:
            level, idx = frontier.pop()
            _e, _h, left, right = bsic.forest.node(level, idx)
            count += 1
            if left is not None:
                frontier.append((level + 1, left))
            if right is not None:
                frontier.append((level + 1, right))
        assert count == 7


class TestLookup:
    def test_exhaustive_on_example(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        for addr in range(256):
            assert bsic.lookup(addr) == example_fib.lookup(addr), addr

    def test_matches_oracle_ipv4(self, ipv4_fib, ipv4_addresses):
        bsic = Bsic(ipv4_fib, k=16)
        for addr in ipv4_addresses:
            assert bsic.lookup(addr) == ipv4_fib.lookup(addr)

    def test_matches_oracle_ipv6(self, ipv6_fib, ipv6_addresses):
        bsic = Bsic(ipv6_fib)  # default k=24 for IPv6
        assert bsic.k == 24
        for addr in ipv6_addresses:
            assert bsic.lookup(addr) == ipv6_fib.lookup(addr)

    def test_misdirected_address_inherits_slice_default(self):
        # An address whose slice points to a BST but matches none of the
        # BST's prefixes must land on the slice's own LPM (App. A.4).
        fib = Fib(32)
        fib.insert(P("10.0.0.0/8"), 1)
        fib.insert(P("10.1.2.0/24"), 3)
        bsic = Bsic(fib, k=16)
        assert bsic.lookup(A("10.1.9.9")) == 1

    def test_invalid_k(self, ipv4_fib):
        with pytest.raises(ValueError):
            Bsic(ipv4_fib, k=0)
        with pytest.raises(ValueError):
            Bsic(ipv4_fib, k=32)


class TestUpdates:
    def test_insert_long_rebuilds_bst(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        bsic.insert(from_bitstring("10011111", 8), 3)
        assert bsic.lookup(0b10011111) == 3
        assert bsic.lookup(0b10010000) == 2  # unchanged neighbours

    def test_insert_short_updates_defaults(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        bsic.insert(from_bitstring("10", 8), 9)
        # 1000**** has no specific match; now inherits the new /2.
        assert bsic.lookup(0b10001111) == 9
        assert bsic.lookup(0b10010000) == 2  # more specific still wins

    def test_delete(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        bsic.delete(from_bitstring("10011010", 8))
        assert bsic.lookup(0b10011010) is None
        with pytest.raises(KeyError):
            bsic.delete(from_bitstring("10011010", 8))

    def test_update_storm_stays_correct(self, example_fib):
        import random

        rng = random.Random(5)
        fib = Fib(8)
        bsic = Bsic(fib, k=4)
        live = {}
        for _ in range(60):
            bits = rng.randrange(256)
            length = rng.randrange(1, 9)
            prefix = from_bitstring(format(bits, "08b")[:length], 8)
            if prefix in live and rng.random() < 0.5:
                bsic.delete(prefix)
                fib.delete(prefix)
                del live[prefix]
            else:
                hop = rng.randrange(16)
                bsic.insert(prefix, hop)
                fib.insert(prefix, hop)
                live[prefix] = hop
            for addr in range(0, 256, 7):
                assert bsic.lookup(addr) == fib.lookup(addr)


class TestModel:
    def test_steps_is_one_plus_depth(self, ipv6_fib):
        bsic = Bsic(ipv6_fib)
        assert bsic.cram_metrics().steps == 1 + bsic.forest.depth

    def test_cram_program_equivalence(self, example_fib):
        bsic = Bsic(example_fib, k=4)
        for addr in range(0, 256, 3):
            assert bsic.cram_lookup(addr) == bsic.lookup(addr)

    def test_layout_tofino_doubles_bst_stages(self, ipv6_fib):
        bsic = Bsic(ipv6_fib)
        ideal = map_to_ideal_rmt(bsic.layout())
        tofino = map_to_tofino2(bsic.layout())
        # §6.5.3: each BST level needs two Tofino-2 stages.
        assert tofino.stages >= 2 * bsic.forest.depth
        assert ideal.stages == 1 + bsic.forest.depth

    def test_layout_scaling_is_linear_in_universes(self, ipv6_fib):
        bsic = Bsic(ipv6_fib)
        base = bsic.layout()
        doubled = base.scaled(2.0)
        assert doubled.total_entries() == 2 * base.total_entries()

    def test_initial_tcam_compression(self, ipv6_fib):
        # The initial TCAM must hold far fewer entries than prefixes.
        bsic = Bsic(ipv6_fib)
        assert len(bsic.initial) < len(ipv6_fib) / 4
