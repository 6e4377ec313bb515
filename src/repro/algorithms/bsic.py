"""BSIC: Binary Search with Initial CAM (§4).

BSIC applies three idioms to DXR:

* **I1 compress with TCAM** — the directly-indexed initial table
  becomes a ternary table, so ``k`` can grow to the TCAM block width
  (44 on Tofino-2) instead of DXR's direct-index ceiling of ~20; this
  is what makes IPv6 (k=24) tractable;
* **I8 memory fan-out** — the range table becomes per-slice binary
  search *trees* whose levels are separate tables, each accessed at
  most once per packet (at a ~2.9x memory cost over DXR's single
  table, but far below duplicating it per probe);
* **I4 strategic cutting** — ``k`` balances initial-TCAM size against
  BST depth (Figure 13 explores the trade-off; 24 is optimal for
  AS131072).

The BST construction follows Appendix A.4: prefix suffixes expand to
ranges completing the whole ``2**(width-k)`` space, uncovered
intervals inherit the slice's own longest match (so a mis-directed
address still resolves correctly), equal-hop neighbours merge, and
right endpoints are discarded.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.idioms import Idiom, IdiomApplication
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import exact_table, ternary_table
from ..memory.sram import RangeSections
from ..memory.tcam import TcamTable
from ..prefix.prefix import Prefix
from ..prefix.ranges import SliceIndex, bst_level_sizes, lookup_ranges
from ..prefix.trie import Fib
from .base import UPDATE_REBUILD, LookupAlgorithm

NEXT_HOP_BITS = 8
#: BST child pointers are 24 bits: the §7.2 multiverse scaling grows a
#: level table past 2**20 nodes well before the feasibility frontier,
#: so 20-bit pointers (enough for today's tables) would cap the very
#: scaling range the paper evaluates.
POINTER_BITS = 24
#: Initial-table result: 1 type bit + max(pointer, hop) bits.
INITIAL_DATA_BITS = 1 + POINTER_BITS
#: A BST node pointer: a slice and the span ``[lo, hi]`` of its section
#: under the node (the node itself is the span's midpoint).
NodePointer = Tuple[int, int, int]


class Bsic(LookupAlgorithm):
    """Behavioural BSIC for IPv4 (k=16) and IPv6 (k=24)."""

    #: Appendix A.3.2: an update rebuilds the affected structures from
    #: the auxiliary database.  Here those are the touched slices'
    #: sections and ternary rows, never the table: as a delta batch
    #: (``supports_delta``) every dirty slice is re-derived once per
    #: batch; with deltas off the runtime rebuilds once per batch
    #: instead of calling insert/delete per route.
    update_strategy = UPDATE_REBUILD
    supports_delta = True

    def __init__(self, fib: Fib, k: Optional[int] = None):
        if k is None:
            k = 16 if fib.width == 32 else 24
        if not 1 <= k < fib.width:
            raise ValueError(f"k {k} outside [1, {fib.width})")
        self.width = fib.width
        self.k = k
        self.suffix_bits = fib.width - k
        self.name = f"BSIC (k={k})"

        #: The auxiliary database: short-prefix trie + suffix groups.
        self._slices = SliceIndex(fib.width, k, fib)
        #: What the routes changed since the last flush invalidate:
        #: slices to re-derive, and ternary rows of prefixes shorter
        #: than k to re-write.
        self._dirty_slices: Set[int] = set()
        self._dirty_rows: Set[Prefix] = set()
        self._in_batch = False

        self.initial: TcamTable[Tuple] = TcamTable(self.k, name="initial")
        #: Each live slice's sorted range table.  Its BST is implicit
        #: (the PlanB layout): a node is a position in the section, its
        #: children computed from it, so no tree is stored beside it.
        self._sections = RangeSections(self.width, self.suffix_bits)
        # The build is the update path with everything dirty.
        self._dirty_slices.update(self._slices.groups)
        for prefix, _hop in self._slices.shorts.items():
            if prefix.length == self.k:
                self._dirty_slices.add(prefix.bits)
            else:
                self._dirty_rows.add(prefix)
        self._flush()

    def _refresh_slice(self, slice_bits: int) -> None:
        """Re-derive one slice's range section.  Its /k ternary row
        names the slice, not a tree, so the row is written only when
        the slice gains or loses its section."""
        had = slice_bits in self._sections.lefts
        section = self._slices.section(slice_bits)
        self._sections.set(slice_bits, section)
        if section is None:
            # No long prefix left: the row is the exact /k route's, if any.
            self._refresh_row(
                Prefix.from_bits(slice_bits, self.k, self.width))
        elif not had:
            self.initial.insert_prefix(
                Prefix.from_bits(slice_bits, self.k, self.k),
                ("bst", slice_bits))

    def _refresh_row(self, prefix: Prefix) -> None:
        """(Re)write or clear the ternary hop row of a short prefix."""
        row = Prefix.from_bits(prefix.bits, prefix.length, self.k)
        hop = self._slices.shorts.get(prefix)
        if hop is not None:
            self.initial.insert_prefix(row, ("hop", hop))
            return
        try:
            self.initial.delete_prefix(row)
        except KeyError:
            pass

    # ------------------------------------------------------------------
    # Updates (Appendix A.3.2: rebuild the affected structures)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        self._slices.announce(prefix, next_hop)
        self._touch(prefix)

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        self._slices.withdraw(prefix)
        self._touch(prefix)

    def _touch(self, prefix: Prefix) -> None:
        """Mark what a changed route invalidates: a prefix of length
        >= k its own slice (its section, or the /k row when the slice
        has none); a shorter one its ternary row and the sections under
        it, whose uncovered ranges inherit its hop."""
        if prefix.length >= self.k:
            self._dirty_slices.add(prefix.slice(0, self.k))
        else:
            self._dirty_rows.add(prefix)
            self._dirty_slices.update(self._slices.grouped_under(prefix))
        if not self._in_batch:
            self._flush()

    def begin_update_batch(self) -> None:
        """Defer re-derivation: a slice touched by several routes of
        one batch is rebuilt once, from the batch's final database."""
        self._in_batch = True

    def end_update_batch(self) -> None:
        self._in_batch = False
        self._flush()

    def _flush(self) -> None:
        for slice_bits in sorted(self._dirty_slices):
            self._refresh_slice(slice_bits)
        for prefix in sorted(self._dirty_rows):
            self._refresh_row(prefix)
        self._dirty_slices.clear()
        self._dirty_rows.clear()

    # ------------------------------------------------------------------
    # The BSTs, implicit over the sections (Figure 12, idiom I8)
    # ------------------------------------------------------------------
    @property
    def node_entry_bits(self) -> int:
        """Endpoint + next hop + two child pointers (§4.2's four fields)."""
        return self.suffix_bits + NEXT_HOP_BITS + 2 * POINTER_BITS

    def bst_root(self, slice_bits: int) -> NodePointer:
        """The root of a slice's BST: its whole section."""
        return slice_bits, 0, len(self._sections.lefts[slice_bits]) - 1

    def bst_node(self, pointer: NodePointer) -> Tuple:
        """``(endpoint, hop, left, right)`` of the node a pointer names:
        the section entry at the span's midpoint (Figure 12's balanced
        tree) and the spans either side of it as the child pointers,
        ``None`` when empty."""
        slice_bits, lo, hi = pointer
        mid = (lo + hi) // 2
        return (self._sections.lefts[slice_bits][mid],
                self._sections.hops[slice_bits][mid],
                (slice_bits, lo, mid - 1) if lo < mid else None,
                (slice_bits, mid + 1, hi) if mid < hi else None)

    def level_sizes(self) -> List[int]:
        """Nodes per BST level over every live slice: each section
        length's level profile, times the sections of that length."""
        sizes: List[int] = []
        for n, count in self._sections.lengths.items():
            profile = bst_level_sizes(n)
            sizes.extend([0] * (len(profile) - len(sizes)))
            for level, nodes in enumerate(profile):
                sizes[level] += count * nodes
        return sizes

    @property
    def depth(self) -> int:
        """BST levels: the deepest live tree's."""
        return len(self.level_sizes())

    # ------------------------------------------------------------------
    # Lookup (Algorithm 2)
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        result = self.initial.search(address >> self.suffix_bits)
        if result is None:
            return None
        kind, value = result
        if kind == "hop":
            return value
        return lookup_ranges(self._sections.lefts[value],
                             self._sections.hops[value],
                             address & ((1 << self.suffix_bits) - 1))

    # ------------------------------------------------------------------
    # CRAM model (Figure 6b: initial CAM + fanned-out BST levels)
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram(
            "BSIC", registers=["addr", "key", "ptr", "best", "done"]
        )
        initial = ternary_table(
            "initial", self.k, len(self.initial), INITIAL_DATA_BITS,
            key_selector=lambda s: s["addr"] >> self.suffix_bits,
            backing=self.initial,
        )

        def init_act(state: dict, result) -> None:
            state["key"] = state["addr"] & ((1 << self.suffix_bits) - 1)
            if result is None:
                state["done"] = 1
            elif result[0] == "hop":
                state["best"], state["done"] = result[1], 1
            else:
                state["ptr"] = self.bst_root(result[1])

        prog.add_step(Step("initial", table=initial, reads=["addr"],
                           writes=["key", "ptr", "best", "done"],
                           action=init_act))

        previous = "initial"
        for level, size in enumerate(self.level_sizes()):
            table = exact_table(
                f"bst_level_{level}", 0, size, self.node_entry_bits,
                key_selector=lambda s: None if s.get("done") or s.get("ptr") is None
                else s["ptr"],
                backing=self.bst_node,
            )

            def act(state: dict, result) -> None:
                if result is None:
                    state["ptr"] = None
                    return
                endpoint, hop, left, right = result
                if state["key"] == endpoint:
                    state["best"], state["done"] = hop, 1
                    state["ptr"] = None
                elif state["key"] > endpoint:
                    state["best"], state["ptr"] = hop, right
                else:
                    state["ptr"] = left

            step = Step(f"bst_level_{level}", table=table,
                        reads=["key", "ptr", "done", "best"],
                        writes=["ptr", "best", "done"], action=act)
            prog.add_step(step, after=[previous])
            previous = step.name
        return prog

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        return state.get("best")

    # ------------------------------------------------------------------
    # Vector lowering (the lane compiler)
    # ------------------------------------------------------------------
    #: Tag bit distinguishing ("hop", h) from ("bst", slice) in the
    #: initial view's int64 encoding: hop entries carry bit 32.
    _HOP_TAG = 1 << 32

    def _encode_initial(self, data) -> Optional[int]:
        kind, value = data
        if kind == "hop":
            return self._HOP_TAG | int(value)
        return int(value)

    def vector_specs(self, prev):
        """Lower Algorithm 2 to lane kernels.

        The initial TCAM is one floor search of its range form (hop vs
        BST results told apart by a tag bit), re-frozen from
        ``prev``.  A walk down a BST built from a sorted range table is
        a binary search of it, so the levels lower to one floor search
        over every live slice's table (the PlanB move): ``bst_level_0``
        resolves each lane sent to a tree, the deeper levels are no-ops.
        A deeper tree grows the program, and the engine recompiles.
        """
        from ..core.vector import VectorStepSpec, key_slice, range_search_specs

        initial_view = self.initial.vector_reader(
            encode=self._encode_initial, prev=prev.get("initial"))
        if initial_view is None:
            return {}
        hop_tag = self._HOP_TAG

        def init_update(lanes, vals, found, active):
            is_hop = found & (vals >= hop_tag)
            is_bst = found & ~is_hop
            lanes.assign("done", np.where(is_bst, 0, 1), none=is_bst)
            lanes.assign("best", np.where(is_hop, vals & (hop_tag - 1), 0),
                         none=~is_hop)

        specs = {"initial": VectorStepSpec(
            update=init_update,
            select=lambda lanes: (
                key_slice(lanes.values("addr"), self.suffix_bits), None),
            reader=initial_view,
        )}
        specs.update(range_search_specs(
            self._sections.freeze(prev.get("bst_level_0")),
            [f"bst_level_{depth}" for depth in range(self.depth)]))
        return specs

    def vector_extract_hop(self, lanes):
        return lanes.values("best"), lanes.is_none("best")

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        return bsic_layout_from_counts(
            initial_entries=len(self.initial),
            level_sizes=self.level_sizes(),
            k=self.k,
            width=self.width,
            name=self.name,
        )

    def idioms_applied(self) -> List[IdiomApplication]:
        return [
            IdiomApplication(Idiom.COMPRESS_WITH_TCAM, "initial table",
                             "ternary slices instead of 2^k direct slots"),
            IdiomApplication(Idiom.MEMORY_FAN_OUT, "range table",
                             "per-level BST tables, one access each"),
            IdiomApplication(Idiom.STRATEGIC_CUTTING, "k",
                             "balances TCAM size against BST depth"),
        ]


def bsic_layout_from_counts(
    initial_entries: int,
    level_sizes: List[int],
    k: int,
    width: int,
    name: Optional[str] = None,
) -> Layout:
    """BSIC's chip layout from table populations.

    Exposed separately so the §7.2 multiverse scaling can scale the
    populations analytically (universes are disjoint copies, so every
    table grows by exactly the universe count).
    """
    endpoint_bits = width - k
    node_bits = endpoint_bits + NEXT_HOP_BITS + 2 * POINTER_BITS
    initial = LogicalTable(
        "initial", MemoryKind.TCAM, entries=initial_entries, key_width=k,
        data_width=INITIAL_DATA_BITS,
    )
    phases = [Phase("initial TCAM", [initial], dependent_alu_ops=1)]
    for level, size in enumerate(level_sizes):
        table = LogicalTable(
            f"bst_level_{level}", MemoryKind.SRAM, entries=size, key_width=0,
            data_width=node_bits,
        )
        # Compare-then-act: two dependent ALU ops — one ideal-RMT
        # stage, two Tofino-2 stages (§6.5.3).
        phases.append(Phase(f"BST level {level}", [table], dependent_alu_ops=2))
    return Layout(name or f"BSIC (k={k})", phases)
