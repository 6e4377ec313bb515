"""HI-BST (Shen et al. [65]): the IPv6 SRAM-only baseline (§6.5.1).

HI-BST performs IPv6 lookup with a hierarchical *balanced* search tree
that maps each prefix to a unique node — the most memory-efficient
IPv6 scheme to date [90].  Its weakness on RMT chips, which §7.2
quantifies, is depth: a balanced tree over ``n`` prefixes needs about
``log2(n)`` dependent probes, and every probe is a pipeline stage.

Reproduction notes (see DESIGN.md):

* The tree is stored *per level* (memory fan-out), each level one
  logical table; the per-level mapping is what yields the paper's 18
  ideal-RMT stages at 190k prefixes and the ~340k-prefix ceiling.
* Search works on the prefix start points ordered by (value, length).
  The predecessor of an address under this order either contains the
  address (then it is the LPM) or shares its longest containing
  ancestor with it; each node therefore carries its chain of covering
  ancestors — real-table nesting is shallow, and the node-size
  constant below (from [65]'s memory model) accounts for it.
* Updates rebalance by rebuilding (the paper's baseline comparison
  only exercises memory and stages, not update latency).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import exact_table
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .base import UPDATE_REBUILD, LookupAlgorithm

NEXT_HOP_BITS = 8
POINTER_BITS = 20
#: Bits per tree node under [65]'s memory model: 64b key, 8b next hop,
#: two 20b children, 24b balance/ancestor metadata.
NODE_BITS = 64 + NEXT_HOP_BITS + 2 * POINTER_BITS + 24


class _Node:
    __slots__ = ("prefix", "hop", "ancestors", "left", "right")

    def __init__(self, prefix: Prefix, hop: int,
                 ancestors: List[Tuple[int, int]]):
        self.prefix = prefix
        self.hop = hop
        #: [(length, hop)] of FIB prefixes properly covering this one,
        #: ascending by length.
        self.ancestors = ancestors
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class HiBst(LookupAlgorithm):
    """Behavioural HI-BST over any address family (the paper uses IPv6)."""

    #: Updates rebalance by rebuilding the whole balanced tree.
    update_strategy = UPDATE_REBUILD

    def __init__(self, fib: Fib):
        self.width = fib.width
        self.name = "HI-BST"
        self._fib_snapshot = list(fib)
        self._build()

    def _build(self) -> None:
        self._vector_arrays = None  # linearized-level cache (lane compiler)
        entries = sorted(
            self._fib_snapshot, key=lambda kv: (kv[0].value, kv[0].length)
        )
        self.size = len(entries)
        nodes: List[_Node] = []
        # Ancestor chains via a stack sweep over (value, length) order:
        # a covering prefix always precedes its descendants.
        stack: List[Tuple[Prefix, int]] = []
        for prefix, hop in entries:
            while stack and not stack[-1][0].is_prefix_of(prefix):
                stack.pop()
            ancestors = [(p.length, h) for p, h in stack]
            nodes.append(_Node(prefix, hop, ancestors))
            stack.append((prefix, hop))

        #: Per-level storage: levels[d][i] mirrors the balanced tree.
        self.levels: List[List[_Node]] = []
        self.root_index: Optional[int] = None

        def build(lo: int, hi: int, depth: int) -> Optional[int]:
            if lo > hi:
                return None
            while len(self.levels) <= depth:
                self.levels.append([])
            mid = (lo + hi) // 2
            node = nodes[mid]
            left = build(lo, mid - 1, depth + 1)
            right = build(mid + 1, hi, depth + 1)
            node.left = left
            node.right = right
            index = len(self.levels[depth])
            self.levels[depth].append(node)
            return index

        self.root_index = build(0, len(nodes) - 1, 0)

    # ------------------------------------------------------------------
    # Updates: rebuild (the balanced structure is static here)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        self._fib_snapshot = [
            (p, h) for p, h in self._fib_snapshot if p != prefix
        ] + [(prefix, next_hop)]
        self._build()

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        kept = [(p, h) for p, h in self._fib_snapshot if p != prefix]
        if len(kept) == len(self._fib_snapshot):
            raise KeyError(str(prefix))
        self._fib_snapshot = kept
        self._build()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _predecessor(self, address: int) -> Optional[_Node]:
        """Largest node with (value, length) <= (address, width)."""
        index, level = self.root_index, 0
        best: Optional[_Node] = None
        while index is not None:
            node = self.levels[level][index]
            if node.prefix.value <= address:
                best = node
                index = node.right
            else:
                index = node.left
            level += 1
        return best

    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        node = self._predecessor(address)
        if node is None:
            return None
        if node.prefix.matches(address):
            return node.hop
        # The LPM of `address` is the longest ancestor of the
        # predecessor that also covers `address`: its length is bounded
        # by the bits the two share.
        common = _common_bits(node.prefix.value, address, self.width)
        for length, hop in reversed(node.ancestors):
            if length <= common:
                return hop
        return None

    # ------------------------------------------------------------------
    # CRAM model: one step per tree level
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram(
            "HI-BST", registers=["addr", "ptr", "pred_level", "pred_index"]
        )
        previous: Optional[str] = None
        if self.root_index is None:
            prog.add_step(Step("empty", reads=["addr"], writes=["ptr"],
                               action=lambda s, r: None))
            return prog
        for depth, level_nodes in enumerate(self.levels):
            table = exact_table(
                f"level_{depth}", 0, len(level_nodes), NODE_BITS,
                key_selector=lambda s, depth=depth: (
                    self.root_index if depth == 0 else s.get("ptr")
                ),
                backing=lambda i, nodes=level_nodes: (i, nodes[i]),
            )

            def act(state: dict, result, depth=depth) -> None:
                if result is None:
                    state["ptr"] = None
                    return
                index, node = result
                if node.prefix.value <= state["addr"]:
                    state["pred_level"], state["pred_index"] = depth, index
                    state["ptr"] = node.right
                else:
                    state["ptr"] = node.left

            step = Step(f"level_{depth}", table=table,
                        reads=["addr", "ptr", "pred_level", "pred_index"],
                        writes=["ptr", "pred_level", "pred_index"], action=act)
            prog.add_step(step, after=[previous] if previous else [])
            previous = step.name
        return prog

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        if state.get("pred_level") is None:
            return None
        node = self.levels[state["pred_level"]][state["pred_index"]]
        if node.prefix.matches(state["addr"]):
            return node.hop
        common = _common_bits(node.prefix.value, state["addr"], self.width)
        for length, hop in reversed(node.ancestors):
            if length <= common:
                return hop
        return None

    # ------------------------------------------------------------------
    # Vector lowering (the lane compiler)
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        """Lower the balanced-tree walk to lane kernels.

        Each level is linearized into flat per-field arrays (prefix
        value, child indices) indexed by the ``ptr`` register; the
        predecessor descent becomes one fancy-indexed compare per
        level.  Node values are full-width keys, so their columns have
        the address lanes' ``key_dtype(width)`` and the endpoint
        compare stays inside one dtype.
        """
        import numpy as np

        from ..core.vector import VectorStepSpec, key_dtype

        if self.root_index is None:
            return {"empty": VectorStepSpec(
                update=lambda lanes, _v, _f, _a: None)}

        self._vector_extract_arrays()  # now, not on the first batch
        specs = {}
        root = self.root_index
        for depth, level_nodes in enumerate(self.levels):
            values = np.array([n.prefix.value for n in level_nodes],
                              dtype=key_dtype(self.width))
            left = np.array(
                [0 if n.left is None else n.left for n in level_nodes],
                dtype=np.int64)
            left_none = np.array([n.left is None for n in level_nodes],
                                 dtype=bool)
            right = np.array(
                [0 if n.right is None else n.right for n in level_nodes],
                dtype=np.int64)
            right_none = np.array([n.right is None for n in level_nodes],
                                  dtype=bool)

            def level_update(lanes, _vals, _found, _active, depth=depth,
                             values=values, left=left, left_none=left_none,
                             right=right, right_none=right_none):
                if depth == 0:
                    walking = np.ones(lanes.n, dtype=bool)
                    idx = np.full(lanes.n, root, dtype=np.int64)
                else:
                    walking = lanes.present("ptr")
                    idx = np.where(walking, lanes.values("ptr"), 0)
                le = walking & (values[idx] <= lanes.values("addr"))
                gt = walking & ~le
                lanes.assign_where("pred_level", le, depth)
                lanes.assign_where("pred_index", le, idx)
                ptr_vals = np.zeros(lanes.n, dtype=np.int64)
                ptr_none = np.ones(lanes.n, dtype=bool)
                np.copyto(ptr_vals, right[idx], where=le)
                np.copyto(ptr_none, right_none[idx], where=le)
                np.copyto(ptr_vals, left[idx], where=gt)
                np.copyto(ptr_none, left_none[idx], where=gt)
                lanes.assign("ptr", ptr_vals, none=ptr_none)

            specs[f"level_{depth}"] = VectorStepSpec(update=level_update)
        return specs

    def _vector_extract_arrays(self):
        """Flattened node + CSR ancestor arrays for vector extraction
        (cached; ``_build`` invalidates).  Each ancestor is keyed by
        ``gid * (width + 1) + length``: chains ascend by length and
        nodes by ``gid``, so the keys are globally sorted and the
        longest fitting ancestor of every lane is one floor search."""
        import numpy as np

        from ..core.vector import key_dtype

        if self._vector_arrays is None:
            nodes = [node for level_nodes in self.levels
                     for node in level_nodes]
            sizes = [len(level_nodes) for level_nodes in self.levels]
            offsets = np.zeros(len(sizes), dtype=np.int64)
            np.cumsum(sizes[:-1], out=offsets[1:])
            chains = [len(node.ancestors) for node in nodes]
            anc_start = np.zeros(len(nodes) + 1, dtype=np.int64)
            np.cumsum(chains, out=anc_start[1:])
            ancestors = [pair for node in nodes for pair in node.ancestors]
            stride = self.width + 1
            self._vector_arrays = (
                offsets,
                np.array([node.prefix.value for node in nodes],
                         dtype=key_dtype(self.width)),
                np.array([node.prefix.length for node in nodes],
                         dtype=np.int64),
                np.array([node.hop for node in nodes], dtype=np.int64),
                anc_start,
                np.repeat(np.arange(len(nodes), dtype=np.int64) * stride,
                          chains)
                + np.array([length for length, _hop in ancestors],
                           dtype=np.int64),
                np.array([hop for _length, hop in ancestors],
                         dtype=np.int64),
            )
        return self._vector_arrays

    def vector_extract_hop(self, lanes):
        import numpy as np

        n = lanes.n
        vals = np.zeros(n, dtype=np.int64)
        none = np.ones(n, dtype=bool)
        pred = lanes.present("pred_level")
        if self.root_index is None or not pred.any():
            return vals, none
        offsets, value, length, hop, anc_start, anc_key, anc_hop = (
            self._vector_extract_arrays())
        gid = np.where(
            pred,
            offsets[np.where(pred, lanes.values("pred_level"), 0)]
            + lanes.values("pred_index"), 0)
        # The predecessor covers the address when the bits they share
        # reach its length (a shift by width - length would be by 64).
        common = self.width - _bit_length_vec(
            value[gid] ^ lanes.values("addr"))
        matches = pred & (common >= length[gid])
        np.copyto(vals, hop[gid], where=matches)
        none &= ~matches
        # Non-matching predecessors resolve through the longest covering
        # ancestor whose length fits the shared leading bits: the floor
        # of gid * (width + 1) + common, found when it is still in the
        # lane's own chain.
        rest = pred & ~matches
        if rest.any() and anc_hop.size:
            pos = anc_key.searchsorted(gid * (self.width + 1) + common,
                                       side="right")
            pos -= 1
            found = rest & (pos >= anc_start[gid])
            np.copyto(vals, anc_hop[pos], where=found)
            none &= ~found
        vals[none] = 0
        return vals, none

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        return hibst_layout_from_size(self.size, name=self.name)


def _common_bits(a: int, b: int, width: int) -> int:
    """Length of the shared leading bits of two addresses."""
    diff = a ^ b
    return width if diff == 0 else width - diff.bit_length()


def _bit_length_vec(x):
    """Per-element ``int.bit_length`` of a non-negative key array, as
    ``int64``.

    A shift-halving reduction — exact, unlike a float ``log2`` whose
    rounding misclassifies values near powers of two.  The scalars
    take the keys' own dtype: ``uint64 >= int64`` compares as float64.
    """
    import numpy as np

    key = x.dtype.type
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (key(1) << key(shift))
        out += np.where(big, shift, 0)
        x = np.where(big, x >> key(shift), x)
    return out + (x != 0)


def hibst_layout_from_size(n: int, name: str = "HI-BST") -> Layout:
    """Analytic HI-BST layout for ``n`` prefixes (§7.2 scaling).

    A balanced tree over ``n`` nodes has ``ceil(log2(n+1))`` levels;
    level ``d`` holds ``min(2**d, remaining)`` nodes and is one phase.
    """
    phases: List[Phase] = []
    remaining = n
    depth = 0
    while remaining > 0:
        level_nodes = min(1 << depth, remaining)
        remaining -= level_nodes
        table = LogicalTable(
            f"level_{depth}", MemoryKind.SRAM, entries=level_nodes,
            key_width=0, data_width=NODE_BITS,
        )
        # Compare-then-descend fits one ideal-RMT stage (two dependent
        # ALU ops), two Tofino-2 stages.
        phases.append(Phase(f"level {depth}", [table], dependent_alu_ops=2))
        depth += 1
    if not phases:
        phases.append(Phase("empty", [], dependent_alu_ops=1))
    return Layout(name, phases)
