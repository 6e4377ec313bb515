"""Poptrie (Asai & Ohara [7]): the compressed-trie software champion.

The paper *declines* to CRAM-ify Poptrie: "we do not consider
state-of-the-art compressed trie schemes like Poptrie [...] because in
the CRAM model, one can directly compress with TCAM without the extra
computational and storage costs of bitmap compression" (§2.3), and
rejects it as an SRAM baseline because "they require too many memory
accesses and stages" (§6.5.1).  Implementing it makes those judgements
measurable: Poptrie's SRAM footprint is indeed tiny, but every level
needs a bitmap extraction, a 64-bit popcount, and a base-plus-offset
add — a chain of dependent ALU work that multiplies pipeline stages on
RMT hardware, which is exactly the cost MASHUP's TCAM nodes avoid.

Structure (faithful to the original):

* *direct pointing*: a ``2**dp_bits`` root array jumps straight to a
  level-0 node or leaf;
* 6-bit stride internal nodes holding two 64-bit vectors — ``vector``
  marks slots with children, ``leafvec`` marks the starts of leaf
  runs — plus dense child/leaf base offsets;
* children and leaves live in packed arrays indexed by popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import exact_table
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .base import LookupAlgorithm, UpdateUnsupported

STRIDE = 6
NEXT_HOP_BITS = 16  # poptrie stores 16-bit leaves
#: vector(64) + leafvec(64) + child base(32) + leaf base(32).
NODE_BITS = 64 + 64 + 32 + 32
DP_ENTRY_BITS = 32
#: Dependent ALU chain per level: extract 6 bits, mask+popcount, add base.
LEVEL_ALU_OPS = 3


@dataclass
class _Node:
    vector: int = 0
    leafvec: int = 0
    child_base: int = 0
    leaf_base: int = 0


class Poptrie(LookupAlgorithm):
    """Behavioural Poptrie with direct pointing."""

    def __init__(self, fib: Fib, dp_bits: int = 16):
        self.width = fib.width
        if not 1 <= dp_bits < self.width:
            raise ValueError(f"dp_bits {dp_bits} outside [1, {self.width})")
        self.dp_bits = dp_bits
        self.name = f"Poptrie (dp={dp_bits})"
        self._fib = fib

        # Level boundaries: dp_bits, then 6-bit strides with a ragged
        # final stride reaching the address width.
        self._boundaries = list(range(dp_bits, self.width, STRIDE))

        # Which blocks have FIB prefixes strictly longer than the block.
        self._extends: Set[Tuple[int, int]] = set()
        for prefix, _hop in fib:
            for boundary in self._boundaries:
                if prefix.length > boundary:
                    self._extends.add((boundary, prefix.bits >> (prefix.length - boundary)))

        #: Per level: packed node and leaf arrays (level 0 is just
        #: below the direct-pointing table).
        self.levels: List[List[_Node]] = []
        self.leaf_arrays: List[List[int]] = []
        #: Direct-pointing table: ('node', index) | ('leaf', hop+1 | 0).
        self.dp_table: List[Tuple[str, int]] = []
        for block in range(1 << dp_bits):
            if (dp_bits, block) in self._extends:
                index = self._build_node(block, dp_bits, level=0)
                self.dp_table.append(("node", index))
            else:
                hop = fib.lookup(block << (self.width - dp_bits))
                self.dp_table.append(("leaf", 0 if hop is None else hop + 1))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _stride_at(self, depth: int) -> int:
        """6 bits per level, ragged at the bottom of the address."""
        return min(STRIDE, self.width - depth)

    def _build_node(self, block: int, depth: int, level: int) -> int:
        while len(self.levels) <= level:
            self.levels.append([])
            self.leaf_arrays.append([])
        node = _Node()
        nodes = self.levels[level]
        leaves = self.leaf_arrays[level]
        index = len(nodes)
        nodes.append(node)

        stride = self._stride_at(depth)
        child_blocks = []
        pending_leaves: List[Tuple[int, int]] = []  # (slot, encoded hop)
        previous_leaf: Optional[int] = None
        for slot in range(1 << stride):
            child_block = (block << stride) | slot
            child_depth = depth + stride
            if (child_depth, child_block) in self._extends:
                node.vector |= 1 << slot
                child_blocks.append(child_block)
                continue
            hop = self._fib.lookup(child_block << (self.width - child_depth))
            encoded = 0 if hop is None else hop + 1
            if previous_leaf is None or encoded != previous_leaf:
                node.leafvec |= 1 << slot
                pending_leaves.append((slot, encoded))
            previous_leaf = encoded

        node.leaf_base = len(leaves)
        leaves.extend(encoded for _slot, encoded in pending_leaves)
        # Children are built after this node so the packed child array
        # is contiguous: record the base, then recurse in slot order.
        node.child_base = len(nodes)  # placeholder; fixed below
        child_indexes = [
            self._build_node(cb, depth + stride, level + 1) for cb in child_blocks
        ]
        node.child_base = child_indexes[0] if child_indexes else 0
        # Contiguity invariant: recursion appends children depth-first,
        # so sibling order == packed order at the next level.
        for offset, child_index in enumerate(child_indexes):
            assert child_index == node.child_base + offset
        return index

    # ------------------------------------------------------------------
    # Updates: unsupported — the packed node/leaf arrays and popcount
    # bases shift under any mutation; rebuild from the FIB instead.
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        raise UpdateUnsupported(
            f"{self.name}: packed popcount arrays have no in-place insert; "
            "rebuild from the FIB"
        )

    def delete(self, prefix: Prefix) -> None:
        raise UpdateUnsupported(
            f"{self.name}: packed popcount arrays have no in-place delete; "
            "rebuild from the FIB"
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        kind, value = self.dp_table[address >> (self.width - self.dp_bits)]
        if kind == "leaf":
            return value - 1 if value else None
        index, level, depth = value, 0, self.dp_bits
        while True:
            node = self.levels[level][index]
            stride = self._stride_at(depth)
            slot = (address >> (self.width - depth - stride)) & ((1 << stride) - 1)
            below = (1 << (slot + 1)) - 1
            if (node.vector >> slot) & 1:
                index = node.child_base + bin(node.vector & below).count("1") - 1
                level += 1
                depth += stride
                continue
            run = bin(node.leafvec & below).count("1")
            encoded = self.leaf_arrays[level][node.leaf_base + run - 1]
            return encoded - 1 if encoded else None

    # ------------------------------------------------------------------
    # CRAM model
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram(
            "Poptrie",
            registers=["addr", "ptr", "leaf_ref", "hop"],
        )
        dp = exact_table(
            "dp", self.dp_bits, 1 << self.dp_bits, DP_ENTRY_BITS,
            key_selector=lambda s: s["addr"] >> (self.width - self.dp_bits),
            backing=lambda i: self.dp_table[i],
        )

        def dp_act(state: dict, result) -> None:
            kind, value = result
            if kind == "leaf":
                state["hop"] = value - 1 if value else None
            else:
                state["ptr"] = value

        prog.add_step(Step("dp", table=dp, reads=["addr"],
                           writes=["ptr", "hop"], action=dp_act))

        previous = "dp"
        for level in range(len(self.levels)):
            depth = self.dp_bits + level * STRIDE

            def selector(s: dict, level=level):
                return None if s.get("ptr") is None else s["ptr"]

            def backing(i: int, level=level):
                return self.levels[level][i]

            def act(state: dict, result, level=level, depth=depth) -> None:
                state["ptr"] = None
                if result is None:
                    return
                stride = self._stride_at(depth)
                slot = (state["addr"] >> (self.width - depth - stride)) & (
                    (1 << stride) - 1
                )
                below = (1 << (slot + 1)) - 1
                if (result.vector >> slot) & 1:
                    state["ptr"] = (
                        result.child_base + bin(result.vector & below).count("1") - 1
                    )
                else:
                    run = bin(result.leafvec & below).count("1")
                    state["leaf_ref"] = (level, result.leaf_base + run - 1)

            table = exact_table(
                f"nodes_L{level}", 0, len(self.levels[level]), NODE_BITS,
                key_selector=selector, backing=backing,
            )
            step = Step(f"nodes_L{level}", table=table,
                        reads=["addr", "ptr", "leaf_ref"],
                        writes=["ptr", "leaf_ref"], action=act)
            prog.add_step(step, after=[previous])
            previous = step.name

        leaf_spec = exact_table(
            "leaves", 0, sum(len(l) for l in self.leaf_arrays), NEXT_HOP_BITS,
            key_selector=lambda s: s.get("leaf_ref"),
            backing=lambda ref: self.leaf_arrays[ref[0]][ref[1]],
        )

        def leaf_act(state: dict, result) -> None:
            if result is not None:
                state["hop"] = result - 1 if result else None

        prog.add_step(Step("leaves", table=leaf_spec,
                           reads=["leaf_ref", "hop"], writes=["hop"],
                           action=leaf_act), after=[previous])
        return prog

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector): every step fully lowered
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        from ..core.vector import VectorStepSpec, key_slice, popcount64

        specs = {}

        # Direct-pointing table as kind/value columns (kind 0 = leaf).
        dp_kind = np.array([k == "node" for k, _v in self.dp_table],
                           dtype=bool)
        dp_val = np.array([v for _k, v in self.dp_table], dtype=np.int64)
        dp_shift = self.width - self.dp_bits

        def dp_update(lanes, vals, found, active):
            slot = key_slice(lanes.values("addr"), dp_shift)
            is_node = dp_kind[slot]
            value = dp_val[slot]
            routed = ~is_node & (value != 0)
            lanes.assign("hop", np.where(routed, value - 1, 0), none=~routed)
            lanes.assign("ptr", np.where(is_node, value, 0), none=~is_node)

        specs["dp"] = VectorStepSpec(dp_update)

        # The per-level leaf arrays concatenate into one flat store; a
        # lane's leaf_ref becomes level offset + leaf_base + run - 1 —
        # an int, so the SoA register file never sees the scalar
        # model's (level, index) tuples.
        leaf_offsets = []
        offset = 0
        for leaves in self.leaf_arrays:
            leaf_offsets.append(offset)
            offset += len(leaves)
        all_leaves = np.array(
            [e for leaves in self.leaf_arrays for e in leaves] or [0],
            dtype=np.int64)
        full = np.uint64(0xFFFFFFFFFFFFFFFF)

        def level_spec(level):
            nodes = self.levels[level]
            vector = np.array([n.vector for n in nodes] or [0],
                              dtype=np.uint64)
            leafvec = np.array([n.leafvec for n in nodes] or [0],
                               dtype=np.uint64)
            child_base = np.array([n.child_base for n in nodes] or [0],
                                  dtype=np.int64)
            leaf_base = np.array([n.leaf_base for n in nodes] or [0],
                                 dtype=np.int64)
            depth = self.dp_bits + level * STRIDE
            stride = self._stride_at(depth)
            shift = self.width - depth - stride
            mask = (1 << stride) - 1
            level_offset = leaf_offsets[level]

            def update(lanes, vals, found, active):
                walking = lanes.present("ptr")
                ptr = np.where(walking, lanes.values("ptr"), 0)
                slot = key_slice(lanes.values("addr"), shift,
                                 mask).astype(np.uint64)
                # (1 << (slot+1)) - 1 without the slot=63 shift overflow.
                below = full >> (np.uint64(63) - slot)
                vec = vector[ptr]
                has_child = ((vec >> slot) & np.uint64(1)).astype(bool)
                descend = walking & has_child
                child = child_base[ptr] + popcount64(vec & below) - 1
                run = popcount64(leafvec[ptr] & below)
                leaf_ref = level_offset + leaf_base[ptr] + run - 1
                lanes.assign("ptr", np.where(descend, child, 0),
                             none=~descend)
                lanes.assign_where("leaf_ref", walking & ~has_child,
                                   leaf_ref)

            return VectorStepSpec(update)

        for level in range(len(self.levels)):
            specs[f"nodes_L{level}"] = level_spec(level)

        def leaf_update(lanes, vals, found, active):
            referenced = lanes.present("leaf_ref")
            encoded = all_leaves[
                np.where(referenced, lanes.values("leaf_ref"), 0)]
            lanes.assign_where("hop", referenced, encoded - 1,
                               none=encoded == 0)

        specs["leaves"] = VectorStepSpec(leaf_update)
        return specs

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        phases = [Phase(
            "direct pointing",
            [LogicalTable("dp", MemoryKind.SRAM, entries=1 << self.dp_bits,
                          key_width=self.dp_bits, data_width=DP_ENTRY_BITS,
                          direct_index=True)],
            dependent_alu_ops=1,
        )]
        for level, nodes in enumerate(self.levels):
            phases.append(Phase(
                f"level {level}",
                [LogicalTable(f"nodes_L{level}", MemoryKind.SRAM,
                              entries=len(nodes), key_width=0,
                              data_width=NODE_BITS)],
                # The bitmap-compression tax: extract, popcount, add —
                # a dependent chain every level, every packet.
                dependent_alu_ops=LEVEL_ALU_OPS,
            ))
        total_leaves = sum(len(l) for l in self.leaf_arrays)
        phases.append(Phase(
            "leaves",
            [LogicalTable("leaves", MemoryKind.SRAM, entries=total_leaves,
                          key_width=0, data_width=NEXT_HOP_BITS)],
            dependent_alu_ops=1,
        ))
        return Layout(self.name, phases)

    def total_nodes(self) -> int:
        return sum(len(level) for level in self.levels)

    def total_leaves(self) -> int:
        return sum(len(level) for level in self.leaf_arrays)

    def sram_bits(self) -> int:
        """Software footprint: dp + nodes + packed leaves."""
        return ((1 << self.dp_bits) * DP_ENTRY_BITS
                + self.total_nodes() * NODE_BITS
                + self.total_leaves() * NEXT_HOP_BITS)
