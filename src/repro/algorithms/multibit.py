"""Multibit tries with controlled prefix expansion (Srinivasan & Varghese [70]).

The trie-based baseline (§5).  Each level consumes a fixed *stride* of
address bits; a node is a ``2**stride`` array of slots holding a next
hop (from prefixes expanded within the node) and/or a child pointer.
Strides trade lookup depth against expansion waste — the starting
point MASHUP improves by hybridizing nodes between TCAM and SRAM.

This module also owns the trie construction that MASHUP reuses: nodes
remember their un-expanded *segments* (the prefix fragments that ended
inside them), which is what the I1/I2 hybridization rule counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import exact_table
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .base import UPDATE_IN_PLACE, LookupAlgorithm

NEXT_HOP_BITS = 8
POINTER_BITS = 20
#: SRAM slot: valid bit + next hop + child pointer.
SLOT_BITS = 1 + NEXT_HOP_BITS + POINTER_BITS


class TrieNode:
    """One multibit-trie node, stored sparsely.

    The hardware rendering of a direct-indexed node is a dense
    ``2**stride`` array — and that density is exactly what the
    accounting charges — but the *simulator* keeps only the raw
    segments and answers slot queries by probing lengths descending,
    so wide sparse nodes (e.g. 16-bit-stride IPv6 leaves) cost memory
    proportional to their population, not their span.
    """

    __slots__ = ("stride", "level", "children", "segments", "_lengths")

    def __init__(self, stride: int, level: int):
        self.stride = stride
        self.level = level
        self.children: Dict[int, "TrieNode"] = {}
        #: (segment bits, segment length) -> hop; the node's un-expanded
        #: contents, used by MASHUP's TCAM rendering.
        self.segments: Dict[Tuple[int, int], int] = {}
        self._lengths: Dict[int, int] = {}  # length -> segment count

    def set_segment(self, bits: int, length: int, hop: int) -> None:
        """Install a prefix fragment ending inside this node."""
        if not 1 <= length <= self.stride:
            raise ValueError(f"segment length {length} outside [1, {self.stride}]")
        if (bits, length) not in self.segments:
            self._lengths[length] = self._lengths.get(length, 0) + 1
        self.segments[(bits, length)] = hop

    def remove_segment(self, bits: int, length: int) -> None:
        if (bits, length) not in self.segments:
            raise KeyError((bits, length))
        del self.segments[(bits, length)]
        remaining = self._lengths[length] - 1
        if remaining:
            self._lengths[length] = remaining
        else:
            del self._lengths[length]

    def hop_at(self, slot: int) -> Optional[int]:
        """The expanded next hop of one slot: its longest covering segment."""
        for length in sorted(self._lengths, reverse=True):
            hop = self.segments.get((slot >> (self.stride - length), length))
            if hop is not None:
                return hop
        return None

    def expanded_slots(self) -> Dict[int, Optional[int]]:
        """slot -> hop for every slot covered by some segment.

        Processes segments by ascending length so longer (more
        specific) segments overwrite shorter ones — controlled prefix
        expansion within the node.
        """
        slots: Dict[int, Optional[int]] = {}
        for (bits, length), hop in sorted(
            self.segments.items(), key=lambda kv: kv[0][1]
        ):
            base = bits << (self.stride - length)
            for offset in range(1 << (self.stride - length)):
                slots[base | offset] = hop
        return slots

    def tcam_items(self) -> int:
        """Entries a TCAM rendering needs: segments + pure child slots.

        A child whose slot coincides with a full-stride segment shares
        that entry (the entry carries both hop and pointer).
        """
        extra_children = sum(
            1 for slot in self.children if (slot, self.stride) not in self.segments
        )
        return len(self.segments) + extra_children


class MultibitTrie(LookupAlgorithm):
    """A fixed-stride multibit trie with incremental updates."""

    update_strategy = UPDATE_IN_PLACE

    def __init__(self, fib: Fib, strides: Sequence[int]):
        if sum(strides) != fib.width:
            raise ValueError(
                f"strides {list(strides)} sum to {sum(strides)}, not {fib.width}"
            )
        if any(s <= 0 for s in strides):
            raise ValueError("strides must be positive")
        self.width = fib.width
        self.strides = list(strides)
        self.name = f"Multibit trie ({'-'.join(map(str, strides))})"
        self.level_base = [sum(strides[:i]) for i in range(len(strides))]
        self.root = TrieNode(strides[0], 0)
        self.default_hop: Optional[int] = None
        for prefix, hop in fib:
            self.insert(prefix, hop)

    # ------------------------------------------------------------------
    # Updates (standard multibit-trie algorithms, Appendix A.3.3)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        if prefix.length == 0:
            self.default_hop = next_hop
            return
        node = self.root
        for level, stride in enumerate(self.strides):
            base = self.level_base[level]
            if prefix.length <= base + stride:
                node.set_segment(
                    prefix.slice(base, prefix.length - base),
                    prefix.length - base,
                    next_hop,
                )
                return
            slot = prefix.slice(base, stride)
            if slot not in node.children:
                node.children[slot] = TrieNode(self.strides[level + 1], level + 1)
            node = node.children[slot]
        raise AssertionError("prefix longer than the stride cover")

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        if prefix.length == 0:
            self.default_hop = None
            return
        path: List[Tuple[TrieNode, int]] = []
        node = self.root
        for level, stride in enumerate(self.strides):
            base = self.level_base[level]
            if prefix.length <= base + stride:
                node.remove_segment(
                    prefix.slice(base, prefix.length - base), prefix.length - base
                )
                break
            slot = prefix.slice(base, stride)
            if slot not in node.children:
                raise KeyError(str(prefix))
            path.append((node, slot))
            node = node.children[slot]
        # Prune empty nodes bottom-up.
        for parent, slot in reversed(path):
            child = parent.children[slot]
            if child.segments or child.children:
                break
            del parent.children[slot]

    # ------------------------------------------------------------------
    # Lookup (stride walk, tracking the best hop)
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        best = self.default_hop
        node: Optional[TrieNode] = self.root
        for level, stride in enumerate(self.strides):
            base = self.level_base[level]
            slot = (address >> (self.width - base - stride)) & ((1 << stride) - 1)
            hop = node.hop_at(slot)
            if hop is not None:
                best = hop
            node = node.children.get(slot)
            if node is None:
                break
        return best

    # ------------------------------------------------------------------
    # Introspection shared with MASHUP
    # ------------------------------------------------------------------
    def nodes_by_level(self) -> List[List[TrieNode]]:
        levels: List[List[TrieNode]] = [[] for _ in self.strides]
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            levels[node.level].append(node)
            frontier.extend(node.children.values())
        return levels

    # ------------------------------------------------------------------
    # CRAM model: one step per level
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram(
            "multibit", registers=["addr", "node", "best", "done"]
        )
        levels = self.nodes_by_level()
        node_ids: Dict[int, Tuple[int, int]] = {}
        for level_nodes in levels:
            for i, node in enumerate(level_nodes):
                node_ids[id(node)] = (node.level, i)

        previous: Optional[str] = None
        for level, stride in enumerate(self.strides):
            level_nodes = levels[level]
            entries = len(level_nodes) * (1 << stride)

            def backing(key: int, level=level, level_nodes=level_nodes, stride=stride):
                node_index, slot = key >> stride, key & ((1 << stride) - 1)
                node = level_nodes[node_index]
                child = node.children.get(slot)
                return (node.hop_at(slot), node_ids[id(child)][1] if child else None)

            def selector(s: dict, level=level, stride=stride):
                if s.get("done") or s.get("node") is None:
                    return None
                base = self.level_base[level]
                slot = (s["addr"] >> (self.width - base - stride)) & ((1 << stride) - 1)
                return (s["node"] << stride) | slot

            # Pointer-addressed: the key is the row address, no storage.
            table = exact_table(
                f"level_{level}", 0, entries, SLOT_BITS,
                key_selector=selector, backing=backing,
            )

            def act(state: dict, result) -> None:
                if result is None:
                    if state.get("node") is not None and not state.get("done"):
                        state["node"], state["done"] = None, 1
                    return
                hop, child = result
                if hop is not None:
                    state["best"] = hop
                state["node"] = child
                if child is None:
                    state["done"] = 1

            step = Step(f"level_{level}", table=table,
                        reads=["addr", "node", "best", "done"],
                        writes=["node", "best", "done"], action=act)
            prog.add_step(step, after=[previous] if previous else [])
            previous = step.name
        return prog

    def cram_initial_state(self) -> dict:
        return {"node": 0, "best": self.default_hop}

    def cram_extract_hop(self, state: dict):
        return state.get("best")

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector): every level fully lowered
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        from ..core.vector import VectorStepSpec, key_slice

        levels = self.nodes_by_level()
        node_ids: Dict[int, Tuple[int, int]] = {}
        for level_nodes in levels:
            for i, node in enumerate(level_nodes):
                node_ids[id(node)] = (node.level, i)

        specs = {}
        for level, stride in enumerate(self.strides):
            level_nodes = levels[level]
            size = max(1, len(level_nodes)) << stride
            # Dense (node << stride) | slot arrays: expanded hops and
            # child pointers, each with a None mask.  Hops fill by
            # ascending segment length so longer segments overwrite —
            # controlled prefix expansion as numpy slice assignments.
            hop_v = np.zeros(size, dtype=np.int64)
            hop_n = np.ones(size, dtype=bool)
            child_v = np.zeros(size, dtype=np.int64)
            child_n = np.ones(size, dtype=bool)
            for node_index, node in enumerate(level_nodes):
                base = node_index << stride
                for (bits, length), hop in sorted(
                        node.segments.items(), key=lambda kv: kv[0][1]):
                    lo = base + (bits << (stride - length))
                    hi = lo + (1 << (stride - length))
                    hop_v[lo:hi] = hop
                    hop_n[lo:hi] = False
                for slot, child in node.children.items():
                    child_v[base + slot] = node_ids[id(child)][1]
                    child_n[base + slot] = False

            base_bits = self.level_base[level]
            shift = self.width - base_bits - stride
            mask = (1 << stride) - 1

            def update(lanes, vals, found, active, stride=stride,
                       shift=shift, mask=mask, hop_v=hop_v, hop_n=hop_n,
                       child_v=child_v, child_n=child_n):
                walking = ~lanes.truthy("done") & lanes.present("node")
                slot = key_slice(lanes.values("addr"), shift, mask)
                key = np.where(walking,
                               (lanes.values("node") << stride) | slot, 0)
                lanes.assign_where("best", walking & ~hop_n[key], hop_v[key])
                lanes.assign_where("node", walking, child_v[key],
                                   none=child_n[key])
                lanes.assign_where("done", walking & child_n[key], 1)

            specs[f"level_{level}"] = VectorStepSpec(update)
        return specs

    def vector_extract_hop(self, lanes):
        return lanes.values("best"), lanes.is_none("best")

    def layout(self) -> Layout:
        phases = []
        for level, nodes in enumerate(self.nodes_by_level()):
            table = LogicalTable(
                f"level_{level}", MemoryKind.SRAM,
                entries=len(nodes) * (1 << self.strides[level]),
                key_width=0, data_width=SLOT_BITS,
            )
            phases.append(Phase(f"level {level}", [table], dependent_alu_ops=1))
        return Layout(self.name, phases)
