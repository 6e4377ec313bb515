"""MASHUP: a mashup of CAM and RAM trie nodes (§5).

MASHUP starts from a fixed-stride multibit trie and applies:

* **I1/I2 node hybridization** — each node is rendered in SRAM when
  its directly-indexed form costs less than ``3x`` the TCAM entries it
  would need (TCAM's area factor [82]); otherwise it becomes a TCAM
  node storing its un-expanded prefix segments plus child pointers;
* **I5 table coalescing** — the (often tiny) logical node tables of
  one level and memory kind merge into a single super-table,
  distinguished by tag bits, eliminating per-node block/page
  fragmentation;
* **I4 strategic cutting** — the stride vector mirrors the database's
  prefix-length spikes (§6.3): 16-4-4-8 for IPv4, 20-12-16-16 for
  IPv6.

Lookups follow Algorithm 3: at each level the current tag plus the
next stride bits probe either the level's TCAM or SRAM super-table;
hits report a next hop (remembered as best-so-far), a pointer, and the
next tag.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.idioms import (
    TCAM_AREA_FACTOR,
    Idiom,
    IdiomApplication,
    prefer_sram,
    tag_width,
)
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import exact_table, ternary_table
from ..memory.tcam import TcamTable
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .base import UPDATE_IN_PLACE, LookupAlgorithm
from .multibit import SLOT_BITS, MultibitTrie, TrieNode

DEFAULT_IPV4_STRIDES = (16, 4, 4, 8)
DEFAULT_IPV6_STRIDES = (20, 12, 16, 16)

#: A node reference: (memory kind, tag within the level's super-table).
NodeRef = Tuple[str, int]


def default_strides(width: int) -> Tuple[int, ...]:
    """The paper's spike-mirroring stride choices (§6.3)."""
    if width == 32:
        return DEFAULT_IPV4_STRIDES
    if width == 64:
        return DEFAULT_IPV6_STRIDES
    raise ValueError(f"no default strides for width {width}")


class Mashup(LookupAlgorithm):
    """Behavioural MASHUP over a hybridized, coalesced multibit trie."""

    update_strategy = UPDATE_IN_PLACE

    def __init__(
        self,
        fib: Fib,
        strides: Optional[Sequence[int]] = None,
        area_factor: int = TCAM_AREA_FACTOR,
        coalesce: bool = True,
    ):
        strides = tuple(strides) if strides is not None else default_strides(fib.width)
        self.width = fib.width
        self.strides = strides
        self.area_factor = area_factor
        self.coalesce = coalesce
        self.name = f"MASHUP ({'-'.join(map(str, strides))})"
        self._trie = MultibitTrie(fib, strides)
        self._in_batch = False
        self._hybridize()

    # ------------------------------------------------------------------
    # Hybridization + coalescing (rebuilt after updates)
    # ------------------------------------------------------------------
    def _hybridize(self) -> None:
        levels = self._trie.nodes_by_level()
        self.default_hop = self._trie.default_hop

        #: Per level: kind and tag of every node, keyed by id(node).
        refs: Dict[int, NodeRef] = {}
        self.level_kinds: List[Dict[str, List[TrieNode]]] = []
        for level_nodes in levels:
            kinds: Dict[str, List[TrieNode]] = {"tcam": [], "sram": []}
            # Footnote 1's greedy order: largest tables first, smallest
            # last, so small tables fill the tail of the super-table.
            for node in sorted(level_nodes, key=lambda n: -n.tcam_items()):
                stride = node.stride
                kind = (
                    "sram"
                    if prefer_sram(1 << stride, node.tcam_items(), self.area_factor)
                    else "tcam"
                )
                refs[id(node)] = (kind, len(kinds[kind]))
                kinds[kind].append(node)
            self.level_kinds.append(kinds)

        self.root_ref: NodeRef = refs[id(self._trie.root)]
        #: Behavioural super-tables.
        self.tcam_levels: List[TcamTable] = []
        self.sram_levels: List[Dict[Tuple[int, int], Tuple[Optional[int], Optional[NodeRef]]]] = []
        for level, stride in enumerate(self.strides):
            kinds = self.level_kinds[level]
            tag_bits = tag_width(max(1, len(kinds["tcam"])))
            tcam = TcamTable(max(1, tag_bits + stride), name=f"tcam_L{level}")
            sram: Dict[Tuple[int, int], Tuple[Optional[int], Optional[NodeRef]]] = {}
            for tag, node in enumerate(kinds["tcam"]):
                self._fill_tcam_node(tcam, node, tag, tag_bits, refs)
            for tag, node in enumerate(kinds["sram"]):
                self._fill_sram_node(sram, node, tag, refs)
            self.tcam_levels.append(tcam)
            self.sram_levels.append(sram)

    def _child_ref(self, node: TrieNode, slot: int, refs: Dict[int, NodeRef]):
        child = node.children.get(slot)
        return refs[id(child)] if child is not None else None

    def _fill_tcam_node(
        self,
        tcam: TcamTable,
        node: TrieNode,
        tag: int,
        tag_bits: int,
        refs: Dict[int, NodeRef],
    ) -> None:
        stride = node.stride
        tag_mask = ((1 << tag_bits) - 1) << stride
        full = {bits for (bits, length) in node.segments if length == stride}
        for (bits, length), hop in node.segments.items():
            if length == stride and bits in node.children:
                continue  # merged with the child entry below
            value = (tag << stride) | (bits << (stride - length))
            mask = tag_mask | (((1 << length) - 1) << (stride - length))
            tcam.insert(value, mask, priority=stride - length, data=(hop, None))
        for slot, child in sorted(node.children.items()):
            value = (tag << stride) | slot
            mask = tag_mask | ((1 << stride) - 1)
            tcam.insert(value, mask, priority=0,
                        data=(node.hop_at(slot), refs[id(child)]))

    def _fill_sram_node(
        self,
        sram: Dict[Tuple[int, int], Tuple[Optional[int], Optional[NodeRef]]],
        node: TrieNode,
        tag: int,
        refs: Dict[int, NodeRef],
    ) -> None:
        slots = node.expanded_slots()
        for slot, child_node in node.children.items():
            slots.setdefault(slot, None)
        for slot, hop in slots.items():
            sram[(tag, slot)] = (hop, self._child_ref(node, slot, refs))

    # ------------------------------------------------------------------
    # Updates (Appendix A.3.3; re-hybridizes from the trie)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._trie.insert(prefix, next_hop)
        if not self._in_batch:
            self._hybridize()

    def delete(self, prefix: Prefix) -> None:
        self._trie.delete(prefix)
        if not self._in_batch:
            self._hybridize()

    def begin_update_batch(self) -> None:
        """Defer re-hybridization until the whole batch has landed —
        the trie absorbs each update in place; the hybrid rendering is
        derived state that only the final trie needs."""
        self._in_batch = True

    def end_update_batch(self) -> None:
        self._in_batch = False
        self._hybridize()

    # ------------------------------------------------------------------
    # Lookup (Algorithm 3)
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        best = self.default_hop
        ref: Optional[NodeRef] = self.root_ref
        for level, stride in enumerate(self.strides):
            if ref is None:
                break
            base = self._trie.level_base[level]
            slot = (address >> (self.width - base - stride)) & ((1 << stride) - 1)
            kind, tag = ref
            if kind == "tcam":
                result = self.tcam_levels[level].search((tag << stride) | slot)
            else:
                result = self.sram_levels[level].get((tag, slot))
            if result is None:
                return best
            hop, child = result
            if hop is not None:
                best = hop
            ref = child
        return best

    # ------------------------------------------------------------------
    # CRAM model: per level, a TCAM and an SRAM step in parallel
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        registers = ["addr"]
        for i in range(len(self.strides)):
            registers += [f"t_fired_{i}", f"s_fired_{i}",
                          f"t_best_{i}", f"s_best_{i}",
                          f"t_next_{i}", f"s_next_{i}"]
        prog = CramProgram("MASHUP", registers=registers)

        def prev_state(state: dict, level: int):
            """(ref, best) handed to `level` by the fired side above it."""
            if level == 0:
                return self.root_ref, self.default_hop
            if state.get(f"t_fired_{level - 1}"):
                return state.get(f"t_next_{level - 1}"), state.get(f"t_best_{level - 1}")
            if state.get(f"s_fired_{level - 1}"):
                return state.get(f"s_next_{level - 1}"), state.get(f"s_best_{level - 1}")
            return None, None

        prev_names: List[str] = []
        for level, stride in enumerate(self.strides):
            base = self._trie.level_base[level]
            kinds = self.level_kinds[level]
            tag_bits = tag_width(max(1, len(kinds["tcam"])))
            sram_level = self.sram_levels[level]
            tcam_level = self.tcam_levels[level]

            def make_selector(side: str, level=level, stride=stride, base=base):
                def selector(state: dict):
                    ref, _best = prev_state(state, level)
                    if ref is None or ref[0] != side:
                        return None
                    slot = (state["addr"] >> (self.width - base - stride)) & (
                        (1 << stride) - 1
                    )
                    return (ref[1] << stride) | slot if side == "tcam" else (ref[1], slot)

                return selector

            def make_act(side: str, level=level):
                def act(state: dict, result) -> None:
                    ref, carried = prev_state(state, level)
                    if ref is None or ref[0] != side:
                        return
                    state[f"{side[0]}_fired_{level}"] = 1
                    if result is None:
                        state[f"{side[0]}_best_{level}"] = carried
                        state[f"{side[0]}_next_{level}"] = None
                        return
                    hop, child = result
                    state[f"{side[0]}_best_{level}"] = hop if hop is not None else carried
                    state[f"{side[0]}_next_{level}"] = child

                return act

            reads = ["addr"] + [
                f"{p}_{level - 1}"
                for p in ("t_fired", "s_fired", "t_next", "s_next", "t_best", "s_best")
                if level > 0
            ]
            tcam_spec = ternary_table(
                f"tcam_L{level}", max(1, tag_bits + stride),
                len(tcam_level), SLOT_BITS,
                key_selector=make_selector("tcam"), backing=tcam_level,
            )
            sram_spec = exact_table(
                f"sram_L{level}", 0,
                sum(1 << n.stride for n in kinds["sram"]), SLOT_BITS,
                key_selector=make_selector("sram"),
                backing=lambda key, sram_level=sram_level: sram_level.get(key),
            )
            t_step = Step(f"tcam_L{level}", table=tcam_spec, reads=reads,
                          writes=[f"t_fired_{level}", f"t_best_{level}", f"t_next_{level}"],
                          action=make_act("tcam"))
            s_step = Step(f"sram_L{level}", table=sram_spec, reads=reads,
                          writes=[f"s_fired_{level}", f"s_best_{level}", f"s_next_{level}"],
                          action=make_act("sram"))
            prog.add_step(t_step, after=prev_names)
            prog.add_step(s_step, after=prev_names)
            prev_names = [t_step.name, s_step.name]

        def final_hop(state: dict) -> Optional[int]:
            for level in range(len(self.strides) - 1, -1, -1):
                if state.get(f"t_fired_{level}"):
                    return state.get(f"t_best_{level}")
                if state.get(f"s_fired_{level}"):
                    return state.get(f"s_best_{level}")
            return self.default_hop

        prog.deparser = final_hop
        return prog

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        for level in range(len(self.strides) - 1, -1, -1):
            if state.get(f"t_fired_{level}"):
                return state.get(f"t_best_{level}")
            if state.get(f"s_fired_{level}"):
                return state.get(f"s_best_{level}")
        return self.default_hop

    # ------------------------------------------------------------------
    # Vector lowering (the lane compiler)
    # ------------------------------------------------------------------
    # Int64 lane encodings.  A table result (hop, child) packs as
    #   bits 0..23   hop value          bit 24  hop present
    #   bits 25..26  child kind (0 none, 1 tcam, 2 sram)
    #   bits 27..50  child tag
    # and a NodeRef register as (kind << 40) | tag with the same kind
    # codes — the next level's selector splits it back apart.
    _HOP_BITS = 24
    _TAG_BITS = 24
    _KIND_SHIFT = 25
    _TAG_SHIFT = 27
    _REF_KIND_SHIFT = 40
    _KIND_CODE = {"tcam": 1, "sram": 2}

    def _encode_result(self, data) -> Optional[int]:
        hop, child = data
        code = 0
        if hop is not None:
            if not 0 <= int(hop) < (1 << self._HOP_BITS):
                return None
            code |= (1 << self._HOP_BITS) | int(hop)
        if child is not None:
            kind, tag = child
            if not 0 <= tag < (1 << self._TAG_BITS):
                return None
            code |= (self._KIND_CODE[kind] << self._KIND_SHIFT) | (
                tag << self._TAG_SHIFT)
        return code

    def _encode_ref(self, ref: Optional[NodeRef]) -> Optional[int]:
        if ref is None:
            return None
        kind, tag = ref
        return (self._KIND_CODE[kind] << self._REF_KIND_SHIFT) | tag

    def vector_specs(self, prev):
        """Lower Algorithm 3 to lane kernels, all levels or nothing.

        NodeRefs and (hop, child) results live as packed int64 codes;
        the TCAM super-tables lower through their own vector views —
        each row is an exact tag on top of a stride prefix, so a tile's
        search is one floor search of its range form — and the SRAM
        super-tables through sorted ``(tag << stride) | slot`` probes.
        All-or-nothing, like the lane compiler itself: any un-encodable
        piece returns no specs and the whole program runs on the scalar
        plan instead.
        """
        import numpy as np

        from ..core.vector import SparseMapView, VectorStepSpec, key_slice

        views = []
        for level, stride in enumerate(self.strides):
            tcam_view = self.tcam_levels[level].vector_reader(
                encode=self._encode_result, prev=prev.get(f"tcam_L{level}"))
            if tcam_view is None:
                return {}
            items = []
            for (tag, slot), data in self.sram_levels[level].items():
                code = self._encode_result(data)
                if code is None:
                    return {}
                items.append(((tag << stride) | slot, code))
            items.sort()
            sram_view = SparseMapView(
                np.array([k for k, _v in items], dtype=np.int64),
                np.array([v for _k, v in items], dtype=np.int64),
            )
            views.append((tcam_view, sram_view))

        root_code = self._encode_ref(self.root_ref)
        default_hop = self.default_hop
        hop_mask = (1 << self._HOP_BITS) - 1
        ref_tag_mask = (1 << self._REF_KIND_SHIFT) - 1
        kind_shift = self._KIND_SHIFT
        tag_shift = self._TAG_SHIFT
        tag_mask = (1 << self._TAG_BITS) - 1
        ref_kind_shift = self._REF_KIND_SHIFT

        def prev_ref(lanes, level):
            """Vector ``prev_state``: (ref codes, ref none, carried
            best values, carried none)."""
            if level == 0:
                ref_vals = np.full(lanes.n, root_code, dtype=np.int64)
                ref_none = np.zeros(lanes.n, dtype=bool)
                if default_hop is None:
                    carried = np.zeros(lanes.n, dtype=np.int64)
                    carried_none = np.ones(lanes.n, dtype=bool)
                else:
                    carried = np.full(lanes.n, default_hop, dtype=np.int64)
                    carried_none = np.zeros(lanes.n, dtype=bool)
                return ref_vals, ref_none, carried, carried_none
            t_f = lanes.truthy(f"t_fired_{level - 1}")
            s_f = ~t_f & lanes.truthy(f"s_fired_{level - 1}")
            t_next = lanes.values(f"t_next_{level - 1}")
            s_next = lanes.values(f"s_next_{level - 1}")
            ref_vals = np.where(t_f, t_next, np.where(s_f, s_next, 0))
            ref_none = np.where(
                t_f, lanes.is_none(f"t_next_{level - 1}"),
                np.where(s_f, lanes.is_none(f"s_next_{level - 1}"), True))
            carried = np.where(
                t_f, lanes.values(f"t_best_{level - 1}"),
                np.where(s_f, lanes.values(f"s_best_{level - 1}"), 0))
            carried_none = np.where(
                t_f, lanes.is_none(f"t_best_{level - 1}"),
                np.where(s_f, lanes.is_none(f"s_best_{level - 1}"), True))
            return ref_vals, ref_none, carried, carried_none

        specs = {}
        for level, stride in enumerate(self.strides):
            base = self._trie.level_base[level]
            addr_shift = self.width - base - stride
            slot_mask = (1 << stride) - 1

            def make_side(side, level=level, stride=stride,
                          addr_shift=addr_shift, slot_mask=slot_mask):
                side_code = self._KIND_CODE[side]
                reg = side[0]

                def select(lanes):
                    ref_vals, ref_none, _c, _cn = prev_ref(lanes, level)
                    mine = ~ref_none & (
                        (ref_vals >> ref_kind_shift) == side_code)
                    slot = key_slice(lanes.values("addr"), addr_shift,
                                     slot_mask)
                    keys = ((ref_vals & ref_tag_mask) << stride) | slot
                    return keys, mine

                def update(lanes, vals, found, active):
                    _rv, _rn, carried, carried_none = prev_ref(lanes, level)
                    fired = active
                    lanes.assign(f"{reg}_fired_{level}",
                                 np.where(fired, 1, 0), none=~fired)
                    hop_present = found & (
                        ((vals >> self._HOP_BITS) & 1) == 1)
                    lanes.assign(
                        f"{reg}_best_{level}",
                        np.where(hop_present, vals & hop_mask,
                                 np.where(fired, carried, 0)),
                        none=~fired | (~hop_present & carried_none))
                    kindb = (vals >> kind_shift) & 3
                    lanes.assign(
                        f"{reg}_next_{level}",
                        (kindb << ref_kind_shift) | (
                            (vals >> tag_shift) & tag_mask),
                        none=~fired | (kindb == 0))

                return VectorStepSpec(
                    update=update, select=select,
                    reader=views[level][0 if side == "tcam" else 1])

            specs[f"tcam_L{level}"] = make_side("tcam")
            specs[f"sram_L{level}"] = make_side("sram")
        return specs

    def vector_extract_hop(self, lanes):
        import numpy as np

        vals = np.zeros(lanes.n, dtype=np.int64)
        none = np.ones(lanes.n, dtype=bool)
        undecided = np.ones(lanes.n, dtype=bool)
        for level in range(len(self.strides) - 1, -1, -1):
            for reg in ("t", "s"):
                fired = undecided & lanes.truthy(f"{reg}_fired_{level}")
                np.copyto(vals, lanes.values(f"{reg}_best_{level}"),
                          where=fired)
                np.copyto(none, lanes.is_none(f"{reg}_best_{level}"),
                          where=fired)
                undecided &= ~fired
        if self.default_hop is not None:
            vals[undecided] = self.default_hop
            none[undecided] = False
        vals[none] = 0
        return vals, none

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        phases = []
        for level, stride in enumerate(self.strides):
            kinds = self.level_kinds[level]
            tables: List[LogicalTable] = []
            if self.coalesce:
                tag_bits = tag_width(max(1, len(kinds["tcam"])))
                tcam_entries = sum(n.tcam_items() for n in kinds["tcam"])
                if tcam_entries:
                    tables.append(LogicalTable(
                        f"tcam_L{level}", MemoryKind.TCAM, entries=tcam_entries,
                        key_width=tag_bits + stride, data_width=SLOT_BITS,
                    ))
                sram_entries = sum(1 << n.stride for n in kinds["sram"])
                if sram_entries:
                    tables.append(LogicalTable(
                        f"sram_L{level}", MemoryKind.SRAM, entries=sram_entries,
                        key_width=0, data_width=SLOT_BITS,
                    ))
            else:
                # Ablation: one physical table per node — the
                # fragmentation I5 exists to remove.
                for i, node in enumerate(kinds["tcam"]):
                    tables.append(LogicalTable(
                        f"tcam_L{level}_n{i}", MemoryKind.TCAM,
                        entries=node.tcam_items(), key_width=stride,
                        data_width=SLOT_BITS,
                    ))
                for i, node in enumerate(kinds["sram"]):
                    tables.append(LogicalTable(
                        f"sram_L{level}_n{i}", MemoryKind.SRAM,
                        entries=1 << node.stride, key_width=0,
                        data_width=SLOT_BITS,
                    ))
            phases.append(Phase(f"level {level}", tables, dependent_alu_ops=1))
        return Layout(self.name, phases)

    def idioms_applied(self) -> List[IdiomApplication]:
        return [
            IdiomApplication(Idiom.COMPRESS_WITH_TCAM, "sparse trie nodes",
                             "wildcard segments stored unexpanded"),
            IdiomApplication(Idiom.EXPAND_TO_SRAM, "dense trie nodes",
                             f"SRAM when expansion < {self.area_factor}x"),
            IdiomApplication(Idiom.TABLE_COALESCING, "per-level node tables",
                             "tagged super-tables, no fragmentation"),
            IdiomApplication(Idiom.STRATEGIC_CUTTING, "strides",
                             "cuts mirror the length-distribution spikes"),
        ]
