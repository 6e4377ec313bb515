"""DXR (Zec, Rizzo & Mikuc [89]): the range-search baseline (§4).

DXR converts prefixes to sorted ranges and binary-searches them.  An
initial lookup table directly indexed by the first ``k`` address bits
(D16R: k=16) narrows the search to one slice's section of the global
range table, after two optimizations: neighbouring ranges with equal
next hops are merged, and right endpoints are discarded.

DXR is fast *software*; on RMT chips its single range table would be
accessed once per binary-search probe, violating the one-access-per-
table rule — the paper's motivation for BSIC's memory fan-out (I8).
:meth:`Dxr.layout` therefore returns the only legal RMT rendering,
with the range table duplicated per search level (the "infeasible
26.73 MB" §4.1 mentions); :attr:`Dxr.single_table_sram_bits` exposes
the software footprint for the ablation bench.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import direct_index_table, exact_table
from ..memory.sram import RangeSections
from ..prefix.prefix import Prefix
from ..prefix.ranges import RangeEntry, SliceIndex
from ..prefix.trie import Fib
from .base import LookupAlgorithm, UpdateUnsupported

NEXT_HOP_BITS = 8
POINTER_BITS = 20
#: Initial-table slot: next hop or section pointer + length (paper: the
#: D16R table is 0.25 MB = 2**16 x 32 bits).
INITIAL_SLOT_BITS = 32
#: A short-prefix delta op covers ``2**(k - length)`` slices; beyond
#: this many covered bits a rebuild is cheaper than slice-by-slice
#: patching, so :meth:`Dxr.apply_delta_op` declines.
MAX_SHORT_DELTA_BITS = 10


class Dxr(LookupAlgorithm):
    """Behavioural D-k-R with a single global range table.

    Route-by-route :meth:`insert`/:meth:`delete` stay unsupported (the
    merged, right-endpoint-discarded range table has no sensible
    per-route mutation), but whole *delta batches* apply incrementally:
    the build keeps its short-prefix trie and per-slice suffix groups,
    so a delta op re-derives only the covered slices' sections.  Fresh
    sections append to the global range table (pointers are per-slice,
    so stale rows are simply unreachable); the dead rows are compacted
    away once they outnumber the live ones.
    """

    supports_delta = True

    def __init__(self, fib: Fib, k: int = 16):
        if not 1 <= k < fib.width:
            raise ValueError(f"k {k} outside [1, {fib.width})")
        self.width = fib.width
        self.k = k
        self.name = f"DXR (k={k})"
        self.suffix_bits = fib.width - k

        #: Short-prefix trie + per-slice suffix groups (kept for deltas).
        self._slices = SliceIndex(fib.width, k, fib)

        #: Global merged range table; sections are contiguous.
        self.ranges: List[RangeEntry] = []
        #: Slice -> ('hop', hop) | ('section', start, count) | None.
        self.initial: List[Optional[Tuple]] = [None] * (1 << self.k)
        #: Rows in self.ranges no slice points at any more.
        self._dead_ranges = 0
        #: Each live section keyed by its slice, for the lane kernels.
        self._sections = RangeSections(self.width, self.suffix_bits)
        for slice_bits in range(1 << self.k):
            section = self._slices.section(slice_bits)
            if section is None:
                default = self._slices.default(slice_bits)
                if default is not None:
                    self.initial[slice_bits] = ("hop", default)
                continue
            start = len(self.ranges)
            self.ranges.extend(map(RangeEntry, *section))
            self.initial[slice_bits] = ("section", start, len(section[0]))
            self._sections.set(slice_bits, section)

        self.max_section = max(
            (entry[2] for entry in self.initial if entry and entry[0] == "section"),
            default=0,
        )
        self._build_mirrors()

    # ------------------------------------------------------------------
    @property
    def search_depth(self) -> int:
        """Binary-search probes needed for the largest section."""
        return max(1, math.ceil(math.log2(self.max_section + 1))) if self.max_section else 0

    @property
    def single_table_sram_bits(self) -> int:
        """Software DXR footprint: initial table + one range table."""
        range_bits = len(self.ranges) * (self.suffix_bits + NEXT_HOP_BITS)
        return (1 << self.k) * INITIAL_SLOT_BITS + range_bits

    # ------------------------------------------------------------------
    # Updates: unsupported — DXR's merged, right-endpoint-discarded
    # range table cannot take a single route in place; the managed
    # runtime rebuilds from the FIB instead.
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        raise UpdateUnsupported(
            f"{self.name}: the merged range table has no in-place insert; "
            "rebuild from the FIB"
        )

    def delete(self, prefix: Prefix) -> None:
        raise UpdateUnsupported(
            f"{self.name}: the merged range table has no in-place delete; "
            "rebuild from the FIB"
        )

    # ------------------------------------------------------------------
    # Delta batches: per-slice section re-derivation
    # ------------------------------------------------------------------
    def apply_delta_op(self, op) -> None:
        from ..control.churn import ANNOUNCE

        prefix = op.prefix
        self._check_prefix(prefix)
        announce = op.action == ANNOUNCE
        if not announce and op.prev_hop is None:
            return  # withdraw of an absent prefix: no-op
        # A short prefix changes the inherited default of every slice
        # it covers.  Very broad ones cover too many slices to be worth
        # patching — decline, and the runtime rebuilds instead.
        covered = self.k - prefix.length
        if covered > MAX_SHORT_DELTA_BITS:
            raise UpdateUnsupported(
                f"{self.name}: /{prefix.length} covers 2**{covered} slices; "
                "rebuild instead"
            )
        if announce:
            self._slices.announce(prefix, op.next_hop)
        else:
            self._slices.withdraw(prefix)
        if prefix.length > self.k:
            self._rebuild_slice(prefix.slice(0, self.k))
            return
        for slice_bits in self._slices.covered(prefix):
            self._rebuild_slice(slice_bits)

    def end_update_batch(self) -> None:
        live = len(self.ranges) - self._dead_ranges
        if self._dead_ranges > max(64, live):
            self._compact_ranges()

    def _rebuild_slice(self, slice_bits: int) -> None:
        """Re-derive one slice's initial entry (and range section)."""
        old = self.initial[slice_bits]
        if old is not None and old[0] == "section":
            self._dead_ranges += old[2]
        section = self._slices.section(slice_bits)
        if section is None:
            default = self._slices.default(slice_bits)
            entry = ("hop", default) if default is not None else None
        else:
            start = len(self.ranges)
            self.ranges.extend(map(RangeEntry, *section))
            entry = ("section", start, len(section[0]))
            # Monotone: search_depth never shrinks mid-flight, so an
            # already-compiled probe chain stays deep enough.
            self.max_section = max(self.max_section, len(section[0]))
        self.initial[slice_bits] = entry
        self._mirror_initial_slot(slice_bits)
        self._sections.set(slice_bits, section)

    def _compact_ranges(self) -> None:
        """Drop unreachable rows, rewriting every section pointer."""
        compacted: List[RangeEntry] = []
        for slot, entry in enumerate(self.initial):
            if entry is None or entry[0] != "section":
                continue
            _tag, start, count = entry
            new_start = len(compacted)
            compacted.extend(self.ranges[start:start + count])
            self.initial[slot] = ("section", new_start, count)
        self.ranges = compacted
        self._dead_ranges = 0
        self._build_mirrors()

    # ------------------------------------------------------------------
    # NumPy mirror of the initial table, maintained incrementally so a
    # delta touches O(delta) slots, not O(table)
    # ------------------------------------------------------------------
    def _build_mirrors(self) -> None:
        size = 1 << self.k
        self._mirror_kind = np.zeros(size, dtype=np.int64)
        self._mirror_a = np.zeros(size, dtype=np.int64)
        self._mirror_b = np.zeros(size, dtype=np.int64)
        for slot, entry in enumerate(self.initial):
            if entry is not None:
                self._mirror_initial_slot(slot)

    def _mirror_initial_slot(self, slot: int) -> None:
        entry = self.initial[slot]
        if entry is None:
            kind = a = b = 0
        elif entry[0] == "hop":
            kind, a, b = 1, entry[1], 0
        else:
            kind, a, b = 2, entry[1], entry[2]
        self._mirror_kind[slot] = kind
        self._mirror_a[slot] = a
        self._mirror_b[slot] = b

    # ------------------------------------------------------------------
    # Artifact state (repro.artifact warm starts)
    # ------------------------------------------------------------------
    def state_export(self):
        """The merged range table, initial-table mirrors, and the
        delta-maintenance sources (shorts trie + suffix groups).
        Importing skips the per-slice ``sweep_ranges`` pass over
        all ``2**k`` slices."""
        hops = [r.next_hop for r in self.ranges]
        groups = []
        for slice_bits, group in sorted(self._slices.groups.items()):
            for (sbits, slen), (_suffix, hop) in sorted(group.items()):
                groups.append((slice_bits, sbits, slen, hop))
        arrays = {
            "mirror_kind": self._mirror_kind,
            "mirror_a": self._mirror_a,
            "mirror_b": self._mirror_b,
            "range_left": np.array([r.left for r in self.ranges], np.int64),
            "range_hops": np.array([h or 0 for h in hops], np.int64),
            "range_hopnone": np.array([h is None for h in hops], bool),
            "shorts": np.array(
                sorted((p.bits, p.length, h)
                       for p, h in self._slices.shorts.items()),
                dtype=np.int64).reshape(-1, 3),
            "groups": np.array(groups, dtype=np.int64).reshape(-1, 4),
        }
        meta = {"k": self.k, "width": self.width,
                "max_section": self.max_section,
                "dead_ranges": self._dead_ranges}
        return meta, arrays

    @classmethod
    def state_import(cls, meta, arrays) -> "Dxr":
        obj = cls.__new__(cls)
        obj.width = int(meta["width"])
        obj.k = int(meta["k"])
        obj.name = f"DXR (k={obj.k})"
        obj.suffix_bits = obj.width - obj.k
        obj._slices = SliceIndex(obj.width, obj.k)
        for bits, length, hop in arrays["shorts"]:
            obj._slices.announce(
                Prefix.from_bits(int(bits), int(length), obj.width),
                int(hop))
        for slice_bits, sbits, slen, hop in arrays["groups"]:
            obj._slices.announce(
                Prefix.from_bits((int(slice_bits) << int(slen)) | int(sbits),
                                 obj.k + int(slen), obj.width),
                int(hop))
        left = arrays["range_left"]
        hops = arrays["range_hops"]
        hopnone = arrays["range_hopnone"]
        obj.ranges = [
            RangeEntry(int(left[row]),
                       None if hopnone[row] else int(hops[row]))
            for row in range(left.size)]
        kind = arrays["mirror_kind"]
        a = arrays["mirror_a"]
        b = arrays["mirror_b"]
        obj.initial = [
            None if kind[slot] == 0
            else ("hop", int(a[slot])) if kind[slot] == 1
            else ("section", int(a[slot]), int(b[slot]))
            for slot in range(1 << obj.k)]
        obj._dead_ranges = int(meta["dead_ranges"])
        obj.max_section = int(meta["max_section"])
        obj._sections = RangeSections(obj.width, obj.suffix_bits)
        for slot, entry in enumerate(obj.initial):
            if entry is not None and entry[0] == "section":
                _tag, start, count = entry
                rows = obj.ranges[start:start + count]
                obj._sections.set(slot, ([r.left for r in rows],
                                         [r.next_hop for r in rows]))
        # Adopt the mapped mirrors (copy-on-write pages) directly.
        obj._mirror_kind = np.asarray(kind)
        obj._mirror_a = np.asarray(a)
        obj._mirror_b = np.asarray(b)
        return obj

    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        entry = self.initial[address >> self.suffix_bits]
        if entry is None:
            return None
        if entry[0] == "hop":
            return entry[1]
        _tag, start, count = entry
        key = address & ((1 << self.suffix_bits) - 1)
        lo, hi = start, start + count - 1
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if self.ranges[mid].left <= key:
                best = self.ranges[mid].next_hop
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    # ------------------------------------------------------------------
    # CRAM model (Figure 6a: one range table, probed repeatedly)
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram(
            "DXR",
            registers=["addr", "lo", "hi", "best", "done", "key"],
        )
        initial = direct_index_table(
            "initial", self.k, INITIAL_SLOT_BITS,
            key_selector=lambda s: s["addr"] >> self.suffix_bits,
            backing=lambda i: self.initial[i],
        )

        def init_act(state: dict, result) -> None:
            state["key"] = state["addr"] & ((1 << self.suffix_bits) - 1)
            if result is None:
                state["done"] = 1
            elif result[0] == "hop":
                state["best"], state["done"] = result[1], 1
            else:
                state["lo"], state["hi"] = result[1], result[1] + result[2] - 1

        prog.add_step(Step("initial", table=initial, reads=["addr"],
                           writes=["lo", "hi", "best", "done", "key"],
                           action=init_act))

        # ONE physical range table, probed once per search level — the
        # RAM-model luxury that RMT chips disallow (idiom I8's target).
        # Pointer-addressed: no stored keys, rows are endpoint + hop.
        range_table = exact_table(
            "ranges", 0, len(self.ranges),
            self.suffix_bits + NEXT_HOP_BITS,
            key_selector=lambda s: (
                None if s.get("done") or s.get("lo") is None or s["lo"] > s["hi"]
                else (s["lo"] + s["hi"]) // 2
            ),
            backing=lambda mid: self.ranges[mid],
        )

        def probe_act(state: dict, result) -> None:
            if result is None:
                return
            mid = (state["lo"] + state["hi"]) // 2
            if result.left <= state["key"]:
                state["best"] = result.next_hop
                state["lo"] = mid + 1
            else:
                state["hi"] = mid - 1

        previous = "initial"
        for level in range(self.search_depth):
            step = Step(f"probe_{level}", table=range_table,
                        reads=["lo", "hi", "key", "done", "best"],
                        writes=["lo", "hi", "best"], action=probe_act)
            prog.add_step(step, after=[previous])
            previous = step.name
        return prog

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        return state.get("best")

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector): the initial mirror is copied
    # per compile; the probe chain is one floor search over the live
    # sections, spliced from ``prev``.  A delta that deepens the search
    # outgrows the compiled chain, and the engine recompiles.
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        from ..core.vector import VectorStepSpec, key_slice, range_search_specs

        # kind 0 = empty, 1 = ('hop', a), 2 = a section.
        kind = self._mirror_kind.copy()
        a = self._mirror_a.copy()

        def init_update(lanes, vals, found, active):
            slot = key_slice(lanes.values("addr"), self.suffix_bits)
            slot_kind = kind[slot]
            section = slot_kind == 2
            hop = slot_kind == 1
            # Non-section lanes finish here; section lanes keep done=None
            # (the base state), exactly as the scalar action leaves it.
            lanes.assign("done", np.where(section, 0, 1), none=section)
            lanes.assign("best", np.where(hop, a[slot], 0), none=~hop)

        specs = {"initial": VectorStepSpec(init_update)}
        specs.update(range_search_specs(
            self._sections.freeze(prev.get("probe_0")),
            [f"probe_{level}" for level in range(self.search_depth)]))
        return specs

    def vector_extract_hop(self, lanes):
        return lanes.values("best"), lanes.is_none("best")

    # ------------------------------------------------------------------
    # Chip layout: legal only with the range table duplicated per level
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        initial = LogicalTable(
            "initial", MemoryKind.SRAM, entries=1 << self.k, key_width=self.k,
            data_width=INITIAL_SLOT_BITS, direct_index=True,
        )
        phases = [Phase("initial table", [initial], dependent_alu_ops=1)]
        entry_bits = self.suffix_bits + NEXT_HOP_BITS
        for level in range(self.search_depth):
            duplicate = LogicalTable(
                f"ranges (copy {level})", MemoryKind.SRAM,
                entries=len(self.ranges), key_width=0, data_width=entry_bits,
            )
            phases.append(Phase(f"probe {level}", [duplicate], dependent_alu_ops=2))
        return Layout(self.name, phases)
