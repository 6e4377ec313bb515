"""SAIL (Yang et al. [83]): the IPv4 SRAM-only baseline (§3, §6.5.1).

SAIL splits IP lookup by prefix *length*: a bitmap ``B_i`` of size
``2**i`` records whether any length-``i`` prefix matches, and a
directly-indexed next-hop array ``N_i`` holds the hops.  Lengths run
up to the pivot level 24; longer prefixes are *pivot pushed* — expanded
to 32 bits and stored in per-/24 chunks of 256 next hops reached
through ``N_24``.

The paper's §6.5.2 point is exactly this structure's cost: the
directly-indexed arrays need ~32 MB (2313 SRAM pages, 33 ideal-RMT
stages), far beyond the Tofino-2 envelope — the motivation for RESAIL.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.idioms import IdiomApplication
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import direct_index_table, exact_table
from ..memory.sram import Bitmap, DirectIndexTable
from ..prefix.distribution import LengthDistribution
from ..prefix.prefix import IPV4_WIDTH, Prefix
from ..prefix.trie import Fib
from .base import UPDATE_IN_PLACE, LookupAlgorithm

PIVOT_LEVEL = 24
NEXT_HOP_BITS = 8
CHUNK_SIZE = 1 << (IPV4_WIDTH - PIVOT_LEVEL)  # 256 expanded hops per chunk


class Sail(LookupAlgorithm):
    """Behavioural SAIL with pivot pushing."""

    update_strategy = UPDATE_IN_PLACE
    supports_delta = True

    def __init__(self, fib: Fib):
        if fib.width != IPV4_WIDTH:
            raise ValueError("SAIL is an IPv4 scheme")
        self.width = IPV4_WIDTH
        self.name = "SAIL"
        self.default_hop: Optional[int] = None
        self.bitmaps: Dict[int, Bitmap] = {
            i: Bitmap(i, name=f"B{i}") for i in range(1, PIVOT_LEVEL + 1)
        }
        self.arrays: Dict[int, DirectIndexTable] = {
            i: DirectIndexTable(i, NEXT_HOP_BITS, name=f"N{i}")
            for i in range(1, PIVOT_LEVEL + 1)
        }
        #: /24 slot -> 256 expanded next hops (pivot pushing).
        self.chunks: Dict[int, List[Optional[int]]] = {}
        self._long_prefixes = Fib(IPV4_WIDTH)  # source data for chunk rebuilds
        for prefix, hop in fib:
            self.insert(prefix, hop)

    # ------------------------------------------------------------------
    # Updates (SAIL supports straightforward incremental updates)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        if prefix.length == 0:
            self.default_hop = next_hop
            return
        if prefix.length <= PIVOT_LEVEL:
            self.bitmaps[prefix.length].set(prefix.bits)
            self.arrays[prefix.length].store(prefix.bits, next_hop)
            slot = prefix.bits
            if prefix.length == PIVOT_LEVEL and slot in self.chunks:
                self._rebuild_chunk(slot)
            return
        # Pivot pushing: the /24 slot owning this prefix gains a chunk.
        self._long_prefixes.insert(prefix, next_hop)
        slot = prefix.bits >> (prefix.length - PIVOT_LEVEL)
        self.bitmaps[PIVOT_LEVEL].set(slot)
        self._rebuild_chunk(slot)

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        if prefix.length == 0:
            self.default_hop = None
            return
        if prefix.length <= PIVOT_LEVEL:
            if self.arrays[prefix.length].load(prefix.bits) is None:
                raise KeyError(str(prefix))
            self.arrays[prefix.length].clear_slot(prefix.bits)
            if prefix.length == PIVOT_LEVEL and prefix.bits in self.chunks:
                self._rebuild_chunk(prefix.bits)
            else:
                self.bitmaps[prefix.length].set(prefix.bits, False)
            return
        self._long_prefixes.delete(prefix)
        slot = prefix.bits >> (prefix.length - PIVOT_LEVEL)
        self._rebuild_chunk(slot)
        if slot not in self.chunks and self.arrays[PIVOT_LEVEL].load(slot) is None:
            self.bitmaps[PIVOT_LEVEL].set(slot, False)

    def _rebuild_chunk(self, slot: int) -> None:
        """Recompute the expanded hops of one /24 chunk (pivot pushing)."""
        base = slot << (IPV4_WIDTH - PIVOT_LEVEL)
        slot_hop = self.arrays[PIVOT_LEVEL].load(slot)
        chunk: List[Optional[int]] = []
        any_long = False
        for offset in range(CHUNK_SIZE):
            hop = self._long_prefixes.lookup(base | offset)
            if hop is not None:
                any_long = True
            else:
                hop = slot_hop
            chunk.append(hop)
        if any_long:
            self.chunks[slot] = chunk
        else:
            self.chunks.pop(slot, None)

    # ------------------------------------------------------------------
    # Artifact state (repro.artifact warm starts)
    # ------------------------------------------------------------------
    def state_export(self):
        """Flatten bitmaps, hop arrays, pivot chunks and the long-prefix
        source table — everything :meth:`state_import` needs to skip
        the per-prefix build (and its 256-slot chunk rebuilds)."""
        arrays = {}
        for i in range(1, PIVOT_LEVEL + 1):
            arrays[f"bitmap_{i:02d}"] = self.bitmaps[i]._bits.view(np.uint8)
            items = sorted(self.arrays[i].items())
            arrays[f"array_{i:02d}_keys"] = np.array(
                [k for k, _ in items], dtype=np.int64)
            arrays[f"array_{i:02d}_hops"] = np.array(
                [h for _, h in items], dtype=np.int64)
        slots = sorted(self.chunks)
        hops = np.zeros((len(slots), CHUNK_SIZE), dtype=np.int64)
        none = np.zeros((len(slots), CHUNK_SIZE), dtype=bool)
        for row, slot in enumerate(slots):
            for col, hop in enumerate(self.chunks[slot]):
                if hop is None:
                    none[row, col] = True
                else:
                    hops[row, col] = hop
        arrays["chunk_slots"] = np.array(slots, dtype=np.int64)
        arrays["chunk_hops"] = hops
        arrays["chunk_none"] = none
        arrays["long_prefixes"] = np.array(
            [(p.bits, p.length, h) for p, h in self._long_prefixes],
            dtype=np.int64).reshape(-1, 3)
        return {"default_hop": self.default_hop}, arrays

    @classmethod
    def state_import(cls, meta, arrays) -> "Sail":
        obj = cls.__new__(cls)
        obj.width = IPV4_WIDTH
        obj.name = "SAIL"
        obj.default_hop = meta.get("default_hop")
        obj.bitmaps = {}
        obj.arrays = {}
        for i in range(1, PIVOT_LEVEL + 1):
            obj.bitmaps[i] = Bitmap.from_bits(i, arrays[f"bitmap_{i:02d}"],
                                              name=f"B{i}")
            table = DirectIndexTable(i, NEXT_HOP_BITS, name=f"N{i}")
            # Adopt the slot dict wholesale; per-key store() validation
            # is what the warm start exists to skip.
            table._slots = {
                int(k): int(h)
                for k, h in zip(arrays[f"array_{i:02d}_keys"],
                                arrays[f"array_{i:02d}_hops"])}
            obj.arrays[i] = table
        obj.chunks = {}
        chunk_hops = arrays["chunk_hops"]
        chunk_none = arrays["chunk_none"]
        for row, slot in enumerate(arrays["chunk_slots"]):
            obj.chunks[int(slot)] = [
                None if chunk_none[row, col] else int(chunk_hops[row, col])
                for col in range(CHUNK_SIZE)]
        obj._long_prefixes = Fib(IPV4_WIDTH)
        for bits, length, hop in arrays["long_prefixes"]:
            obj._long_prefixes.insert(
                Prefix.from_bits(int(bits), int(length), IPV4_WIDTH),
                int(hop))
        return obj

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        for i in range(PIVOT_LEVEL, 0, -1):
            index = address >> (IPV4_WIDTH - i)
            if self.bitmaps[i].test(index):
                if i == PIVOT_LEVEL and index in self.chunks:
                    hop = self.chunks[index][address & (CHUNK_SIZE - 1)]
                    if hop is not None:
                        return hop
                    # Chunk slot holds no long match and no /24: fall
                    # through to shorter lengths.
                    continue
                return self.arrays[i].load(index)
        return self.default_hop

    # ------------------------------------------------------------------
    # CRAM model (Figure 5a: bitmap/array chain with data dependencies)
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        prog = CramProgram("SAIL", registers=["addr", "hop", "done"])

        def bitmap_step(i: int) -> Step:
            table = direct_index_table(
                f"B{i}", i, 1,
                key_selector=lambda s, i=i: s["addr"] >> (IPV4_WIDTH - i),
                backing=self.bitmaps[i],
                default=False,
            )

            def act(state: dict, result, i=i) -> None:
                state[f"hit_{i}"] = bool(result)

            return Step(f"bitmap_{i}", table=table, reads=["addr"],
                        writes=[f"hit_{i}"], action=act)

        def array_step(i: int) -> Step:
            def select(s: dict, i=i):
                if not s.get(f"hit_{i}"):
                    return None
                return s["addr"] >> (IPV4_WIDTH - i)

            table = direct_index_table(
                f"N{i}", i, NEXT_HOP_BITS,
                key_selector=select, backing=self.arrays[i],
            )

            def act(state: dict, result, i=i) -> None:
                if not state.get("done") and state.get(f"hit_{i}") and result is not None:
                    state["hop"] = result
                    state["done"] = 1

            return Step(f"array_{i}", table=table,
                        reads=["addr", f"hit_{i}", "done", "hop"],
                        writes=["hop", "done"], action=act)

        def chunk_step() -> Step:
            # Membership lives in the reader, not the selector: the
            # backing answers None for un-chunked slots.
            def select(s: dict):
                if not s.get(f"hit_{PIVOT_LEVEL}"):
                    return None
                return s["addr"]

            def load(address: int):
                chunk = self.chunks.get(address >> (IPV4_WIDTH - PIVOT_LEVEL))
                if chunk is None:
                    return None
                return chunk[address & (CHUNK_SIZE - 1)]

            # Pointer-addressed chunk store: entries x 8 bits of SRAM,
            # no stored keys (the chunk pointer is the address).
            table = exact_table(
                "N32-chunks", 0, len(self.chunks) * CHUNK_SIZE, NEXT_HOP_BITS,
                key_selector=select, backing=load,
            )

            def act(state: dict, result) -> None:
                if not state.get("done") and result is not None:
                    state["hop"] = result
                    state["done"] = 1

            return Step("chunk_24", table=table,
                        reads=["addr", f"hit_{PIVOT_LEVEL}", "done", "hop"],
                        writes=["hop", "done"], action=act)

        # RAM-model SAIL interleaves bitmap checks and array reads with
        # early exits; the resulting writer chain on `hop` is the "large
        # number of data dependencies" §3.1 observes.
        for i in range(PIVOT_LEVEL, 0, -1):
            prog.add_step(bitmap_step(i))
            if i == PIVOT_LEVEL:
                prog.add_step(chunk_step(), after=[f"bitmap_{i}"])
            prog.add_step(array_step(i), after=[f"bitmap_{i}"])
        prog.infer_dependencies()
        return prog

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        hop = state.get("hop")
        return hop if hop is not None else self.default_hop

    def vector_extract_factory(self):
        default = self.default_hop

        def extract(lanes):
            vals = lanes.values("hop").copy()
            none = lanes.is_none("hop").copy()
            if default is not None:
                vals[none] = default
                none[:] = False
            return vals, none

        return extract

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector): every step fully lowered
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        specs = {}
        for i in range(1, PIVOT_LEVEL + 1):
            specs[f"bitmap_{i}"] = self._vector_bitmap_spec(
                i, prev.get(f"bitmap_{i}"))
        for i in range(1, PIVOT_LEVEL):
            specs[f"array_{i}"] = self._vector_array_spec(
                i, prev.get(f"array_{i}"))
        specs.update(self._vector_chunk_specs(
            prev.get(f"array_{PIVOT_LEVEL}")))
        return specs

    def _vector_bitmap_spec(self, i, prev):
        from ..core.vector import VectorStepSpec

        shift = IPV4_WIDTH - i

        def select(lanes):
            return lanes.values("addr") >> shift, None

        def update(lanes, vals, found, active, i=i):
            lanes.assign(f"hit_{i}", vals)

        return VectorStepSpec(update, select=select,
                              reader=self.bitmaps[i].vector_reader(prev))

    def _vector_array_spec(self, i, prev):
        from ..core.vector import VectorStepSpec

        shift = IPV4_WIDTH - i
        view = self.arrays[i].vector_reader(prev)

        def update(lanes, vals, found, active, i=i, shift=shift, view=view):
            probe = lanes.truthy(f"hit_{i}") & ~lanes.truthy("done")
            hops, hit = view.gather(lanes.values("addr") >> shift, probe)
            lanes.assign_where("hop", hit, hops)
            lanes.assign_where("done", hit, 1)

        # Compute-only (the probe mask is the kernel's own), so the
        # view is recorded as the reader to reach the next compile.
        return VectorStepSpec(update, reader=view)

    def _vector_chunk_specs(self, prev24):
        """The chunk_24 + array_24 spec pair over one frozen chunk view.

        They share the membership probe (array_24 must skip lanes the
        chunk store owns).  The chunk store has no table simulator to
        log its writes, so every compile rebuilds its matrix.
        """
        from ..core.vector import VectorStepSpec

        # Pivot-pushed chunks: membership by sorted-slot probe, hops as
        # a (chunks x 256) matrix with a None mask.
        chunk_slots = np.array(sorted(self.chunks), dtype=np.int64)
        chunk_hops = np.zeros((max(1, len(chunk_slots)), CHUNK_SIZE),
                              dtype=np.int64)
        chunk_none = np.ones_like(chunk_hops, dtype=bool)
        for row, slot in enumerate(chunk_slots.tolist()):
            for off, hop in enumerate(self.chunks[slot]):
                if hop is not None:
                    chunk_hops[row, off] = hop
                    chunk_none[row, off] = False
        suffix_shift = IPV4_WIDTH - PIVOT_LEVEL

        def chunk_rows(lanes):
            """(row, member) for each lane's /24 slot in the chunk store."""
            slot = lanes.values("addr") >> suffix_shift
            if chunk_slots.size == 0:
                return (np.zeros(lanes.n, dtype=np.int64),
                        np.zeros(lanes.n, dtype=bool))
            row = np.minimum(np.searchsorted(chunk_slots, slot),
                             chunk_slots.size - 1)
            member = (lanes.truthy(f"hit_{PIVOT_LEVEL}")
                      & (chunk_slots[row] == slot))
            return row, member

        def chunk_update(lanes, vals, found, active):
            row, member = chunk_rows(lanes)
            offset = lanes.values("addr") & (CHUNK_SIZE - 1)
            take = (member & ~chunk_none[row, offset]
                    & ~lanes.truthy("done"))
            lanes.assign_where("hop", take, chunk_hops[row, offset])
            lanes.assign_where("done", take, 1)

        view = self.arrays[PIVOT_LEVEL].vector_reader(prev24)
        shift = IPV4_WIDTH - PIVOT_LEVEL

        def array_update(lanes, vals, found, active):
            probe = (lanes.truthy(f"hit_{PIVOT_LEVEL}")
                     & ~lanes.truthy("done"))
            _row, member = chunk_rows(lanes)
            probe &= ~member  # chunk lanes were handled above
            hops, hit = view.gather(lanes.values("addr") >> shift, probe)
            lanes.assign_where("hop", hit, hops)
            lanes.assign_where("done", hit, 1)

        return {"chunk_24": VectorStepSpec(chunk_update),
                f"array_{PIVOT_LEVEL}": VectorStepSpec(array_update,
                                                       reader=view)}

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        return sail_layout_from_counts(
            chunk_count=len(self.chunks), name=self.name
        )

    def idioms_applied(self) -> List[IdiomApplication]:
        return []  # SAIL is the pre-CRAM starting point


def sail_layout_from_counts(chunk_count: int, name: str = "SAIL") -> Layout:
    """SAIL's chip layout given the number of pivot-pushed chunks.

    Bitmaps and arrays are structural (their size is ``2**i``
    regardless of population); only the chunk store depends on the
    database, which is why §7.1 can scale SAIL from the length
    histogram alone.
    """
    bitmaps = [
        LogicalTable(f"B{i}", MemoryKind.SRAM, entries=1 << i, key_width=i,
                     data_width=1, direct_index=True, raw_bits=1 << i,
                     unaligned_key=True)
        for i in range(1, PIVOT_LEVEL + 1)
    ]
    arrays = [
        LogicalTable(f"N{i}", MemoryKind.SRAM, entries=1 << i, key_width=i,
                     data_width=NEXT_HOP_BITS, direct_index=True,
                     raw_bits=(1 << i) * NEXT_HOP_BITS, unaligned_key=True)
        for i in range(1, PIVOT_LEVEL + 1)
    ]
    phases = [
        Phase("bitmaps", bitmaps, dependent_alu_ops=1),
        Phase("resolve", [], dependent_alu_ops=2),
        Phase("next-hop arrays", arrays, dependent_alu_ops=1),
    ]
    if chunk_count:
        chunk_table = LogicalTable(
            "N32-chunks", MemoryKind.SRAM, entries=chunk_count * CHUNK_SIZE,
            key_width=0, data_width=NEXT_HOP_BITS,
            raw_bits=chunk_count * CHUNK_SIZE * NEXT_HOP_BITS,
        )
        phases.append(Phase("pivot-pushed chunks", [chunk_table], dependent_alu_ops=1))
    return Layout(name, phases)


def sail_layout_from_distribution(dist: LengthDistribution, name: str = "SAIL") -> Layout:
    """Analytic SAIL layout for the §7.1 scaling experiments.

    Upper-bounds chunks at one per prefix longer than the pivot (each
    long prefix pushes at most one /24 chunk; nesting only reduces the
    count).
    """
    return sail_layout_from_counts(dist.count_longer_than(PIVOT_LEVEL), name)
