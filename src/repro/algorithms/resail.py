"""RESAIL: rethinking SAIL through the CRAM lens (§3).

RESAIL keeps SAIL's per-length bitmaps but applies three idioms:

* **I6 look-aside TCAM** — prefixes longer than the pivot level (24)
  move into a small TCAM searched in parallel, eliminating SAIL's
  pivot pushing and its worst-case 256x expansion;
* **I3 compress with SRAM** — the 32 MB of directly-indexed next-hop
  arrays collapse into a single d-left hash table; *bit marking*
  (append a 1, left-shift to a fixed 25-bit width) gives every prefix
  of length ``min_bmp..24`` a unique fixed-width hash key, so one
  table serves all lengths (§3.2, Table 2);
* **I7 step reduction** — all bitmap lookups and the look-aside TCAM
  probe are data-independent and execute in one step; the hash lookup
  is the second and final step.

``min_bmp`` trades parallelism against SRAM: bitmaps below it are
folded upward by controlled prefix expansion (flipping only 0 bits, so
longer originals win).  The paper picks ``min_bmp=13`` for AS65000
because almost no IPv4 prefixes are shorter than 13 bits (P2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.idioms import Idiom, IdiomApplication
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import direct_index_table, exact_table, ternary_table
from ..memory.dleft import DLeftHashTable, dleft_cells
from ..memory.sram import Bitmap
from ..memory.tcam import TcamTable
from ..prefix.distribution import LengthDistribution
from ..prefix.prefix import IPV4_WIDTH, Prefix
from ..prefix.trie import BinaryTrie, Fib
from .base import UPDATE_IN_PLACE, LookupAlgorithm

PIVOT_LEVEL = 24
NEXT_HOP_BITS = 8
#: Bit-marked hash keys are pivot+1 bits wide (§3.2).
HASH_KEY_BITS = PIVOT_LEVEL + 1
DEFAULT_MIN_BMP = 13


def bit_mark(bits: int, length: int, pivot: int = PIVOT_LEVEL) -> int:
    """The §3.2 bit-marking trick: append a 1, left-shift to width pivot+1.

    >>> format(bit_mark(0b011, 3, pivot=6), '07b')   # paper's Table 2
    '0111000'
    """
    if not 0 <= length <= pivot:
        raise ValueError(f"length {length} outside [0, {pivot}]")
    return ((bits << 1) | 1) << (pivot - length)


def unmark(key: int, pivot: int = PIVOT_LEVEL) -> Tuple[int, int]:
    """Invert :func:`bit_mark`: scan from the right for the first 1."""
    if key <= 0:
        raise ValueError("not a marked key")
    shift = (key & -key).bit_length() - 1
    return key >> (shift + 1), pivot - shift


class Resail(LookupAlgorithm):
    """Behavioural RESAIL with incremental updates (Appendix A.3.1)."""

    update_strategy = UPDATE_IN_PLACE
    supports_delta = True

    def __init__(self, fib: Fib, min_bmp: int = DEFAULT_MIN_BMP,
                 hash_capacity: Optional[int] = None):
        if fib.width != IPV4_WIDTH:
            raise ValueError("RESAIL is an IPv4 scheme")
        if not 0 <= min_bmp <= PIVOT_LEVEL:
            raise ValueError(f"min_bmp {min_bmp} outside [0, {PIVOT_LEVEL}]")
        self.width = IPV4_WIDTH
        self.min_bmp = min_bmp
        self.name = f"RESAIL (min_bmp={min_bmp})"

        self.look_aside = TcamTable(IPV4_WIDTH, name="look-aside")
        self.bitmaps: Dict[int, Bitmap] = {
            i: Bitmap(i, name=f"B{i}") for i in range(min_bmp, PIVOT_LEVEL + 1)
        }
        if hash_capacity is None:
            hash_capacity = max(64, self._estimate_hash_entries(fib))
        # auto_grow lets long update sequences exceed the build-time
        # estimate without degrading into the overflow area.
        self.hash_table: DLeftHashTable[int] = DLeftHashTable(
            HASH_KEY_BITS, NEXT_HOP_BITS, capacity=hash_capacity,
            name="next-hops", auto_grow=True,
        )
        #: Prefixes shorter than min_bmp, kept for expansion maintenance.
        self._shorts = BinaryTrie(IPV4_WIDTH)
        #: For each expanded slot of B_min_bmp: the originating length.
        self._slot_origin: Dict[int, int] = {}

        for prefix, hop in fib:
            self.insert(prefix, hop)

    def _estimate_hash_entries(self, fib: Fib) -> int:
        count = 0
        for prefix, _hop in fib:
            if prefix.length > PIVOT_LEVEL:
                continue
            if prefix.length >= self.min_bmp:
                count += 1
            else:
                count += 1 << (self.min_bmp - prefix.length)
        return count

    # ------------------------------------------------------------------
    # Updates (Appendix A.3.1)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        if prefix.length > PIVOT_LEVEL:
            self.look_aside.insert_prefix(prefix, next_hop)
            return
        if prefix.length >= self.min_bmp:
            self.bitmaps[prefix.length].set(prefix.bits)
            self.hash_table.insert(bit_mark(prefix.bits, prefix.length), next_hop)
            if prefix.length == self.min_bmp:
                # A real min_bmp prefix displaces any expansion here.
                self._slot_origin[prefix.bits] = self.min_bmp
            return
        # Short prefix: fold into B_min_bmp by controlled expansion,
        # flipping only slots owned by shorter (or no) originals.
        self._shorts.insert(prefix, next_hop)
        for expanded in prefix.expansions(self.min_bmp):
            self._claim_slot(expanded.bits, prefix.length, next_hop)

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        if prefix.length > PIVOT_LEVEL:
            self.look_aside.delete_prefix(prefix)
            return
        if prefix.length >= self.min_bmp:
            key = bit_mark(prefix.bits, prefix.length)
            if self.hash_table.lookup(key) is None:
                raise KeyError(str(prefix))
            self.hash_table.delete(key)
            self.bitmaps[prefix.length].set(prefix.bits, False)
            if prefix.length == self.min_bmp:
                del self._slot_origin[prefix.bits]
                self._refill_slot(prefix.bits)
            return
        self._shorts.delete(prefix)
        for expanded in prefix.expansions(self.min_bmp):
            if self._slot_origin.get(expanded.bits) == prefix.length:
                del self._slot_origin[expanded.bits]
                self.hash_table.delete(bit_mark(expanded.bits, self.min_bmp))
                self.bitmaps[self.min_bmp].set(expanded.bits, False)
                self._refill_slot(expanded.bits)

    def _claim_slot(self, slot: int, origin_length: int, next_hop: int) -> None:
        """Expansion slot ownership: longer originals win (§3.2).

        An equal-length claim comes from the *same* prefix (a slot has one
        ancestor per length), i.e. a next-hop modify — it must fall through
        and overwrite the stored hop.
        """
        current = self._slot_origin.get(slot)
        if current is not None and current > origin_length:
            return
        self._slot_origin[slot] = origin_length
        self.bitmaps[self.min_bmp].set(slot)
        self.hash_table.insert(bit_mark(slot, self.min_bmp), next_hop)

    def _refill_slot(self, slot: int) -> None:
        """After a deletion, the next-longest short prefix reclaims a slot."""
        address = slot << (IPV4_WIDTH - self.min_bmp)
        covering = self._shorts.lookup_prefix(address)
        if covering is None:
            return
        hop = self._shorts.lookup(address)
        self._claim_slot(slot, covering.length, hop)

    # ------------------------------------------------------------------
    # Artifact state (repro.artifact warm starts)
    # ------------------------------------------------------------------
    def state_export(self):
        """Flatten the bitmaps, hash entries, look-aside rows and the
        expansion bookkeeping.  Importing replays none of the §3.2
        controlled prefix expansion — the expanded slots are already in
        the bitmap/hash content."""
        arrays = {}
        for i in range(self.min_bmp, PIVOT_LEVEL + 1):
            arrays[f"bitmap_{i:02d}"] = self.bitmaps[i]._bits.view(np.uint8)
        arrays["tcam"] = np.array(
            [(e.value, e.mask, e.priority, e.data)
             for e in self.look_aside.entries()],
            dtype=np.int64).reshape(-1, 4)
        # The d-left table exports its *physical* cell placement
        # (subtable, bucket, key, hop; subtable -1 = overflow area) so
        # the import adopts cells directly instead of re-running the
        # d-left placement hash per key — the dominant cold-build loop
        # a warm start exists to skip.  Placement is deterministic for
        # a given insert history, so the export stays byte-stable.
        table = self.hash_table
        cells = [(sub, b, key, hop)
                 for sub, subtable in enumerate(table._buckets)
                 for b, bucket in enumerate(subtable)
                 for key, hop in bucket]
        cells.extend((-1, 0, key, hop) for key, hop in table._overflow)
        arrays["hash_cells"] = np.array(cells, dtype=np.int64).reshape(-1, 4)
        arrays["shorts"] = np.array(
            sorted((p.bits, p.length, h) for p, h in self._shorts.items()),
            dtype=np.int64).reshape(-1, 3)
        origins = sorted(self._slot_origin.items())
        arrays["slot_origin_slots"] = np.array([s for s, _ in origins],
                                               dtype=np.int64)
        arrays["slot_origin_lens"] = np.array([l for _, l in origins],
                                              dtype=np.int64)
        return {"min_bmp": self.min_bmp,
                "hash_capacity": self.hash_table.capacity}, arrays

    @classmethod
    def state_import(cls, meta, arrays) -> "Resail":
        obj = cls.__new__(cls)
        obj.width = IPV4_WIDTH
        obj.min_bmp = int(meta["min_bmp"])
        obj.name = f"RESAIL (min_bmp={obj.min_bmp})"
        obj.look_aside = TcamTable(IPV4_WIDTH, name="look-aside")
        for value, mask, priority, data in arrays["tcam"]:
            obj.look_aside.insert(int(value), int(mask), int(priority),
                                  int(data))
        obj.bitmaps = {
            i: Bitmap.from_bits(i, arrays[f"bitmap_{i:02d}"], name=f"B{i}")
            for i in range(obj.min_bmp, PIVOT_LEVEL + 1)}
        table = DLeftHashTable(
            HASH_KEY_BITS, NEXT_HOP_BITS,
            capacity=int(meta["hash_capacity"]),
            name="next-hops", auto_grow=True)
        cells = arrays["hash_cells"]
        buckets, nbuckets = table._buckets, table.buckets_per_subtable
        for sub, b, key, hop in zip(cells[:, 0].tolist(),
                                    cells[:, 1].tolist(),
                                    cells[:, 2].tolist(),
                                    cells[:, 3].tolist()):
            if sub < 0:
                table._overflow.append((key, hop))
            elif sub < table.d and b < nbuckets:
                buckets[sub][b].append((key, hop))
            else:
                raise ValueError(
                    f"hash cell ({sub}, {b}) outside the table's "
                    f"{table.d}x{nbuckets} provisioning")
        table._count = int(cells.shape[0])
        obj.hash_table = table
        obj._shorts = BinaryTrie(IPV4_WIDTH)
        for bits, length, hop in arrays["shorts"]:
            obj._shorts.insert(
                Prefix.from_bits(int(bits), int(length), IPV4_WIDTH),
                int(hop))
        obj._slot_origin = {
            int(s): int(l) for s, l in zip(arrays["slot_origin_slots"],
                                           arrays["slot_origin_lens"])}
        return obj

    # ------------------------------------------------------------------
    # Lookup (Algorithm 1)
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        hop = self.look_aside.search(address)
        if hop is not None:
            return hop
        for i in range(PIVOT_LEVEL, self.min_bmp - 1, -1):
            index = address >> (IPV4_WIDTH - i)
            if self.bitmaps[i].test(index):
                return self.hash_table.lookup(bit_mark(index, i))
        return None

    # ------------------------------------------------------------------
    # CRAM model (Figure 5b: two steps)
    # ------------------------------------------------------------------
    def cram_program(self) -> CramProgram:
        registers = ["addr", "laside_hop", "hop"] + [
            f"key_{i}" for i in range(self.min_bmp, PIVOT_LEVEL + 1)
        ]
        prog = CramProgram("RESAIL", registers=registers)

        laside = ternary_table(
            "look-aside", IPV4_WIDTH, len(self.look_aside), NEXT_HOP_BITS,
            key_selector=lambda s: s["addr"], backing=self.look_aside,
        )
        prog.add_step(Step("look-aside", table=laside, reads=["addr"],
                           writes=["laside_hop"],
                           action=lambda s, r: s.__setitem__("laside_hop", r)))

        bitmap_steps = ["look-aside"]
        for i in range(self.min_bmp, PIVOT_LEVEL + 1):
            table = direct_index_table(
                f"B{i}", i, 1,
                key_selector=lambda s, i=i: s["addr"] >> (IPV4_WIDTH - i),
                backing=self.bitmaps[i], default=False,
            )

            def act(state: dict, result, i=i) -> None:
                state[f"key_{i}"] = (
                    bit_mark(state["addr"] >> (IPV4_WIDTH - i), i) if result else None
                )

            prog.add_step(Step(f"bitmap_{i}", table=table, reads=["addr"],
                               writes=[f"key_{i}"], action=act))
            bitmap_steps.append(f"bitmap_{i}")

        def hash_key(state: dict) -> Optional[int]:
            if state.get("laside_hop") is not None:
                return None
            for i in range(PIVOT_LEVEL, self.min_bmp - 1, -1):
                key = state.get(f"key_{i}")
                if key is not None:
                    return key
            return None

        hash_spec = exact_table(
            "next-hop hash", HASH_KEY_BITS, self.hash_table.allocated_cells,
            NEXT_HOP_BITS, key_selector=hash_key, backing=self.hash_table,
        )

        def resolve(state: dict, result) -> None:
            state["hop"] = (
                state["laside_hop"] if state["laside_hop"] is not None else result
            )

        prog.add_step(
            Step("hash", table=hash_spec,
                 reads=["laside_hop"] + [f"key_{i}" for i in
                                         range(self.min_bmp, PIVOT_LEVEL + 1)],
                 writes=["hop"], action=resolve),
            after=bitmap_steps,
        )
        return prog

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector): every step fully lowered
    # ------------------------------------------------------------------
    def vector_specs(self, prev):
        specs = {"look-aside": self._vector_laside_spec(),
                 "hash": self._vector_hash_spec(prev.get("hash"))}
        for i in range(self.min_bmp, PIVOT_LEVEL + 1):
            specs[f"bitmap_{i}"] = self._vector_bitmap_spec(
                i, prev.get(f"bitmap_{i}"))
        return specs

    def _vector_laside_spec(self):
        from ..core.vector import VectorStepSpec

        # Look-aside TCAM: one broadcast masked compare for the batch,
        # over the view the compiler freezes from the step's backing.
        def laside_update(lanes, vals, found, active):
            lanes.assign("laside_hop", vals, none=~found)

        return VectorStepSpec(
            laside_update,
            select=lambda lanes: (lanes.values("addr"), None))

    def _vector_bitmap_spec(self, i, prev):
        from ..core.vector import VectorStepSpec

        # The parallel level shares one (levels, n) uint8 lane matrix:
        # each bitmap kernel is one shift plus one gather from its own
        # view into its own row.  The key_i registers of the CRAM
        # program stay unwritten — the hash step marks the one key it
        # needs.
        view = self.bitmaps[i].vector_reader(prev)
        levels = len(self.bitmaps)
        row = i - self.min_bmp
        shift = IPV4_WIDTH - i

        def update(lanes, vals, found, active):
            lanes.matrix("bitmaps", levels, np.uint8)[row] = view.packed[
                lanes.values("addr") >> shift]

        # Compute-only (the kernel gathers into its row itself), so the
        # view is recorded as the reader to reach the next compile.
        return VectorStepSpec(update, reader=view)

    def _vector_hash_spec(self, prev):
        from ..core.vector import VectorStepSpec

        # Final step: weigh each row of the lane matrix by its rank
        # (1 for min_bmp ... levels for 24) and the column maximum is
        # the longest hit level per lane, 0 where no bitmap hit; mark
        # that one key, probe the flattened d-left view once, resolve
        # against the look-aside hop.
        hash_view = self.hash_table.vector_reader(prev)
        levels = len(self.bitmaps)
        ranks = np.arange(1, levels + 1, dtype=np.uint8)[:, None]
        base_shift = IPV4_WIDTH - PIVOT_LEVEL

        def hash_update(lanes, vals, found, active):
            rank = (lanes.matrix("bitmaps", levels, np.uint8) * ranks
                    ).max(axis=0)
            # Level 24 - drop is the longest hit, so its marked key is
            # ((addr >> (8 + drop)) << 1 | 1) << drop.
            drop = levels - rank
            keys = ((lanes.values("addr") >> (drop + base_shift) << 1) | 1
                    ) << drop
            no_laside = lanes.is_none("laside_hop")
            hops, hit = hash_view.gather(keys, (rank != 0) & no_laside)
            lanes.assign("hop",
                         np.where(no_laside, hops,
                                  lanes.values("laside_hop")),
                         none=no_laside & ~hit)

        # No select (the step marks its own key): the view is recorded
        # as the reader to reach the next compile.
        return VectorStepSpec(hash_update, reader=hash_view)

    # ------------------------------------------------------------------
    # Chip layout
    # ------------------------------------------------------------------
    def layout(self) -> Layout:
        return resail_layout_from_counts(
            long_prefixes=len(self.look_aside),
            hash_entries=len(self.hash_table),
            min_bmp=self.min_bmp,
            name=self.name,
        )

    def idioms_applied(self) -> List[IdiomApplication]:
        return [
            IdiomApplication(Idiom.LOOK_ASIDE_TCAM, "prefixes > /24",
                             "no pivot pushing; tiny parallel TCAM"),
            IdiomApplication(Idiom.COMPRESS_WITH_SRAM, "next-hop arrays",
                             "32 MB of direct arrays -> one d-left hash table"),
            IdiomApplication(Idiom.STEP_REDUCTION, "bitmap lookups",
                             "all bitmaps + TCAM probed in one step"),
        ]


def resail_layout_from_counts(
    long_prefixes: int,
    hash_entries: int,
    min_bmp: int = DEFAULT_MIN_BMP,
    name: Optional[str] = None,
) -> Layout:
    """RESAIL's chip layout from entry counts (used analytically in §7.1)."""
    bitmaps = [
        LogicalTable(f"B{i}", MemoryKind.SRAM, entries=1 << i, key_width=i,
                     data_width=1, direct_index=True, raw_bits=1 << i,
                     unaligned_key=True)
        for i in range(min_bmp, PIVOT_LEVEL + 1)
    ]
    look_aside = LogicalTable(
        "look-aside", MemoryKind.TCAM, entries=long_prefixes,
        key_width=IPV4_WIDTH, data_width=NEXT_HOP_BITS,
    )
    hash_table = LogicalTable(
        "next-hop hash", MemoryKind.SRAM, entries=dleft_cells(hash_entries),
        key_width=HASH_KEY_BITS, data_width=NEXT_HOP_BITS, unaligned_key=True,
    )
    return Layout(
        name or f"RESAIL (min_bmp={min_bmp})",
        [
            Phase("bitmaps + look-aside TCAM", bitmaps + [look_aside],
                  dependent_alu_ops=1),
            Phase("bit marking", [], dependent_alu_ops=2),
            Phase("next-hop hash", [hash_table], dependent_alu_ops=1),
        ],
    )


def resail_layout_from_distribution(
    dist: LengthDistribution,
    min_bmp: int = DEFAULT_MIN_BMP,
    name: Optional[str] = None,
) -> Layout:
    """Analytic RESAIL layout for §7.1's length-histogram scaling."""
    long_prefixes = dist.count_longer_than(PIVOT_LEVEL)
    hash_entries = sum(dist.count(i) for i in range(min_bmp, PIVOT_LEVEL + 1))
    for length in range(min_bmp):
        hash_entries += dist.count(length) * (1 << (min_bmp - length))
    return resail_layout_from_counts(long_prefixes, hash_entries, min_bmp, name)
