"""d-left hash table (Broder & Mitzenmacher [10]).

RESAIL compresses SAIL's 32 MB of directly-indexed next-hop arrays into
a single d-left hash table (idiom I3).  d-left splits the table into
``d`` equal sub-tables; an inserted key hashes to one bucket in each
sub-table and is placed in the least-loaded of the ``d`` candidates
(leftmost on ties).  This keeps bucket occupancy tight enough that the
table runs at an 80% fill ratio — the paper's "25% memory penalty" —
with a vanishing overflow probability.

Memory is accounted as allocated cells (not live entries), because a
hardware hash table must provision its worst case:
``cells * (key_width + data_width)`` SRAM bits.
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

from ..obs.accounting import AccessStats
from .sram import FreezeLog, freeze_map

V = TypeVar("V")


#: The paper's provisioning rule: 25% more cells than entries.
DLEFT_OVERHEAD = 0.25

# Odd multipliers for Fibonacci-style hashing, one per sub-table, so
# the d candidate buckets are independent but fully deterministic.
_MIXERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA6B27D4EB4F,
    0xFF51AFD7ED558CCD,
)


class DLeftHashTable(Generic[V]):
    """A d-left hash table with fixed provisioning.

    ``capacity`` is the number of *entries* the table is provisioned
    for; ``overhead`` extra cells are allocated on top (default the
    paper's 25%).  Inserting beyond a completely full candidate set
    spills to a (counted) overflow area — tests assert this stays empty
    at the design load.
    """

    def __init__(
        self,
        key_width: int,
        data_width: int,
        capacity: int,
        d: int = 4,
        bucket_cells: int = 8,
        overhead: float = DLEFT_OVERHEAD,
        name: str = "dleft",
        auto_grow: bool = False,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 1 <= d <= len(_MIXERS):
            raise ValueError(f"d must be in [1, {len(_MIXERS)}]")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        self.key_width = key_width
        self.data_width = data_width
        self.capacity = capacity
        self.d = d
        self.bucket_cells = bucket_cells
        self.overhead = overhead
        self.name = name
        self.stats = AccessStats(name)
        #: When True the table doubles its provisioning once the live
        #: entry count reaches the design capacity — the software
        #: control plane's answer to a growing FIB (a hardware table
        #: would be re-provisioned at the next maintenance window).
        self.auto_grow = auto_grow

        total_cells = max(d * bucket_cells, int(capacity * (1 + overhead)))
        per_subtable = -(-total_cells // d)  # ceil
        self.buckets_per_subtable = max(1, -(-per_subtable // bucket_cells))
        # Bucket store: buckets[sub][idx] is a list of (key, data) cells.
        self._buckets: List[List[List[Tuple[int, V]]]] = [
            [[] for _ in range(self.buckets_per_subtable)] for _ in range(d)
        ]
        self._overflow: List[Tuple[int, V]] = []
        self._count = 0
        #: ``(key, data)`` per insert/overwrite, ``(key, None)`` per
        #: delete: a vector view handed back as ``prev`` replays the
        #: tail instead of re-flattening every bucket.
        self.log = FreezeLog()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def allocated_cells(self) -> int:
        return self.d * self.buckets_per_subtable * self.bucket_cells

    @property
    def overflow_count(self) -> int:
        return len(self._overflow)

    @property
    def load_factor(self) -> float:
        return self._count / self.allocated_cells

    def _bucket_index(self, key: int, subtable: int) -> int:
        mixed = (key + subtable + 1) * _MIXERS[subtable] & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 17) % self.buckets_per_subtable

    # ------------------------------------------------------------------
    def insert(self, key: int, data: V) -> None:
        """Insert or overwrite; places new keys d-left style."""
        if not 0 <= key < (1 << self.key_width):
            raise ValueError(f"key {key:#x} exceeds key width {self.key_width}")
        self.stats.writes += 1
        self.log.record((key, data))
        candidates = [
            self._buckets[sub][self._bucket_index(key, sub)] for sub in range(self.d)
        ]
        for bucket in candidates:
            for i, (existing, _data) in enumerate(bucket):
                if existing == key:
                    bucket[i] = (key, data)
                    return
        for i, (existing, _data) in enumerate(self._overflow):
            if existing == key:
                self._overflow[i] = (key, data)
                return
        target = min(candidates, key=len)  # leftmost minimum: d-left rule
        if len(target) < self.bucket_cells:
            target.append((key, data))
        else:
            self._overflow.append((key, data))
        self._count += 1
        if self.auto_grow and self._count >= self.capacity:
            self._grow()

    def _grow(self) -> None:
        """Double the provisioning and rehash every entry."""
        entries = [
            cell
            for subtable in self._buckets
            for bucket in subtable
            for cell in bucket
        ] + list(self._overflow)
        self.capacity *= 2
        total_cells = max(self.d * self.bucket_cells,
                          int(self.capacity * (1 + self.overhead)))
        per_subtable = -(-total_cells // self.d)
        self.buckets_per_subtable = max(1, -(-per_subtable // self.bucket_cells))
        self._buckets = [
            [[] for _ in range(self.buckets_per_subtable)] for _ in range(self.d)
        ]
        self._overflow = []
        self._count = 0
        # A rehash moves every entry: no log tail can describe it.
        self.log.invalidate()
        for key, data in entries:
            self.insert(key, data)

    def _flatten(self) -> dict:
        flat = {}
        for subtable in self._buckets:
            for bucket in subtable:
                for key, data in bucket:
                    flat[key] = data
        for key, data in self._overflow:
            flat[key] = data
        return flat

    def plan_reader(self):
        """The live read a compiled lookup plan binds: :meth:`lookup`'s
        bucket walk without its accounting.  It walks whatever buckets
        the table holds when called, so an auto-grow rehash shows
        through like any other write.
        """
        return self._find

    def vector_reader(self, prev=None):
        """Batch-gather snapshot view for the lane compiler.

        Flattens the sub-tables and the overflow area (keys are unique
        across cells), then builds a sorted-key probe view (d-left key
        spaces are far too wide to densify).  ``None`` when stored data
        is not int-like.  ``prev`` re-freezes the previous compile's
        view by patching its sorted arrays with the write log's net
        effect (see :func:`~repro.memory.sram.freeze_map`).
        """
        return freeze_map(self.log, prev, self._flatten, self.key_width)

    def _find(self, key: int) -> Optional[V]:
        """The d candidate buckets, then the overflow area."""
        buckets = self.buckets_per_subtable
        for sub, subtable in enumerate(self._buckets):
            # _bucket_index, inlined: this is the scalar plan's probe.
            mixed = (key + sub + 1) * _MIXERS[sub] & 0xFFFFFFFFFFFFFFFF
            for existing, data in subtable[(mixed >> 17) % buckets]:
                if existing == key:
                    return data
        for existing, data in self._overflow:
            if existing == key:
                return data
        return None

    def lookup(self, key: int) -> Optional[V]:
        """Exact-match lookup across the d candidate buckets."""
        result = self._find(key)
        stats = self.stats
        stats.reads += 1
        if result is None:
            stats.misses += 1
        else:
            stats.hits += 1
            if stats.hit_tally is not None:
                stats.hit_tally[key] += 1
        return result

    def delete(self, key: int) -> None:
        """Remove ``key``; raises ``KeyError`` if absent."""
        for sub in range(self.d):
            bucket = self._buckets[sub][self._bucket_index(key, sub)]
            for i, (existing, _data) in enumerate(bucket):
                if existing == key:
                    del bucket[i]
                    self._count -= 1
                    self.stats.writes += 1
                    self.log.record((key, None))
                    return
        for i, (existing, _data) in enumerate(self._overflow):
            if existing == key:
                del self._overflow[i]
                self._count -= 1
                self.stats.writes += 1
                self.log.record((key, None))
                return
        raise KeyError(key)

    # ------------------------------------------------------------------
    def sram_bits(self) -> int:
        """Provisioned footprint: every allocated cell stores key+data."""
        return self.allocated_cells * (self.key_width + self.data_width)


def dleft_cells(entries: int, overhead: float = DLEFT_OVERHEAD) -> int:
    """Analytic cell provisioning for ``entries`` at the given overhead."""
    return int(entries * (1 + overhead))
