"""Behavioural SRAM table simulators.

Two shapes of SRAM table appear in the paper's algorithms:

* :class:`DirectIndexTable` — an exact-match table with ``2**key_width``
  entries, where the key *is* the index and therefore needs no storage
  (the CRAM model's special case, §2.1).  SAIL's bitmaps and next-hop
  arrays and DXR's initial lookup table are direct-indexed.
* :class:`ExactMatchTable` — a hash-style exact-match table that stores
  keys explicitly.  BSIC's BST-level tables and MASHUP's coalesced SRAM
  nodes are exact-match tables.

Bitmaps get a dedicated :class:`Bitmap` built on numpy so that the
2**24-bit SAIL/RESAIL bitmaps are cheap to hold and to populate.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.vector import (BitmapView, DenseArrayView, RangeView,
                           SparseMapView, key_dtype, map_view,
                           patch_sparse_view)
from ..obs.accounting import AccessStats

V = TypeVar("V")

#: Incremental-freeze write logs are halved once they pass this many
#: entries; snapshot views older than the trimmed tail fall back to a
#: full re-copy on their next freeze.
FREEZE_LOG_CAP = 1 << 15


class FreezeLog:
    """A table's incremental-freeze write log — the one freeze path of
    all five table simulators.

    Armed by the first vector view, then every write lands here
    too.  A frozen view carries the log ``version`` it is synced to;
    handed back on the next freeze (``vector_reader(prev=view)``), it
    catches up by replaying just the :meth:`tail` instead of re-copying
    the table.
    """

    __slots__ = ("entries", "base")

    def __init__(self):
        self.entries: Optional[list] = None
        self.base = 0

    @property
    def version(self) -> int:
        return self.base + len(self.entries or ())

    def arm(self) -> None:
        if self.entries is None:
            self.entries = []

    def record(self, entry) -> None:
        log = self.entries
        if log is None:
            return
        log.append(entry)
        if len(log) > FREEZE_LOG_CAP:
            drop = len(log) // 2
            del log[:drop]
            self.base += drop

    def tail(self, synced) -> Optional[list]:
        """Entries past version ``synced``, or None when the snapshot is
        too old (predates the log, a trim, or an :meth:`invalidate`)."""
        if self.entries is None or synced is None or synced < self.base:
            return None
        return self.entries[synced - self.base:]

    def invalidate(self) -> None:
        """No tail can describe what just happened: jump the base past
        every outstanding snapshot's version so they all rebuild."""
        if self.entries is not None:
            self.base = self.version + 1
            self.entries = []

    def stamp(self, view):
        """Arm the log and sync ``view`` — which must hold the table as
        it stands now — to the current version; returns ``view``."""
        self.arm()
        if view is not None:
            view.version = self.version
        return view


def freeze_map(log: FreezeLog, prev, slots, key_bits: int,
               capacity: Optional[int] = None):
    """The vector view of a dict-shaped table whose writes ``log``
    records as ``(key, value)`` (``None`` deletes).

    ``prev`` — a view this table froze earlier — catches up in place
    (a dense view slot by slot, a sorted probe through
    :func:`~repro.core.vector.patch_sparse_view`) when the log still
    reaches back to it and every value written since is int-like;
    otherwise ``slots()`` (the table as a dict) is frozen afresh
    through :func:`~repro.core.vector.map_view`.
    """
    if isinstance(prev, (DenseArrayView, SparseMapView)):
        tail = log.tail(prev.version)
        if tail is not None:
            updates = dict(tail)
            if all(value is None or isinstance(value, (int, np.integer))
                   for value in updates.values()):
                if isinstance(prev, SparseMapView):
                    patch_sparse_view(prev, updates)
                else:
                    for key, value in updates.items():
                        prev.dense[key] = 0 if value is None else value
                        prev.present[key] = value is not None
                prev.version = log.version
                return prev
    return log.stamp(map_view(slots(), key_bits, capacity=capacity))


class RangeSections:
    """A range table kept as one sorted section per slice: DXR's and
    BSIC's range tables as the lane kernels read them.

    Slice ``s`` covers the keys ``[s << shift, (s + 1) << shift)`` of a
    ``width``-bit space, and its left endpoints are stored as those
    keys, in :func:`~repro.core.vector.key_dtype` ``(width)``, so the
    slices in order are one sorted :class:`RangeView`.  A freeze handed
    the previous view splices in only the slices :meth:`set` changed
    since (the log's tail), and never writes the old arrays.
    """

    def __init__(self, width: int, shift: int):
        self.shift = shift
        self.dtype = key_dtype(width)  # None: no lane holds such a key
        #: slice -> its section's lefts, hops and none arrays, one dict
        #: per column (no per-slice tuple for the collector to track).
        self.columns: Tuple[Dict[int, np.ndarray], ...] = ({}, {}, {})
        self.log = FreezeLog()

    def set(self, slice_bits: int, entries: Optional[Sequence]) -> None:
        """(Re)place a slice's ``RangeEntry`` rows; ``None`` drops it."""
        lefts, hops, none = self.columns
        if self.dtype is None or (entries is None
                                  and slice_bits not in lefts):
            return
        self.log.record(slice_bits)
        if entries is None:
            for column in self.columns:
                del column[slice_bits]
            return
        base, n = slice_bits << self.shift, len(entries)
        lefts[slice_bits] = np.fromiter(
            (base | e.left for e in entries), self.dtype, n)
        hops[slice_bits] = np.fromiter(
            (e.next_hop or 0 for e in entries), np.int64, n)
        none[slice_bits] = np.fromiter(
            (e.next_hop is None for e in entries), bool, n)

    def freeze(self, prev=None) -> RangeView:
        """Every section as one view, spliced from ``prev`` when the log
        still reaches back to it."""
        tail = (self.log.tail(prev.version)
                if isinstance(prev, RangeView) else None)
        if tail == []:
            return prev
        live = self.columns[0]
        if tail is None:
            order = sorted(live)
            return self.log.stamp(RangeView(*(
                np.concatenate([np.zeros(0, dtype)]
                               + [column[s] for s in order])
                for dtype, column in zip((self.dtype, np.int64, bool),
                                         self.columns))))
        changed = sorted(set(tail))
        return self.log.stamp(prev.splice(
            [(s << self.shift, (s + 1 << self.shift) - 1) for s in changed],
            [tuple(column[s] for column in self.columns) if s in live
             else None for s in changed]))


class DirectIndexTable(Generic[V]):
    """SRAM table indexed directly by a ``key_width``-bit key.

    CRAM accounting: keys cost nothing (``n == 2**k`` exact match);
    data costs ``2**key_width * data_width`` SRAM bits whether or not a
    slot is populated — that is precisely the waste idioms I1/I3 exist
    to remove.
    """

    def __init__(self, key_width: int, data_width: int, name: str = "direct"):
        if key_width < 0:
            raise ValueError("key width must be non-negative")
        self.key_width = key_width
        self.data_width = data_width
        self.name = name
        self.stats = AccessStats(name)
        self._slots: Dict[int, V] = {}
        #: ``(index, data)`` per store, ``(index, None)`` per clear,
        #: once a vector view armed it.
        self.log = FreezeLog()

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def capacity(self) -> int:
        return 1 << self.key_width

    def store(self, index: int, data: V) -> None:
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} outside table of 2^{self.key_width}")
        self._slots[index] = data
        self.stats.writes += 1
        if self.log.entries is not None:
            self.log.record((index, data))

    def clear_slot(self, index: int) -> None:
        self._slots.pop(index, None)
        self.stats.writes += 1
        if self.log.entries is not None:
            self.log.record((index, None))

    def load(self, index: int) -> Optional[V]:
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} outside table of 2^{self.key_width}")
        result = self._slots.get(index)
        stats = self.stats
        stats.reads += 1
        if result is None:
            stats.misses += 1
        else:
            stats.hits += 1
            if stats.hit_tally is not None:
                stats.hit_tally[index] += 1
        return result

    def items(self) -> Iterator[Tuple[int, V]]:
        return iter(sorted(self._slots.items()))

    def plan_reader(self):
        """The live read a compiled lookup plan binds: ``dict.get`` on
        the slots themselves — no copy, no bounds check, no
        :class:`AccessStats` accounting.  Later writes show through.
        """
        return self._slots.get

    def vector_reader(self, prev=None):
        """A batch-gather snapshot view for the lane compiler.

        Dense index → value arrays when the key space is small enough,
        a sorted-key probe view otherwise; ``None`` when the stored
        values are not int-like (the plan then does not lower).  A
        copy: later writes show only in the next freeze, which replays
        the write log into ``prev`` (see :func:`freeze_map`).
        """
        return freeze_map(self.log, prev, lambda: self._slots,
                          self.key_width, self.capacity)

    def sram_bits(self) -> int:
        """Full directly-indexed footprint, populated or not."""
        return self.capacity * self.data_width


class ExactMatchTable(Generic[V]):
    """SRAM exact-match table with explicitly stored keys.

    CRAM accounting: ``entries * key_width`` SRAM bits for keys plus
    ``entries * data_width`` for data.  The behavioural side is a dict —
    RMT ASICs price hashed and direct SRAM lookups identically (idiom
    I3), so no collision machinery is modelled here; use
    :class:`repro.memory.dleft.DLeftHashTable` when the 25% d-left
    overhead must be accounted.
    """

    def __init__(self, key_width: int, data_width: int, name: str = "exact"):
        self.key_width = key_width
        self.data_width = data_width
        self.name = name
        self.stats = AccessStats(name)
        self._slots: Dict[int, V] = {}
        #: ``(key, data)`` per store, ``(key, None)`` per delete.
        self.log = FreezeLog()

    def __len__(self) -> int:
        return len(self._slots)

    def store(self, key: int, data: V) -> None:
        if not 0 <= key < (1 << self.key_width):
            raise ValueError(f"key {key:#x} exceeds key width {self.key_width}")
        self._slots[key] = data
        self.stats.writes += 1
        if self.log.entries is not None:
            self.log.record((key, data))

    def delete(self, key: int) -> None:
        del self._slots[key]
        self.stats.writes += 1
        if self.log.entries is not None:
            self.log.record((key, None))

    def load(self, key: int) -> Optional[V]:
        result = self._slots.get(key)
        stats = self.stats
        stats.reads += 1
        if result is None:
            stats.misses += 1
        else:
            stats.hits += 1
            if stats.hit_tally is not None:
                stats.hit_tally[key] += 1
        return result

    def items(self) -> Iterator[Tuple[int, V]]:
        return iter(sorted(self._slots.items()))

    def plan_reader(self):
        """The live read (see :meth:`DirectIndexTable.plan_reader`)."""
        return self._slots.get

    def vector_reader(self, prev=None):
        """Batch-gather snapshot view (see :meth:`DirectIndexTable.vector_reader`)."""
        return freeze_map(self.log, prev, lambda: self._slots,
                          self.key_width, 1 << self.key_width)

    def sram_bits(self) -> int:
        return len(self._slots) * (self.key_width + self.data_width)


class Bitmap:
    """A directly-indexed 1-bit-per-slot SRAM table (SAIL's ``B_i``)."""

    def __init__(self, index_width: int, name: str = "bitmap"):
        if index_width < 0:
            raise ValueError("index width must be non-negative")
        self.index_width = index_width
        self.name = name
        self.stats = AccessStats(name)
        self._bits = np.zeros(1 << index_width, dtype=bool)
        #: ``(index, value)`` per write once a vector view armed it.
        self.log = FreezeLog()

    @classmethod
    def from_bits(cls, index_width: int, bits: np.ndarray,
                  name: str = "bitmap") -> "Bitmap":
        """Adopt an existing bit buffer instead of allocating zeros.

        ``bits`` may be ``bool`` or ``uint8`` (0/1) of size
        ``2**index_width``; uint8 buffers are adopted as a zero-copy
        view — this is the artifact warm-start path, where the buffer
        is a copy-on-write slice of an mmapped snapshot.
        """
        arr = np.asarray(bits)
        if arr.size != 1 << index_width:
            raise ValueError(
                f"bit buffer has {arr.size} slots, expected "
                f"{1 << index_width}")
        obj = cls.__new__(cls)
        obj.index_width = index_width
        obj.name = name
        obj.stats = AccessStats(name)
        if arr.dtype == np.uint8:
            obj._bits = arr.view(np.bool_)
        elif arr.dtype == np.bool_:
            obj._bits = arr
        else:
            obj._bits = arr.astype(bool)
        obj.log = FreezeLog()
        return obj

    def __len__(self) -> int:
        return int(self._bits.sum())

    @property
    def capacity(self) -> int:
        return 1 << self.index_width

    def set(self, index: int, value: bool = True) -> None:
        self._bits[index] = value
        self.stats.writes += 1
        if self.log.entries is not None:
            self.log.record((int(index), 1 if value else 0))

    def test(self, index: int) -> bool:
        result = bool(self._bits[index])
        stats = self.stats
        stats.reads += 1
        if result:
            stats.hits += 1
            if stats.hit_tally is not None:
                stats.hit_tally[index] += 1
        else:
            stats.misses += 1
        return result

    def set_many(self, indices) -> None:
        index_array = np.asarray(list(indices), dtype=np.int64)
        self._bits[index_array] = True
        self.stats.writes += len(index_array)
        if self.log.entries is not None:
            for index in index_array.tolist():
                self.log.record((index, 1))

    def plan_reader(self):
        """The live read a compiled lookup plan binds: a
        ``memoryview`` over the bit buffer itself, indexed at C speed
        into a Python ``bool`` — no copy, no accounting.  Later writes
        show through.
        """
        return memoryview(self._bits).__getitem__

    def vector_reader(self, prev=None):
        """Batch-gather snapshot view: a ``uint8`` copy, one per slot,
        which the lane compiler gathers whole index vectors from in one
        fancy-index.  ``prev`` (the previous compile's view) re-freezes
        incrementally: the write log since its version is replayed into
        its buffer — O(delta), not O(capacity).
        """
        if isinstance(prev, BitmapView):
            tail = self.log.tail(prev.version)
            if tail is not None:
                packed = prev.packed
                for index, value in tail:
                    packed[index] = value
                prev.version = self.log.version
                return prev
        return self.log.stamp(BitmapView(self._bits.astype(np.uint8)))

    def sram_bits(self) -> int:
        """One bit per slot, populated or not."""
        return self.capacity
