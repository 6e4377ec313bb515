"""Behavioural ternary CAM (TCAM) simulator.

A TCAM stores (value, mask, priority) entries and, for a search key,
returns the associated data of the highest-priority entry whose masked
value equals the masked key — in one "clock cycle" (one CRAM step).

This simulator is used two ways:

* *Behaviourally*, to execute lookups when testing the algorithms
  end-to-end (the look-aside TCAM in RESAIL, the initial table in
  BSIC, TCAM nodes in MASHUP, and the logical-TCAM baseline).
* *Analytically*, to account memory exactly as the CRAM model does
  (§2.1): ``entries * key_width`` TCAM bits for the match keys (only
  the value component) and ``entries * data_width`` SRAM bits for the
  associated data.

Priority convention: **lower priority number wins**, matching physical
TCAMs where the lowest-address matching row is returned.  For
longest-prefix-match tables use :meth:`TcamTable.insert_prefix`, which
assigns priorities so longer prefixes win.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from ..core.vector import (MATRIX_ROW_LIMIT, SparseMapView, TcamGroupView,
                           TcamMatrixView, key_dtype, patch_sparse_view)
from ..obs.accounting import AccessStats
from ..prefix.prefix import Prefix
from .sram import FreezeLog

V = TypeVar("V")


@dataclass(frozen=True)
class TcamEntry(Generic[V]):
    """One ternary row: key ``value`` under ``mask``, with ``priority``."""

    value: int
    mask: int
    priority: int
    data: V

    def matches(self, key: int) -> bool:
        return (key & self.mask) == (self.value & self.mask)


class TcamTable(Generic[V]):
    """A priority ternary match table over ``key_width``-bit keys."""

    def __init__(self, key_width: int, name: str = "tcam"):
        if key_width <= 0:
            raise ValueError("key width must be positive")
        self.key_width = key_width
        self.name = name
        #: Access accounting: searches count as reads, insert/delete as
        #: writes; per-(value, mask) hit tallies when tracking is on.
        self.stats = AccessStats(name)
        #: Rows by exact (value, mask), oldest first within a key, so
        #: a keyed delete or overwrite never scans the table.
        self._entries: Dict[Tuple[int, int], List[TcamEntry[V]]] = {}
        self._size = 0
        # Search index, kept by every write: entries grouped by
        # (priority, mask), the groups in winning order; within a group
        # the masked value is an exact key and maps to the row that
        # wins it.  Physical TCAMs match all rows in parallel; this
        # index gives the simulator O(#distinct masks) searches instead
        # of O(rows) while preserving lowest-priority-wins semantics.
        self._groups: Dict[Tuple[int, int], Dict[int, TcamEntry[V]]] = {}
        self._group_order: List[Tuple[int, int]] = []
        #: Every insert/delete records the one group row it can change
        #: — ``(priority, mask, value)`` — and a group view handed back
        #: as ``prev`` re-reads just those rows.
        self.log = FreezeLog()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, value: int, mask: int, priority: int, data: V) -> None:
        """Insert a raw ternary entry."""
        limit = 1 << self.key_width
        if not (0 <= value < limit and 0 <= mask < limit):
            raise ValueError("value/mask exceed key width")
        if (value & ~mask) & (limit - 1):
            raise ValueError("value has set bits outside the mask")
        entry = TcamEntry(value, mask, priority, data)
        self._entries.setdefault((value, mask), []).append(entry)
        group = self._groups.get((priority, mask))
        if group is None:
            group = self._groups[(priority, mask)] = {}
            insort(self._group_order, (priority, mask))
        # First writer wins within a group: insertion order breaks
        # priority ties, the usual software-managed TCAM convention.
        group.setdefault(value, entry)
        self._size += 1
        self.stats.writes += 1
        self.log.record((priority, mask, value))

    def insert_prefix(self, prefix: Prefix, data: V) -> None:
        """Insert a prefix with LPM priority (longer prefix wins).

        The prefix must be at most ``key_width`` bits wide; it matches
        the *top* bits of the key, with the remainder wildcarded, just
        as prefixes are loaded into a physical TCAM.  Re-inserting a
        prefix already in the table *replaces* its data — writing a
        TCAM row overwrites it — rather than leaving a duplicate row
        whose stale data would shadow the update.
        """
        if prefix.width > self.key_width:
            raise ValueError(
                f"prefix width {prefix.width} exceeds key width {self.key_width}"
            )
        shift = self.key_width - prefix.width
        host_bits = prefix.width - prefix.length
        mask = (((1 << prefix.length) - 1) << host_bits) << shift
        value = prefix.value << shift
        try:
            self.delete(value, mask)
        except KeyError:
            pass
        self.insert(value, mask, priority=self.key_width - prefix.length, data=data)

    def delete(self, value: int, mask: int) -> None:
        """Remove the entry with exactly this value/mask; KeyError if absent."""
        rows = self._entries.get((value, mask))
        if not rows:
            raise KeyError(f"({value:#x}, {mask:#x})")
        gone = rows.pop(0)
        if not rows:
            del self._entries[(value, mask)]
        group_key = (gone.priority, mask)
        group = self._groups[group_key]
        # ``gone`` held its group's slot (it was the oldest row of its
        # priority); the next-oldest of the same priority takes it.
        heir = next((entry for entry in rows
                     if entry.priority == gone.priority), None)
        if heir is not None:
            group[value] = heir
        else:
            del group[value]
            if not group:
                del self._groups[group_key]
                self._group_order.remove(group_key)
        self._size -= 1
        self.stats.writes += 1
        self.log.record((gone.priority, mask, value))

    def delete_prefix(self, prefix: Prefix) -> None:
        shift = self.key_width - prefix.width
        host_bits = prefix.width - prefix.length
        mask = (((1 << prefix.length) - 1) << host_bits) << shift
        self.delete(prefix.value << shift, mask)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: int) -> Optional[V]:
        """Highest-priority match for ``key``, or ``None`` on miss."""
        entry = self.search_entry(key)
        return entry.data if entry is not None else None

    def search_entry(self, key: int) -> Optional[TcamEntry[V]]:
        stats = self.stats
        stats.reads += 1
        for group_key in self._group_order:
            _priority, mask = group_key
            entry = self._groups[group_key].get(key & mask)
            if entry is not None:
                stats.hits += 1
                if stats.hit_tally is not None:
                    stats.hit_tally[(entry.value, entry.mask)] += 1
                return entry
        stats.misses += 1
        return None

    def plan_reader(self):
        """The live search a compiled lookup plan binds: the walk of
        :meth:`search` without its accounting, over the group index
        itself — every write maintains it in place, so nothing is
        copied and later writes show through.
        """
        groups, order = self._groups, self._group_order

        def search(key: int):
            for group_key in order:
                entry = groups[group_key].get(key & group_key[1])
                if entry is not None:
                    return entry.data
            return None

        return search

    def vector_reader(self, encode=None, prev=None):
        """Batch-search snapshot view for the lane compiler.

        Small tables become one :class:`TcamMatrixView`: rows flattened
        in frozen group order — lowest ``(priority, mask)`` first, the
        winning order — answered by a broadcast masked compare plus
        first-match ``argmax``.  At most one row per group can match a
        key (the masked value is exact within a group), so within-group
        row order is immaterial.  Beyond :data:`MATRIX_ROW_LIMIT` rows
        the matrix intermediates blow up (O(lanes x rows)), so the view
        switches to a :class:`TcamGroupView`: one sorted-key probe per
        group, walked in the same winning order.

        ``encode`` maps each entry's data to its int64 lane encoding
        (return ``None`` to declare the data un-encodable); without it,
        only int-like data is accepted.  Returns ``None`` — the step
        then has no kernel — when any data cannot be encoded.  Keys and
        masks have the :func:`key_dtype` of ``key_width``.  Mutations
        after the snapshot are invisible until it is re-frozen.

        ``prev`` (the previous freeze's group view) is re-frozen
        incrementally: the rows the write log names since its version
        are re-read and patched into its sorted groups — O(delta), not
        O(rows).  A matrix view (at most ``MATRIX_ROW_LIMIT`` rows) is
        kept while nothing was written since it froze and rebuilt
        otherwise, as is a view the log no longer reaches.
        """
        self.log.arm()
        if isinstance(prev, TcamGroupView) and self._replay(prev, encode):
            return prev
        if isinstance(prev, TcamMatrixView) and \
                self.log.tail(prev.version) == []:
            return prev
        keys = key_dtype(self.key_width)
        probes: List[Tuple[int, SparseMapView]] = []
        for _priority, mask in self._group_order:
            rows = sorted(self._groups[(_priority, mask)].items())
            coded = [_encoded(entry.data, encode) for _value, entry in rows]
            if None in coded:
                return None
            probes.append((mask, SparseMapView(
                np.array([value for value, _entry in rows], dtype=keys),
                np.array(coded, dtype=np.int64))))
        if sum(len(probe.data) for _mask, probe in probes) > MATRIX_ROW_LIMIT:
            return TcamGroupView(probes, list(self._group_order),
                                 self.log.version)
        probes.append((0, _empty_probe(keys)))  # an empty table stacks too
        return TcamMatrixView(
            np.concatenate([probe.keys for _mask, probe in probes]),
            np.concatenate([np.full(len(probe.data), mask, dtype=keys)
                            for mask, probe in probes]),
            np.concatenate([probe.data for _mask, probe in probes]),
            self.log.version)

    def _replay(self, view: TcamGroupView, encode) -> bool:
        """Bring ``view`` up to date from the write-log tail; False when
        it has to be rebuilt instead (see :meth:`vector_reader`)."""
        tail = self.log.tail(view.version)
        if view.order is None or tail is None:
            return False
        # The log names the group rows written since; the search index
        # says what each holds now.
        updates: Dict[Tuple[int, int], Dict[int, Optional[int]]] = {}
        for priority, mask, value in set(tail):
            entry = self._groups.get((priority, mask), {}).get(value)
            coded = None
            if entry is not None:
                coded = _encoded(entry.data, encode)
                if coded is None:
                    return False
            updates.setdefault((priority, mask), {})[value] = coded
        order, groups = view.order, view.groups
        keys = key_dtype(self.key_width)
        for group_key in sorted(updates):
            at = bisect_left(order, group_key)
            if at == len(order) or order[at] != group_key:
                order.insert(at, group_key)
                groups.insert(at, (keys(group_key[1]), _empty_probe(keys)))
            probe = groups[at][1]
            patch_sparse_view(probe, updates[group_key])
            if not probe.keys.size:
                del order[at], groups[at]
        if sum(probe.keys.size for _mask, probe in groups) <= MATRIX_ROW_LIMIT:
            return False
        view.version = self.log.version
        return True

    # ------------------------------------------------------------------
    # CRAM accounting (§2.1)
    # ------------------------------------------------------------------
    def tcam_bits(self) -> int:
        """Match-key bits: entries x key width (value component only)."""
        return self._size * self.key_width

    def sram_bits(self, data_width: int) -> int:
        """Associated-data bits at the given encoded data width."""
        return self._size * data_width

    def entries(self) -> List[TcamEntry[V]]:
        return [entry for rows in self._entries.values() for entry in rows]


def _empty_probe(keys) -> SparseMapView:
    return SparseMapView(np.zeros(0, dtype=keys), np.zeros(0, dtype=np.int64))


def _encoded(data, encode) -> Optional[int]:
    """An entry's data as its int64 lane code, or ``None``."""
    if encode is not None:
        data = encode(data)
    return int(data) if isinstance(data, (bool, int, np.integer)) else None


def prefix_mask(length: int, width: int) -> int:
    """The ``width``-bit mask selecting the top ``length`` bits."""
    if not 0 <= length <= width:
        raise ValueError(f"length {length} outside [0, {width}]")
    return ((1 << length) - 1) << (width - length)
