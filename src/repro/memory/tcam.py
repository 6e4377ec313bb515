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

from bisect import insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from ..core.vector import RangeView, key_dtype
from ..obs.accounting import AccessStats
from ..prefix.prefix import Prefix
from ..prefix.ranges import sweep_ranges
from .sram import FreezeLog

V = TypeVar("V")


@dataclass(frozen=True)
class TcamEntry(Generic[V]):
    """One ternary row: key ``value`` under ``mask``, with ``priority``."""

    value: int
    mask: int
    priority: int
    data: V


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
        #: — ``(priority, mask, value)`` — and a view handed back as
        #: ``prev`` re-derives just the keys under those rows.
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
        """Batch-search snapshot view for the lane compiler: the table
        in range form (:class:`RangeView`), or ``None`` — no kernel.

        A *prefix-shaped* table — every group's mask the top ``l`` bits,
        its priority ``key_width - l``, as :meth:`insert_prefix` writes —
        answers a key with its longest matching row: the floor of the
        key in the range form (Appendix A.4), left endpoints in
        :func:`key_dtype` ``(key_width)``.  Every TCAM of the nine
        schemes is one.  A classifier's (ranges as non-contiguous masks)
        is not and gets no view, nor does a table whose data ``encode``
        maps to ``None`` (without ``encode``: data that is not int-like).
        Given ``prev``, only the keys under the rows written since are
        re-derived and spliced into a copy of it; a view the log no
        longer reaches is rebuilt whole.
        """
        self.log.arm()
        tail = (self.log.tail(prev.version)
                if isinstance(prev, RangeView) else None)
        if tail == []:
            return prev
        width = self.key_width
        dtype = key_dtype(width)
        if dtype is None or not all(_prefix_shaped(priority, mask, width)
                                    for priority, mask in self._group_order):
            return None
        # The key intervals to re-derive: a written row's is the keys
        # under it.  Prefixes nest or are disjoint: widest first at each
        # start, the nested skipped.
        intervals = {(value, priority) for priority, mask, value in tail or ()
                     if _prefix_shaped(priority, mask, width)}
        if tail is None:  # rebuilt whole: one interval spliced into none
            prev = RangeView(*_columns([], [], dtype))
            intervals = {(0, width)}
        kept = []
        for lo, span in sorted(intervals, key=lambda i: (i[0], -i[1])):
            if not kept or lo >= kept[-1][1]:
                kept.append((lo, lo + (1 << span), span))
        # The keys past an interval keep their old range: a row at its
        # end carries the old floor there, unless the next interval or
        # the top of the key space begins at that key.
        starts = {lo for lo, _hi, _span in kept}
        ends = [hi for _lo, hi, _span in kept
                if hi >> width == 0 and hi not in starts]
        hops, none = prev.floor(np.array(ends, dtype=dtype))
        floors = {end: None if empty else hop for end, hop, empty
                  in zip(ends, hops.tolist(), none.tolist())}
        ranges = self._ranges(kept, encode, floors)
        if ranges is None:
            return None
        lefts, codes, counts = ranges
        columns = _columns(lefts, codes, dtype)
        cuts = [0, *accumulate(counts)]  # interval i's: cuts[i]:cuts[i+1]
        return self.log.stamp(prev.splice(
            [(lo, hi if hi in floors else hi - 1) for lo, hi, _span in kept],
            [tuple(column[start:stop] for column in columns)
             for start, stop in zip(cuts, cuts[1:])]).merged())

    def _ranges(self, intervals, encode, floors):
        """``(lefts, codes, counts)`` of the sorted, disjoint key
        intervals ``(lo, hi, span)``, ``hi = lo + 2**span``: each is
        :func:`~repro.prefix.ranges.sweep_ranges` of the group winners
        inside it, its default the longest row covering it all, and ends
        with a range at ``hi`` holding ``floors[hi]`` if there is one.
        A ``None`` code is no row, ``counts`` the ranges per interval;
        ``None`` when a row's data has no code.  A row costs one tuple:
        the set-up's full freeze of BSIC's v6 ``initial`` table sits
        near a cyclic-collector threshold."""
        order = [(priority, mask, self._groups[(priority, mask)])
                 for priority, mask in self._group_order]  # longest first
        lefts: List[int] = []
        codes: List[Optional[int]] = []
        counts: List[int] = []
        for lo, hi, span in intervals:
            rows, default = [], None
            for priority, mask, group in order:
                if priority > span:  # covers the whole interval
                    entry = group.get(lo & mask)
                    if entry is None:
                        continue
                    default = _encoded(entry.data, encode)
                    if default is None:
                        return None
                    break
                # Probe each candidate value, or scan the group if smaller.
                for value in (range(lo, hi, 1 << priority)
                              if 1 << (span - priority) <= len(group)
                              else group):
                    if lo <= value < hi and value in group:
                        code = _encoded(group[value].data, encode)
                        if code is None:
                            return None
                        rows.append((value - lo, span - priority, code))
            rows.sort()
            start = len(lefts)
            firsts, hops = sweep_ranges(rows, span, default)
            lefts.extend(lo + first for first in firsts)
            codes.extend(hops)
            if hi in floors:
                lefts.append(hi)
                codes.append(floors[hi])
            counts.append(len(lefts) - start)
        return lefts, codes, counts

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


def _prefix_shaped(priority: int, mask: int, width: int) -> bool:
    """A group of prefix rows: mask the top ``l`` bits, priority
    ``width - l``."""
    return 0 <= priority <= width and mask == (1 << width) - (1 << priority)


def _columns(lefts, codes, dtype) -> Tuple[np.ndarray, ...]:
    """Ranges as RangeView columns: a ``None`` code is no hop."""
    n = len(codes)
    return (np.fromiter(lefts, dtype, n),
            np.fromiter((code or 0 for code in codes), np.int64, n),
            np.fromiter((code is None for code in codes), bool, n))


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
