"""Skew-aware exact-match FIB cache.

The CRAM paper motivates FIB caching with traffic skew: a small number
of prefixes carries most traffic, so an exact-match cache in front of
the lookup structure absorbs the hot addresses at one hash probe each.
:class:`FibCache` is that cache:

* **LRU/LFU hybrid eviction.**  Entries live in recency order; on
  overflow the *least frequently used among the least recently used*
  is evicted (a bounded sample from the LRU end, lowest hit count
  first).  Pure LRU thrashes under scans; pure LFU never forgets; the
  hybrid keeps the skewed head resident while still ageing out cold
  entries deterministically.
* **Observability-native.**  The cache owns a
  :class:`repro.obs.AccessStats` (``collect_access_stats`` finds it
  like any other table), so cache hit rates and per-address hit
  tallies flow through the same accounting as TCAM/SRAM accesses.
* **Prefix invalidation.**  A route update only changes answers for
  addresses covered by the touched prefixes; :meth:`invalidate` drops
  precisely those entries.  :class:`repro.engine.BatchEngine` wires
  this into :class:`repro.control.ManagedFib` commits.

Negative answers (``None`` next hop — a FIB miss) are cached too: a
miss costs the full lookup walk, so hot non-routable addresses benefit
most.  ``probe`` therefore returns a ``(hit, hop)`` pair rather than
overloading ``None``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, List, Optional, Tuple

from ..obs.accounting import AccessStats
from ..prefix.prefix import Prefix

__all__ = ["FibCache"]


class FibCache:
    """Exact-match address -> next-hop cache with hybrid eviction."""

    def __init__(self, capacity: int, name: str = "fib-cache",
                 sample: int = 8):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if sample <= 0:
            raise ValueError("eviction sample must be positive")
        self.capacity = capacity
        self.name = name
        self.sample = sample
        #: Probes count as reads, insertions/invalidations as writes;
        #: per-address hit tallies when tracking is enabled.
        self.stats = AccessStats(name)
        # address -> [hop, hit_count], maintained in recency order
        # (least recently used first).
        self._entries: "OrderedDict[int, List]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: int) -> bool:
        return address in self._entries

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def probe(self, address: int) -> Tuple[bool, Optional[int]]:
        """``(hit, hop)`` — ``hop`` is meaningful only when ``hit``."""
        stats = self.stats
        stats.reads += 1
        entry = self._entries.get(address)
        if entry is None:
            stats.misses += 1
            return False, None
        stats.hits += 1
        if stats.hit_tally is not None:
            stats.hit_tally[address] += 1
        entry[1] += 1
        self._entries.move_to_end(address)
        return True, entry[0]

    def put(self, address: int, hop: Optional[int]) -> None:
        """Install (or refresh) an entry; evicts on overflow."""
        entries = self._entries
        self.stats.writes += 1
        entry = entries.get(address)
        if entry is not None:
            entry[0] = hop
            entries.move_to_end(address)
            return
        if len(entries) >= self.capacity:
            self._evict()
        entries[address] = [hop, 1]

    def _evict(self) -> None:
        """Drop the least-used entry among the ``sample`` oldest."""
        victim = None
        victim_count = None
        for i, (address, (_hop, count)) in enumerate(self._entries.items()):
            if victim is None or count < victim_count:
                victim, victim_count = address, count
            if i + 1 >= self.sample:
                break
        del self._entries[victim]
        self.stats.writes += 1

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def invalidate(self, prefixes: Iterable[Prefix]) -> int:
        """Drop every entry covered by any of ``prefixes``.

        This is the commit-time contract with the managed runtime: a
        landed batch can only change answers for addresses under its
        touched prefixes, so everything else stays cached.
        """
        prefixes = list(prefixes)
        if not prefixes:
            return 0
        doomed = [
            address for address in self._entries
            if any(prefix.matches(address) for prefix in prefixes)
        ]
        for address in doomed:
            del self._entries[address]
        self.stats.writes += len(doomed)
        return len(doomed)

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.writes += dropped
        return dropped

    def items(self) -> Iterator[Tuple[int, Optional[int]]]:
        """Cached ``(address, hop)`` pairs, LRU first (for tests)."""
        return ((address, entry[0]) for address, entry in self._entries.items())

    def hit_rate(self) -> float:
        return float(self.stats.hit_rate)
