"""Binary (unibit) trie with longest-prefix match.

This is the package's reference LPM implementation: every production
algorithm (RESAIL, BSIC, MASHUP, and the baselines) is tested against
it.  It is also the canonical in-memory form of a forwarding table
(:class:`Fib`), from which the algorithms build their hardware-shaped
structures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .prefix import Prefix


class BinaryTrie:
    """A unibit trie mapping prefixes to next hops.

    Next hops are small non-negative integers (port identifiers), as in
    the paper's Table 1 where they are letters A–D.

    Nodes are rows of three parallel lists rather than objects: child
    row numbers (``0`` = no child, the root being row 0) and the bound
    next hop (``None`` = no entry here).  A table-sized trie is then
    three containers, not a quarter of a million garbage-collected
    ones, and :meth:`copy` is three list copies.
    """

    def __init__(self, width: int):
        self.width = width
        self._zero: List[int] = [0]
        self._one: List[int] = [0]
        self._hops: List[Optional[int]] = [None]
        #: Rows pruned by :meth:`delete`, reused by :meth:`insert`.
        self._free: List[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix) is not None

    def copy(self) -> "BinaryTrie":
        """An independent trie with the same bindings."""
        twin = BinaryTrie.__new__(BinaryTrie)
        twin.width = self.width
        twin._zero = self._zero.copy()
        twin._one = self._one.copy()
        twin._hops = self._hops.copy()
        twin._free = self._free.copy()
        twin._count = self._count
        return twin

    def node_count(self) -> int:
        """Live trie nodes, the root included."""
        return len(self._hops) - len(self._free)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        """Insert or overwrite a prefix→next-hop binding."""
        self._check(prefix)
        if next_hop is None:
            raise ValueError("a binding needs a next hop")
        kids = (self._zero, self._one)
        hops = self._hops
        free = self._free
        bits = prefix.bits
        node = 0
        for shift in range(prefix.length - 1, -1, -1):
            side = kids[(bits >> shift) & 1]
            child = side[node]
            if not child:
                if free:
                    child = free.pop()
                else:
                    child = len(hops)
                    kids[0].append(0)
                    kids[1].append(0)
                    hops.append(None)
                side[node] = child
            node = child
        if hops[node] is None:
            self._count += 1
        hops[node] = next_hop

    def delete(self, prefix: Prefix) -> None:
        """Remove a prefix; raises ``KeyError`` if absent.

        Emptied nodes are pruned so the trie's node count tracks the
        live database (this matters for long sequences of incremental
        updates).
        """
        self._check(prefix)
        kids = (self._zero, self._one)
        hops = self._hops
        bits = prefix.bits
        path: List[Tuple[int, List[int]]] = []
        node = 0
        for shift in range(prefix.length - 1, -1, -1):
            side = kids[(bits >> shift) & 1]
            child = side[node]
            if not child:
                raise KeyError(str(prefix))
            path.append((node, side))
            node = child
        if hops[node] is None:
            raise KeyError(str(prefix))
        hops[node] = None
        self._count -= 1
        for parent, side in reversed(path):
            child = side[parent]
            if hops[child] is not None or kids[0][child] or kids[1][child]:
                break
            side[parent] = 0
            self._free.append(child)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _longest(self, address: int) -> Tuple[Optional[int], int]:
        """``(next hop, length)`` of the longest match (hop None: miss)."""
        kids = (self._zero, self._one)
        hops = self._hops
        best, best_len = hops[0], 0
        node = 0
        for shift in range(self.width - 1, -1, -1):
            node = kids[(address >> shift) & 1][node]
            if not node:
                break
            hop = hops[node]
            if hop is not None:
                best, best_len = hop, self.width - shift
        return best, best_len

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix-match next hop for ``address``, or ``None``."""
        return self._longest(address)[0]

    def lookup_prefix(self, address: int) -> Optional[Prefix]:
        """The longest matching *prefix* for ``address``, or ``None``."""
        hop, best_len = self._longest(address)
        if hop is None:
            return None
        host_bits = self.width - best_len
        return Prefix((address >> host_bits) << host_bits, best_len, self.width)

    def get(self, prefix: Prefix) -> Optional[int]:
        """Exact-prefix next hop (no LPM), or ``None``."""
        self._check(prefix)
        kids = (self._zero, self._one)
        bits = prefix.bits
        node = 0
        for shift in range(prefix.length - 1, -1, -1):
            node = kids[(bits >> shift) & 1][node]
            if not node:
                return None
        return self._hops[node]

    def items(self) -> Iterator[Tuple[Prefix, int]]:
        """All (prefix, next hop) bindings, in (value, length) order."""
        stack: List[Tuple[int, int, int]] = [(0, 0, 0)]
        out: List[Tuple[Prefix, int]] = []
        while stack:
            node, bits, depth = stack.pop()
            hop = self._hops[node]
            if hop is not None:
                out.append((Prefix.from_bits(bits, depth, self.width), hop))
            for bit, side in enumerate((self._zero, self._one)):
                child = side[node]
                if child:
                    stack.append((child, (bits << 1) | bit, depth + 1))
        out.sort(key=lambda item: (item[0].value, item[0].length))
        return iter(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(self, prefix: Prefix) -> None:
        if prefix.width != self.width:
            raise ValueError(
                f"prefix width {prefix.width} does not match trie width {self.width}"
            )


class Fib:
    """A forwarding information base: an ordered prefix→next-hop map.

    ``Fib`` is the input type of every lookup-algorithm constructor in
    :mod:`repro.algorithms`.  It wraps a :class:`BinaryTrie` (the
    reference LPM) and keeps a plain dict for fast exact access and
    iteration.
    """

    def __init__(self, width: int, entries: Iterable[Tuple[Prefix, int]] = ()):
        self.width = width
        self._trie = BinaryTrie(width)
        self._entries: Dict[Prefix, int] = {}
        for prefix, hop in entries:
            self.insert(prefix, hop)

    def copy(self) -> "Fib":
        """An independent table with the same routes: a structural
        copy, no per-prefix re-insertion."""
        twin = Fib.__new__(Fib)
        twin.width = self.width
        twin._trie = self._trie.copy()
        twin._entries = self._entries.copy()
        return twin

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._entries

    def __iter__(self) -> Iterator[Tuple[Prefix, int]]:
        return iter(sorted(self._entries.items(), key=lambda kv: (kv[0].value, kv[0].length)))

    def insert(self, prefix: Prefix, next_hop: int) -> None:
        if prefix.width != self.width:
            raise ValueError(
                f"prefix width {prefix.width} does not match FIB width {self.width}"
            )
        if next_hop < 0:
            raise ValueError("next hops are non-negative port identifiers")
        self._trie.insert(prefix, next_hop)
        self._entries[prefix] = next_hop

    def delete(self, prefix: Prefix) -> None:
        self._trie.delete(prefix)
        del self._entries[prefix]

    def get(self, prefix: Prefix) -> Optional[int]:
        return self._entries.get(prefix)

    def lookup(self, address: int) -> Optional[int]:
        """Reference longest-prefix-match lookup."""
        return self._trie.lookup(address)

    def lookup_prefix(self, address: int) -> Optional[Prefix]:
        return self._trie.lookup_prefix(address)

    def prefixes(self) -> List[Prefix]:
        return [p for p, _ in self]

    def by_length(self) -> Dict[int, List[Tuple[Prefix, int]]]:
        """Entries grouped by prefix length (ascending lengths)."""
        grouped: Dict[int, List[Tuple[Prefix, int]]] = {}
        for prefix, hop in self:
            grouped.setdefault(prefix.length, []).append((prefix, hop))
        return dict(sorted(grouped.items()))

    def next_hops(self) -> List[int]:
        """The distinct next-hop identifiers in use, sorted."""
        return sorted(set(self._entries.values()))
