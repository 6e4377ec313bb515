"""Prefix-to-range expansion (DXR [89], paper Appendix A.4).

Range-based IP lookup turns a set of prefixes over an ``m``-bit space
into a sorted list of contiguous, non-overlapping intervals that cover
the whole space, where each interval's next hop is the longest-prefix
match of every address inside it.  Finding the LPM of an address then
reduces to finding the interval containing it — a binary search over
the interval *left endpoints* (right endpoints are implied by the next
left endpoint and are discarded, DXR optimization 2).  Adjacent
intervals with the same next hop are merged (DXR optimization 1).

Intervals not covered by any prefix "inherit" a caller-supplied default
next hop; in BSIC this is the longest match of the initial-table slice
itself, so an address mis-directed to a BST by the initial TCAM still
lands on its correct next hop (Appendix A.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .prefix import Prefix
from .trie import BinaryTrie


@dataclass(frozen=True)
class RangeEntry:
    """One interval of the completed range table.

    ``left`` is the interval's left endpoint; the right endpoint is one
    less than the next entry's ``left`` (or the top of the space for
    the last entry).  ``next_hop`` is ``None`` for uncovered intervals
    whose inherited default is also absent (the paper's "-").
    """

    left: int
    next_hop: Optional[int]


def expand_to_ranges(
    entries: Iterable[Tuple[Prefix, int]],
    width: int,
    default_hop: Optional[int] = None,
) -> List[RangeEntry]:
    """Build the complete, merged, left-endpoint range table.

    ``entries`` are prefixes over a ``width``-bit space (for BSIC these
    are the *remaining* bits after the initial k-bit slice).  The result
    always covers ``[0, 2**width)`` and always has at least one entry.

    Reproduces Table 13 of the paper for its Table 3 example.
    """
    # Last binding of a prefix wins, as in a FIB.
    bound: Dict[Tuple[int, int], int] = {}
    for prefix, hop in entries:
        if prefix.width != width:
            raise ValueError(
                f"prefix width {prefix.width} does not match range space {width}"
            )
        bound[(prefix.value, prefix.length)] = hop
    rows = [(first, length, hop)
            for (first, length), hop in sorted(bound.items())]
    lefts, hops = sweep_ranges(rows, width, default_hop)
    return [RangeEntry(left, hop) for left, hop in zip(lefts, hops)]


def sweep_ranges(
    rows: Sequence[Tuple[int, int, Optional[int]]],
    width: int,
    default_hop: Optional[int] = None,
) -> Tuple[List[int], List[Optional[int]]]:
    """:func:`expand_to_ranges` as two parallel lists, left endpoints
    and hops, for a caller that builds arrays of them: no object per
    range.  ``rows`` are prefixes over a ``width``-bit space as
    ``(first address, length, hop)``, one per prefix, sorted."""
    lefts: List[int] = []
    hops: List[Optional[int]] = []

    def emit(left: int, hop: Optional[int]) -> None:
        if lefts and lefts[-1] == left:
            lefts.pop()  # a prefix opens exactly where another closed
            hops.pop()
        if hops and hops[-1] == hop:
            return  # DXR optimization 1: merge equal neighbours
        lefts.append(left)
        hops.append(hop)

    # One left-to-right sweep.  Prefixes nest or are disjoint, so the
    # ones covering the sweep point form a stack, innermost (longest,
    # the LPM) on top; sorting by (first address, length) opens an
    # enclosing prefix before the ones inside it.
    top = 1 << width
    emit(0, default_hop)
    ends: List[int] = []  # the covering prefixes' ends, and their hops
    covering: List[Optional[int]] = []
    for first, length, hop in rows:
        while ends and ends[-1] <= first:
            end = ends.pop()
            covering.pop()
            emit(end, covering[-1] if covering else default_hop)
        emit(first, hop)
        ends.append(first + (1 << (width - length)))
        covering.append(hop)
    while ends:
        end = ends.pop()
        covering.pop()
        if end < top:
            emit(end, covering[-1] if covering else default_hop)
    return lefts, hops


class SliceIndex:
    """A prefix database cut at bit ``k``: what DXR and BSIC keep
    beside their lookup tables so that an update re-derives only the
    slices it touches (Appendix A.3.2's auxiliary database).

    Prefixes of length <= ``k`` live in a trie and supply every slice's
    inherited default; longer ones are grouped by their first ``k``
    bits and held as suffixes over the remaining ``width - k`` bits,
    ready for :func:`expand_to_ranges`.
    """

    def __init__(self, width: int, k: int,
                 entries: Iterable[Tuple[Prefix, int]] = ()):
        self.width = width
        self.k = k
        self.suffix_bits = width - k
        #: Prefixes of length <= k (the slice defaults).
        self.shorts = BinaryTrie(width)
        #: slice -> {(suffix bits, suffix length): (suffix, hop)}.
        self.groups: Dict[int, Dict[Tuple[int, int], Tuple[Prefix, int]]] = {}
        for prefix, hop in entries:
            self.announce(prefix, hop)

    def suffix_of(self, prefix: Prefix) -> Prefix:
        """A long prefix's suffix in the (width - k)-bit space."""
        length = prefix.length - self.k
        return Prefix.from_bits(prefix.bits & ((1 << length) - 1), length,
                                self.suffix_bits)

    def announce(self, prefix: Prefix, hop: int) -> None:
        """Bind (or re-bind) ``prefix`` to ``hop``."""
        if prefix.length <= self.k:
            self.shorts.insert(prefix, hop)
            return
        suffix = self.suffix_of(prefix)
        self.groups.setdefault(prefix.slice(0, self.k), {})[
            (suffix.bits, suffix.length)] = (suffix, hop)

    def withdraw(self, prefix: Prefix) -> None:
        """Drop ``prefix``; ``KeyError`` if it is not bound."""
        if prefix.length <= self.k:
            self.shorts.delete(prefix)
            return
        slice_bits = prefix.slice(0, self.k)
        suffix = self.suffix_of(prefix)
        group = self.groups.get(slice_bits, {})
        if (suffix.bits, suffix.length) not in group:
            raise KeyError(str(prefix))
        del group[(suffix.bits, suffix.length)]
        if not group:
            del self.groups[slice_bits]

    def default(self, slice_bits: int) -> Optional[int]:
        """The slice's own longest match among the short prefixes."""
        return self.shorts.lookup(slice_bits << self.suffix_bits)

    def section(self, slice_bits: int) -> Optional[List[RangeEntry]]:
        """The slice's completed range table, or ``None`` when it holds
        no long prefix (its default then answers for the whole slice)."""
        group = self.groups.get(slice_bits)
        if not group:
            return None
        return expand_to_ranges(group.values(), self.suffix_bits,
                                default_hop=self.default(slice_bits))

    def covered(self, prefix: Prefix) -> range:
        """The slices under a prefix of length <= k."""
        span = self.k - prefix.length
        return range(prefix.bits << span, (prefix.bits + 1) << span)

    def grouped_under(self, prefix: Prefix) -> List[int]:
        """The covered slices that hold long prefixes — the only ones
        whose range tables inherit ``prefix``'s hop."""
        covered = self.covered(prefix)
        if 1 << (self.k - prefix.length) <= len(self.groups):
            return [s for s in covered if s in self.groups]
        return [s for s in self.groups if s in covered]


def lookup_ranges(table: List[RangeEntry], key: int) -> Optional[int]:
    """Reference binary search over a merged range table."""
    lo, hi = 0, len(table) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if table[mid].left == key:
            return table[mid].next_hop
        if table[mid].left < key:
            best = table[mid].next_hop
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def ranges_to_bst(table: List[RangeEntry]) -> "BstNode":
    """Build a balanced BST from the left endpoints (paper Figure 12).

    The median endpoint becomes the root so the tree depth is
    ``ceil(log2(n + 1))`` — the quantity that determines BSIC's number
    of BST levels, and hence its steps/stages.
    """
    if not table:
        raise ValueError("range table must be non-empty")

    def build(lo: int, hi: int) -> Optional[BstNode]:
        if lo > hi:
            return None
        mid = (lo + hi) // 2
        entry = table[mid]
        return BstNode(
            left_endpoint=entry.left,
            next_hop=entry.next_hop,
            left=build(lo, mid - 1),
            right=build(mid + 1, hi),
        )

    return build(0, len(table) - 1)


@dataclass
class BstNode:
    """A node of the range BST: endpoint, hop, and two children."""

    left_endpoint: int
    next_hop: Optional[int]
    left: Optional["BstNode"]
    right: Optional["BstNode"]

    def depth(self) -> int:
        """Height of the subtree in nodes (a leaf has depth 1)."""
        left = self.left.depth() if self.left else 0
        right = self.right.depth() if self.right else 0
        return 1 + max(left, right)

    def size(self) -> int:
        left = self.left.size() if self.left else 0
        right = self.right.size() if self.right else 0
        return 1 + left + right

    def search(self, key: int) -> Optional[int]:
        """Reference BST search (Algorithm 2's inner loop)."""
        node: Optional[BstNode] = self
        best: Optional[int] = None
        while node is not None:
            if key == node.left_endpoint:
                return node.next_hop
            if key > node.left_endpoint:
                best = node.next_hop
                node = node.right
            else:
                node = node.left
        return best

    def level_sizes(self) -> List[int]:
        """Number of nodes at each level (level 0 is the root)."""
        sizes: List[int] = []
        frontier = [self]
        while frontier:
            sizes.append(len(frontier))
            nxt: List[BstNode] = []
            for node in frontier:
                if node.left:
                    nxt.append(node.left)
                if node.right:
                    nxt.append(node.right)
            frontier = nxt
        return sizes
