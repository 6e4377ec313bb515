"""Commit deltas: the net effect of a landed update batch.

A :class:`FibDelta` is the *validated, staged* form of an update
batch — one :class:`DeltaOp` per accepted operation, each carrying the
previous next hop so the whole delta can be undone in place.  It is
the currency of the incremental commit pipeline:

* :class:`~repro.control.runtime.ManagedFib` builds one per batch and
  applies it through ``algo.apply_delta_op`` instead of rebuilding,
  undoing partial progress via :meth:`DeltaOp.inverse` when a fault
  interrupts the batch;
* :class:`~repro.engine.BatchEngine` takes it as the signal to patch
  its vector plan — a compile handed the old views, into which each
  table replays the writes the delta logged — instead of recompiling;
* :class:`~repro.server.procpool.ForkedReplica` ships its
  :meth:`FibDelta.wire_ops` net effect to its child instead of a
  whole-FIB snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..prefix.prefix import Prefix
from .churn import ANNOUNCE, WITHDRAW

__all__ = ["DeltaOp", "FibDelta"]


@dataclass(frozen=True)
class DeltaOp:
    """One accepted route update, with enough state to undo it.

    ``prev_hop`` is the next hop the prefix had *before* this op (None
    if it was absent) — captured at validation time from the staged
    oracle, exactly like the runtime's undo journal.
    """

    action: str  # ANNOUNCE or WITHDRAW
    prefix: Prefix
    next_hop: Optional[int] = None  # the new hop (ANNOUNCE only)
    prev_hop: Optional[int] = None  # the hop before this op (None = absent)

    def inverse(self) -> "DeltaOp":
        """The op that exactly undoes this one."""
        if self.prev_hop is None:
            # The prefix did not exist before: undo by withdrawing it.
            return DeltaOp(WITHDRAW, self.prefix, prev_hop=self.next_hop)
        # It existed with prev_hop: undo by re-announcing that hop.
        prev = self.next_hop if self.action == ANNOUNCE else None
        return DeltaOp(ANNOUNCE, self.prefix, next_hop=self.prev_hop,
                       prev_hop=prev)

    def render(self) -> str:
        if self.action == ANNOUNCE:
            return f"+{self.prefix}->{self.next_hop}"
        return f"-{self.prefix}"


class FibDelta:
    """The ordered list of accepted ops in one committed batch."""

    __slots__ = ("ops",)

    def __init__(self, ops: Sequence[DeltaOp]):
        self.ops: Tuple[DeltaOp, ...] = tuple(ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[DeltaOp]:
        return iter(self.ops)

    def __repr__(self) -> str:
        body = ", ".join(op.render() for op in self.ops[:4])
        if len(self.ops) > 4:
            body += f", … ({len(self.ops)} ops)"
        return f"FibDelta([{body}])"

    def inverse(self) -> "FibDelta":
        """The delta that exactly undoes this one (reverse order)."""
        return FibDelta([op.inverse() for op in reversed(self.ops)])

    def prefixes(self) -> Set[Prefix]:
        """Every prefix this delta touches."""
        return {op.prefix for op in self.ops}

    def wire_ops(self) -> List[Tuple[int, int, Optional[int]]]:
        """The delta's *net* effect as picklable (bits, length, hop) triples.

        ``hop is None`` means the prefix ends up absent.  The last op
        per prefix wins; prefixes whose final state equals their state
        before the batch are dropped entirely.  This is what ships to
        process workers — order-independent, idempotent to apply.
        """
        first_prev: dict = {}
        final: dict = {}
        for op in self.ops:
            key = (op.prefix.bits, op.prefix.length)
            if key not in first_prev:
                first_prev[key] = op.prev_hop
            final[key] = op.next_hop if op.action == ANNOUNCE else None
        out: List[Tuple[int, int, Optional[int]]] = []
        for key in sorted(final):
            if final[key] != first_prev[key]:
                out.append((key[0], key[1], final[key]))
        return out
