"""Logical TCAM: the TCAM-only baseline (§6.5.1).

One ternary entry per prefix, longest-prefix priority, single-step
lookup.  Simple and fast — and, as Tables 8/9 show, hopeless at scale:
Tofino-2's 480 blocks cap it at 245,760 IPv4 entries (one 44-bit block
column) or 122,880 IPv6 entries (64-bit keys need two block columns),
well short of today's global tables.
"""

from __future__ import annotations

from typing import Optional

from ..chip.layout import Layout, LogicalTable, MemoryKind, Phase
from ..core.program import CramProgram
from ..core.step import Step
from ..core.table import ternary_table
from ..core.units import TCAM_BLOCK_ENTRIES, TCAM_BLOCK_WIDTH
from ..memory.tcam import TcamTable
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .base import UPDATE_IN_PLACE, LookupAlgorithm

NEXT_HOP_BITS = 8


class LogicalTcam(LookupAlgorithm):
    """All prefixes in one priority-ordered ternary table."""

    update_strategy = UPDATE_IN_PLACE

    def __init__(self, fib: Fib):
        self.width = fib.width
        self.name = "Logical TCAM"
        self.table: TcamTable[int] = TcamTable(fib.width, name="fib")
        for prefix, hop in fib:
            self.table.insert_prefix(prefix, hop)

    def insert(self, prefix: Prefix, next_hop: int) -> None:
        self._check_prefix(prefix)
        self.table.insert_prefix(prefix, next_hop)

    def delete(self, prefix: Prefix) -> None:
        self._check_prefix(prefix)
        self.table.delete_prefix(prefix)

    def lookup(self, address: int) -> Optional[int]:
        self._check_address(address)
        return self.table.search(address)

    def cram_program(self) -> CramProgram:
        prog = CramProgram("Logical TCAM", registers=["addr", "hop"])
        spec = ternary_table(
            "fib", self.width, len(self.table), NEXT_HOP_BITS,
            key_selector=lambda s: s["addr"], backing=self.table,
        )
        prog.add_step(Step("match", table=spec, reads=["addr"], writes=["hop"],
                           action=lambda s, r: s.__setitem__("hop", r)))
        return prog

    def vector_specs(self, prev):
        """Lower the single priority match onto the TCAM's own vector
        view, hop register from the result.  Every row is a prefix, so
        the view is the table in range form and the match one floor
        search of the address, however many rows and lengths it holds
        (:meth:`~repro.memory.tcam.TcamTable.vector_reader`)."""
        from ..core.vector import VectorStepSpec, key_slice

        def match_update(lanes, vals, found, active):
            lanes.assign("hop", vals, none=~found)

        return {"match": VectorStepSpec(
            update=match_update,
            select=lambda lanes: (key_slice(lanes.values("addr")), None),
        )}

    def layout(self) -> Layout:
        return logical_tcam_layout(len(self.table), self.width, name=self.name)


def logical_tcam_layout(entries: int, width: int, name: str = "Logical TCAM") -> Layout:
    """Analytic layout for a logical TCAM of ``entries`` prefixes."""
    table = LogicalTable(
        "fib", MemoryKind.TCAM, entries=entries, key_width=width,
        data_width=NEXT_HOP_BITS,
    )
    return Layout(name, [Phase("match", [table], dependent_alu_ops=1)])


def logical_tcam_capacity(width: int, total_blocks: int = 480) -> int:
    """Max prefixes a chip's TCAM holds at this key width (§6.5.2/3)."""
    columns = -(-width // TCAM_BLOCK_WIDTH)
    return (total_blocks // columns) * TCAM_BLOCK_ENTRIES
