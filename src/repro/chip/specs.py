"""Chip resource specifications.

The numbers here are the Tofino-2 figures the paper states or implies:

* 20 match-action stages (the "Tofino-2 Pipe Limit" rows of Tables 8/9
  give 480 TCAM blocks / 1600 SRAM pages / 20 stages),
* so 24 TCAM blocks and 80 SRAM pages per stage,
* TCAM blocks of 44 bits x 512 entries, SRAM pages of 128 bits x 1024
  words (§6.2).

The *ideal RMT chip* (§6.2) shares this geometry but achieves 100%
SRAM utilization and at least two dependent ALU operations per stage.
Tofino-2 itself reaches at most 50% SRAM word utilization (action
bits, §6.5.2) and one ALU level per stage (§6.5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import (
    SRAM_PAGE_BITS,
    TCAM_BLOCK_BITS,
    TCAM_BLOCK_WIDTH,
)


@dataclass(frozen=True)
class ChipSpec:
    """Static resource envelope of one RMT chip."""

    name: str
    stages: int
    tcam_blocks: int
    sram_pages: int
    alu_ops_per_stage: int
    sram_word_utilization: float
    supports_recirculation: bool = False

    @property
    def tcam_blocks_per_stage(self) -> int:
        return self.tcam_blocks // self.stages

    @property
    def sram_pages_per_stage(self) -> int:
        return self.sram_pages // self.stages

    @property
    def tcam_bits(self) -> int:
        return self.tcam_blocks * TCAM_BLOCK_BITS

    @property
    def sram_bits(self) -> int:
        return self.sram_pages * SRAM_PAGE_BITS


#: Tofino-2 geometry with perfect utilization and 2 dependent ALU ops
#: per stage — the paper's simulation target (§6.2).
IDEAL_RMT = ChipSpec(
    name="Ideal RMT",
    stages=20,
    tcam_blocks=480,
    sram_pages=1600,
    alu_ops_per_stage=2,
    sram_word_utilization=1.0,
)

#: Tofino-2 as implemented: action bits cap SRAM utilization at 50%,
#: one ALU level per stage, and packets can be recirculated to borrow
#: a second pass through the pipe at half the port throughput (§6.5.3).
TOFINO2 = ChipSpec(
    name="Tofino-2",
    stages=20,
    tcam_blocks=480,
    sram_pages=1600,
    alu_ops_per_stage=1,
    sram_word_utilization=0.5,
    supports_recirculation=True,
)

TOFINO2_TCAM_KEY_WIDTH = TCAM_BLOCK_WIDTH  # BSIC's max initial slice (§4.1)
