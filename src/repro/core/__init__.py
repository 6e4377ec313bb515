"""The CRAM model: tables, steps, programs, metrics, idioms, interpreter."""

from .idioms import (
    TCAM_AREA_FACTOR,
    Idiom,
    IdiomApplication,
    prefer_sram,
    tag_width,
)
from .codegen import estimate_p4_effort, generate_p4_sketch
from .interpreter import run, run_packet
from .metrics import CramMetrics, measure
from .plan import LookupPlan, PlanError, compile_plan
from .program import CramProgram, DependencyError
from .vector import (
    MISS_HOP,
    VectorError,
    VectorPlan,
    VectorStepSpec,
    compile_vector_plan,
)
from .step import Assoc, Bin, Const, Reg, Statement, Step, Un
from .table import (
    MatchKind,
    TableSpec,
    direct_index_table,
    exact_table,
    register_table,
    ternary_table,
)
from .units import (
    KB,
    MB,
    SRAM_PAGE_BITS,
    SRAM_PAGE_WIDTH,
    SRAM_PAGE_WORDS,
    TCAM_BLOCK_BITS,
    TCAM_BLOCK_ENTRIES,
    TCAM_BLOCK_WIDTH,
    format_bits,
    sram_bits_to_pages,
    sram_pages_for_bits,
    sram_pages_for_table,
    tcam_bits_to_blocks,
    tcam_blocks_for_table,
)

__all__ = [
    "TCAM_AREA_FACTOR",
    "Idiom",
    "IdiomApplication",
    "prefer_sram",
    "tag_width",
    "estimate_p4_effort",
    "generate_p4_sketch",
    "run",
    "run_packet",
    "CramMetrics",
    "measure",
    "LookupPlan",
    "PlanError",
    "compile_plan",
    "MISS_HOP",
    "VectorError",
    "VectorPlan",
    "VectorStepSpec",
    "compile_vector_plan",
    "CramProgram",
    "DependencyError",
    "Assoc",
    "Bin",
    "Const",
    "Reg",
    "Statement",
    "Step",
    "Un",
    "MatchKind",
    "TableSpec",
    "direct_index_table",
    "exact_table",
    "register_table",
    "ternary_table",
    "KB",
    "MB",
    "SRAM_PAGE_BITS",
    "SRAM_PAGE_WIDTH",
    "SRAM_PAGE_WORDS",
    "TCAM_BLOCK_BITS",
    "TCAM_BLOCK_ENTRIES",
    "TCAM_BLOCK_WIDTH",
    "format_bits",
    "sram_bits_to_pages",
    "sram_pages_for_bits",
    "sram_pages_for_table",
    "tcam_bits_to_blocks",
    "tcam_blocks_for_table",
]
