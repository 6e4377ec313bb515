"""Ablations of the design choices DESIGN.md calls out.

Each test isolates one idiom or parameter and quantifies its effect on
the chip mappings:

* RESAIL min_bmp sweep (I7 parallelism vs SRAM, §3.1 item 4);
* d-left provisioning overhead (I3's 25% memory penalty);
* MASHUP hybridization threshold (I1/I2's 3x rule);
* MASHUP coalescing on/off (I5 fragmentation);
* BSIC memory fan-out vs DXR single table vs per-level duplication (I8);
* MASHUP stride choice: spike-guided vs uniform (I4).
"""

from _bench_utils import emit

from repro.algorithms import Dxr, Mashup
from repro.algorithms.resail import resail_layout_from_distribution
from repro.analysis import Table
from repro.chip import map_to_ideal_rmt
from repro.core.units import SRAM_PAGE_BITS, format_bits
from repro.datasets import ipv4_length_distribution
from repro.memory import dleft_cells


def test_ablation_resail_min_bmp(benchmark):
    """More bitmaps = more parallel lookups but less prefix expansion.

    Analytic (length-histogram) sweep, always at full AS65000 scale.
    """
    dist = ipv4_length_distribution(1.0)

    def sweep():
        return {
            mb: map_to_ideal_rmt(resail_layout_from_distribution(dist, mb))
            for mb in (0, 8, 13, 16, 20)
        }

    mappings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table("Ablation: RESAIL min_bmp (ideal RMT)",
                  ["min_bmp", "Parallel bitmap lookups", "SRAM pages", "Stages"])
    for mb, mapping in mappings.items():
        table.add_row(mb, 25 - mb, mapping.sram_pages, mapping.stages)
    emit("ablation_resail_min_bmp", table.render())

    # Expansion kicks in once min_bmp passes the populated lengths.
    assert mappings[20].sram_pages > mappings[13].sram_pages
    # Bitmap memory dominates at the low end: dropping below 13 buys
    # nothing (the paper picks 13 because of P2).
    assert mappings[0].sram_pages >= mappings[13].sram_pages


def test_ablation_dleft_overhead(benchmark):
    """I3: the d-left 25% penalty vs perfect hashing vs 2x chaining."""
    entries = 1_000_000

    def sweep():
        return {ov: dleft_cells(entries, ov) for ov in (0.0, 0.25, 1.0)}

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bits = {ov: c * 33 for ov, c in cells.items()}
    table = Table("Ablation: hash-table provisioning for 1M next hops",
                  ["Overhead", "Cells", "SRAM"])
    for ov, c in cells.items():
        table.add_row(f"{ov:.0%}", c, format_bits(bits[ov]))
    emit("ablation_dleft", table.render())
    assert bits[0.25] == 1.25 * bits[0.0]


def test_ablation_mashup_hybridization(benchmark, fib_v4, full_scale):
    """I1/I2: the 3x rule vs all-SRAM and all-TCAM renderings."""
    def sweep():
        out = {}
        for label, factor in [("all-TCAM (c=0)", 0), ("hybrid (c=3)", 3),
                              ("all-SRAM (c=inf)", 10**9)]:
            mashup = Mashup(fib_v4, (16, 4, 4, 8), area_factor=factor)
            out[label] = map_to_ideal_rmt(mashup.layout())
        return out

    mappings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table("Ablation: MASHUP node hybridization (ideal RMT)",
                  ["Rendering", "TCAM blocks", "SRAM pages"])
    for label, mapping in mappings.items():
        table.add_row(label, mapping.tcam_blocks, mapping.sram_pages)
    emit("ablation_mashup_hybrid", table.render())

    hybrid = mappings["hybrid (c=3)"]
    all_sram = mappings["all-SRAM (c=inf)"]
    all_tcam = mappings["all-TCAM (c=0)"]
    assert hybrid.sram_pages < all_sram.sram_pages
    assert hybrid.tcam_blocks < all_tcam.tcam_blocks
    if full_scale:
        # The hybrid slashes both extremes' dominant resource...
        assert hybrid.sram_pages < 0.75 * all_sram.sram_pages
        assert hybrid.tcam_blocks < 0.25 * all_tcam.tcam_blocks
        # ...and its weighted area (TCAM = 3x SRAM/bit) is never
        # meaningfully worse than the better extreme.
        def area(m):
            return 3 * m.tcam_blocks * 44 * 512 + m.sram_pages * SRAM_PAGE_BITS
        assert area(hybrid) <= 1.1 * min(area(all_sram), area(all_tcam))


def test_ablation_mashup_coalescing(benchmark, fib_v4):
    """I5: tagged super-tables vs one physical table per trie node."""
    def build():
        return {
            "coalesced": map_to_ideal_rmt(Mashup(fib_v4, coalesce=True).layout()),
            "fragmented": map_to_ideal_rmt(Mashup(fib_v4, coalesce=False).layout()),
        }

    mappings = benchmark.pedantic(build, rounds=1, iterations=1)
    table = Table("Ablation: MASHUP table coalescing (ideal RMT)",
                  ["Packing", "TCAM blocks", "SRAM pages"])
    for label, mapping in mappings.items():
        table.add_row(label, mapping.tcam_blocks, mapping.sram_pages)
    emit("ablation_mashup_coalesce", table.render())
    assert (mappings["fragmented"].tcam_blocks
            > 3 * mappings["coalesced"].tcam_blocks)


def test_ablation_bsic_fanout_vs_dxr(benchmark, dxr_v4, bsic_v4):
    """I8: fan-out's memory cost vs the infeasible duplication option.

    Paper §4.1: DXR's single range table 2.97 MB; BSIC's fanned-out BST
    levels 8.64 MB (~2.9x); duplicating the range table per level
    26.73 MB (9x) — which is why fan-out, not duplication, is the
    RMT-legal rendering.
    """
    def build():
        # Range structures only (both schemes share an initial table).
        single = len(dxr_v4.ranges) * (dxr_v4.suffix_bits + 8)
        duplicated = dxr_v4.search_depth * single
        fanout = sum(bsic_v4.level_sizes()) * bsic_v4.node_entry_bits
        return single, fanout, duplicated

    single, fanout, duplicated = benchmark.pedantic(build, rounds=1, iterations=1)
    table = Table("Ablation: range-table renderings (IPv4, k=16)",
                  ["Rendering", "SRAM", "Relative"])
    table.add_row("DXR single table (illegal on RMT)", format_bits(single), "1.0x")
    table.add_row("BSIC fan-out (I8)", format_bits(fanout),
                  f"{fanout / single:.1f}x")
    table.add_row("Duplicated per level", format_bits(duplicated),
                  f"{duplicated / single:.1f}x")
    emit("ablation_bsic_fanout", table.render())
    assert single < fanout < duplicated


def test_ablation_mashup_strides(benchmark, fib_v4, full_scale):
    """I4: spike-mirroring strides vs uniform 8-8-8-8."""
    def build():
        return {
            "16-4-4-8 (spike-guided)": map_to_ideal_rmt(
                Mashup(fib_v4, (16, 4, 4, 8)).layout()),
            "8-8-8-8 (uniform)": map_to_ideal_rmt(
                Mashup(fib_v4, (8, 8, 8, 8)).layout()),
        }

    mappings = benchmark.pedantic(build, rounds=1, iterations=1)
    table = Table("Ablation: MASHUP stride choice (ideal RMT)",
                  ["Strides", "TCAM blocks", "SRAM pages"])
    for label, mapping in mappings.items():
        table.add_row(label, mapping.tcam_blocks, mapping.sram_pages)
    emit("ablation_mashup_strides", table.render())

    if full_scale:
        guided = mappings["16-4-4-8 (spike-guided)"]
        uniform = mappings["8-8-8-8 (uniform)"]
        def area(m):
            return 3 * m.tcam_blocks * 44 * 512 + m.sram_pages * SRAM_PAGE_BITS
        assert area(guided) < area(uniform)
