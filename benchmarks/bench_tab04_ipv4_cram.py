"""Table 4: CRAM metrics for IPv4 (AS65000-like database).

Paper values: MASHUP(16-4-4-8) 0.31 MB TCAM / 5.92 MB SRAM / 4 steps;
BSIC(k=16) 0.07 MB / 8.64 MB / 10; RESAIL(min_bmp=13) 3.13 KB /
8.58 MB / 2.  RESAIL's row reproduces almost exactly (it depends only
on the length histogram); BSIC/MASHUP depend on prefix values and
reproduce in shape.
"""

import pytest

from _bench_utils import emit

from repro.analysis import cram_metrics_table, select_best
from repro.core import KB, MB


def test_tab04_ipv4_cram_metrics(benchmark, resail_v4, bsic_v4, mashup_v4,
                                 full_scale):
    rows = benchmark.pedantic(
        lambda: [(a.name, a.cram_metrics())
                 for a in (mashup_v4, bsic_v4, resail_v4)],
        rounds=1, iterations=1,
    )
    emit("tab04_ipv4_cram",
         cram_metrics_table("Table 4: CRAM metrics, IPv4 (AS65000)", rows).render(),
         values={
             name: {"tcam_bits": m.tcam_bits, "sram_bits": m.sram_bits,
                    "steps": m.steps}
             for name, m in rows
         })

    metrics = dict(rows)
    mashup = metrics[mashup_v4.name]
    bsic = metrics[bsic_v4.name]
    resail = metrics[resail_v4.name]

    # Step counts are structural and exact for RESAIL/MASHUP.
    assert resail.steps == 2
    assert mashup.steps == 4

    if full_scale:
        # RESAIL: 3.13 KB TCAM (800 long prefixes x 32b), 8.58 MB SRAM.
        assert resail.tcam_bits == 800 * 32
        assert resail.sram_bits == pytest.approx(8.58 * MB, rel=0.02)
        # Orderings the paper's §6.4 argument rests on:
        assert resail.tcam_bits * 50 < mashup.tcam_bits  # "100X more TCAM"
        assert mashup.sram_bits < resail.sram_bits * 1.45  # "1.4X more SRAM"
        assert bsic.tcam_bits < mashup.tcam_bits
        assert bsic.steps > mashup.steps > resail.steps

        # The §6.4 selection rule picks RESAIL for IPv4.
        winner, _ = select_best(rows)
        assert winner == resail_v4.name
