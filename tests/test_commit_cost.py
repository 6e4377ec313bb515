"""What a commit costs — as rows written, not milliseconds.

A commit should cost what it changes.  DXR and BSIC cut their table at
bit ``k`` and re-derive, per batch, only the slices its routes touch
(Appendix A.3.2); BSIC then points each slice's ``/k`` row of its
``initial`` TCAM at the slice's range section.  This file replays one
fixed churn stream through ``ManagedFib.apply_batch`` — 40 batches of 25
ops from ``ChurnGenerator(seed=5, profile=CALM)`` — over the
``v6-spread-churn-thread`` table (AS131072 at scale 0.05, BSIC k=24)
and over AS65000 at scale 0.01 (BSIC k=16), and pins what each batch
writes, counted the way ``test_vector_cost.py`` counts kernel calls:
the replay repeats exactly from run to run.

Measured with this harness (p50 / max per batch), with the BSTs stored
as a forest of node tuples and now implicit over the sections:

================  ===========  =============  ===========
figure            width        forest         implicit
================  ===========  =============  ===========
BSIC ``initial``  32           33 / 40        17 / 23
BSIC ``initial``  64           31.5 / 3,886   18 / 23
BSIC sections     32 and 64    25 / 25        25 / 25
DXR sections      32           25 / 32        25 / 32
DXR sections      64           25 / 25        25 / 25
================  ===========  =============  ===========

The forest's tail was its compaction: once dead nodes outnumbered live
ones every tree moved, and every ``/k`` row was rewritten to its new
root.  A row now names its slice; most of the 17-18 rows a batch
writes are announces that open a slice.  A section is one
``SliceIndex.section`` call, DXR's per op, BSIC's per dirty slice once
per batch.
"""

import statistics

import pytest

from repro.algorithms import Bsic, Dxr
from repro.control import ChurnGenerator, ManagedFib, RuntimePolicy
from repro.control.churn import CALM
from repro.datasets import synthesize_as65000, synthesize_as131072
from repro.prefix.ranges import SliceIndex

BATCHES, OPS, SEED = 40, 25, 5
TABLES = {32: lambda: synthesize_as65000(scale=0.01),
          64: lambda: synthesize_as131072(scale=0.05)}
MAKERS = {"bsic": lambda fib: Bsic(fib, k=16 if fib.width == 32 else 24),
          "dxr": lambda fib: Dxr(fib, k=16)}


@pytest.fixture(scope="module", params=sorted(TABLES), ids=lambda w: f"w{w}")
def replays(request):
    """Each scheme's replay of the stream over one table."""
    fib = TABLES[request.param]()
    with pytest.MonkeyPatch.context() as patch:
        return {name: replay(fib, name, patch) for name in MAKERS}


def replay(fib, name, patch):
    """The churn stream committed batch by batch: per batch, the
    sections re-derived and (BSIC) the ``initial`` rows written; and,
    every eighth batch, BSIC's level sizes beside a from-scratch
    build's."""
    calls = []
    section = SliceIndex.section

    def counted(self, slice_bits):
        calls.append(slice_bits)
        return section(self, slice_bits)

    patch.setattr(SliceIndex, "section", counted)
    managed = ManagedFib(MAKERS[name], fib,
                         policy=RuntimePolicy(check_every=0, guard_every=0))
    sections, writes, levels = [], [], []
    batches = ChurnGenerator(fib, seed=SEED, profile=CALM).batches(
        BATCHES * OPS, OPS)
    for i, batch in enumerate(batches, 1):
        del calls[:]
        before = managed.algo.initial.stats.writes if name == "bsic" else 0
        assert managed.apply_batch(batch) == "batch_applied"  # in place
        sections.append(len(calls))
        if name == "bsic":
            writes.append(managed.algo.initial.stats.writes - before)
            if i % 8 == 0:
                scratch = MAKERS[name](managed.oracle.copy())
                levels.append((managed.algo.level_sizes(),
                               scratch.level_sizes()))
    assert len(sections) == BATCHES
    return sections, writes, levels


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_sections_rederived_per_batch(replays, name):
    """A batch re-derives about one section per op: no compaction or
    re-plant sweeps the table."""
    sections, _writes, _levels = replays[name]
    assert statistics.median(sections) <= OPS
    assert max(sections) <= 2 * OPS, sections
    print(f"sections/batch {name}: "
          f"p50 {statistics.median(sections)} max {max(sections)}")


def test_bsic_initial_rows_written_per_batch(replays):
    """A re-derived slice keeps its ``/k`` row: only a slice that gains
    or loses its section, or a short route, writes one, so no batch of
    the stream writes over four times the median."""
    _sections, writes, _levels = replays["bsic"]
    p50 = statistics.median(writes)
    assert p50 <= OPS
    assert max(writes) <= 4 * p50, (p50, max(writes))
    print(f"initial rows/batch: p50 {p50} max {max(writes)}")


def test_bsic_level_sizes_equal_a_scratch_build(replays):
    """The level sizes BSIC computes from its section lengths equal a
    from-scratch build's: the per-length counts track every section
    re-derived or dropped."""
    _sections, _writes, levels = replays["bsic"]
    assert len(levels) == BATCHES // 8
    for computed, scratch in levels:
        assert computed == scratch
