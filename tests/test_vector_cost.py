"""What a lane-kernel batch costs — as a count, not a timing.

A batch should cost what its CRAM program costs: a handful of wide
array passes per step (ISSUE 19).  The number of profile-visible calls
one ``VectorPlan.lookup_batch`` makes is the fixed cost every flush
pays — it is the same at 16 addresses as at 512 — and, at
``max_batch=512``, just past NumPy's 500-element GIL-release threshold,
also the number of GIL handoffs a thread worker offers its neighbour.
This file pins it with ``sys.setprofile`` the way
``test_server_cost.py`` pins the frontend: every Python-level ``call``
and builtin ``c_call`` of one batch, for all nine schemes over the
``throughput_vector`` table (AS65000 at scale 0.01, ``mixed_addresses``
seed 21), which repeats exactly from run to run.  (Ufunc calls and
operators are invisible to the profiler, so the count is a floor on the
array passes, not a census.)

Measured with this harness (CPython 3.11, NumPy 2.4; batch 16 / 512).
"range form" is every table that can be one floor search being one:
the four prefix TCAMs (LTCAM's ``fib``, BSIC's ``initial``, RESAIL's
look-aside, MASHUP's ``tcam_L*``) answered by ``RangeView``, and
HI-BST's ancestor resolve one ``searchsorted``:

========  ===========  ===========  ===========
scheme    PR 17        PR 19        range form
========  ===========  ===========  ===========
resail    304 / 304     83 / 83      82 / 82
sail      737 / 737    502 / 502    503 / 503
mashup    652 / 676    473 / 485    433 / 433
bsic      212 / 212    155 / 155     40 / 40
ltcam     194 / 194     95 / 95      20 / 20
dxr       123 / 123     98 / 98      36 / 36
poptrie    90 / 90      78 / 78      83 / 83
multibit   84 / 84      86 / 86      91 / 91
hibst     334 / 346    327 / 339    324 / 324
========  ===========  ===========  ===========

Before the range form the TCAMs were general ternary memory: a
``lanes x rows`` masked compare for a table of at most 128 rows, one
sorted probe per ``(priority, mask)`` group beyond that.  Measured
beside the range form on this table, that cost BSIC 65 / 65, LTCAM
97 / 97, MASHUP 482 / 494, HI-BST 329 / 341 and RESAIL 84 / 84.
BSIC's and DXR's BST walk and binary search had already become one
floor search, measured beside the per-level walk they replaced:

========  ============  ============
scheme    level walk    floor search
========  ============  ============
bsic      158 / 158      65 / 65
dxr       100 / 100      36 / 36
========  ============  ============

RESAIL — the served scheme — is gated at a third of its PR 17 count:
its parallel level is one gather per bitmap into a shared lane matrix,
its hash step one reduction, one key and one probe.  LTCAM and BSIC
are gated at 40 and 50, DXR at 55: a sorted range table is one
``searchsorted``, whatever the TCAM's row count or the tree's depth.
MASHUP and HI-BST are gated at their range-form counts plus ~15 %,
below the budgets they had before.  The rest are pinned where the
adopt-on-write register file left them (measured + ~15 %).  HI-BST's
cost is its per-level descent; its ancestor resolve and the arrays it
reads are built at compile time, so the first batch pays no more than
the others.  (The count stays one of a warm plan: the test looks up
once before it counts.)
"""

import numpy as np
import pytest

from repro.algorithms import (
    Bsic,
    Dxr,
    HiBst,
    LogicalTcam,
    Mashup,
    MultibitTrie,
    Poptrie,
    Resail,
    Sail,
)
from repro.core import compile_vector_plan
from repro.datasets import mixed_addresses, synthesize_as65000

from test_server_cost import count_calls

MAKERS = {
    "resail": lambda fib: Resail(fib, min_bmp=13),
    "sail": lambda fib: Sail(fib),
    "mashup": lambda fib: Mashup(fib),
    "bsic": lambda fib: Bsic(fib, k=16),
    "ltcam": lambda fib: LogicalTcam(fib),
    "dxr": lambda fib: Dxr(fib, k=16),
    "poptrie": lambda fib: Poptrie(fib, dp_bits=16),
    "multibit": lambda fib: MultibitTrie(fib, [16, 4, 4, 8]),
    "hibst": lambda fib: HiBst(fib),
}

#: Calls per ``lookup_batch`` at batch (16, 512): the measured figures
#: in the table above plus ~15 %.  RESAIL's is a third of the 304 it
#: cost at PR 17; LTCAM's and BSIC's are set ahead of the range form's
#: 20 and 40, DXR's ahead of its floor search's 36.
BUDGETS = {
    "resail": (100, 100),
    "sail": (577, 577),
    "mashup": (498, 498),
    "bsic": (50, 50),
    "ltcam": (40, 40),
    "dxr": (55, 55),
    "poptrie": (89, 89),
    "multibit": (98, 98),
    "hibst": (373, 373),
}


@pytest.fixture(scope="module")
def table():
    fib = synthesize_as65000(scale=0.01)
    return fib, np.asarray(mixed_addresses(fib, 512, seed=21),
                           dtype=np.int64)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_batch_calls_stay_in_budget(table, name):
    fib, addresses = table
    vplan = compile_vector_plan(MAKERS[name](fib))
    assert vplan.fully_lowered
    expected = [fib.lookup(a) for a in addresses.tolist()]
    assert vplan.lookup_batch_hops(addresses) == expected  # and warm
    counts = []
    for size, budget in zip((16, 512), BUDGETS[name]):
        batch = addresses[:size]
        # Less the lambda's own frame.
        counts.append(count_calls(lambda: vplan.lookup_batch(batch)) - 1)
        assert counts[-1] <= budget, (name, size, counts[-1])
    print(f"calls/batch {name}: {counts[0]} at 16, {counts[1]} at 512")


def test_a_resail_batch_fills_no_register(table, monkeypatch):
    """Adopt-on-write, observed: the eager register file filled a
    zeros/ones pair per register per batch (30 fills for RESAIL's 15
    registers); now no kernel fills anything — the look-aside's floor
    search gathers its results instead of filling two vectors — and no
    unwritten ``key_i`` exists at all."""
    fib, addresses = table
    vplan = compile_vector_plan(Resail(fib, min_bmp=13))
    fills = []
    with monkeypatch.context() as patched:
        for fill in ("zeros", "ones", "full", "zeros_like", "ones_like",
                     "full_like"):
            def counted(*args, _real=getattr(np, fill), _name=fill,
                        **kwargs):
                fills.append(_name)
                return _real(*args, **kwargs)
            patched.setattr(np, fill, counted)
        hops = vplan.lookup_batch(addresses)
    assert len(vplan.plan.program.registers) == 15
    assert fills == [], fills
    assert hops.tolist() == [
        vplan.MISS if hop is None else hop
        for hop in (fib.lookup(a) for a in addresses.tolist())]
