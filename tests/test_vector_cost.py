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

Measured with this harness (CPython 3.11, NumPy 2.4; batch 16 / 512):

========  ===========  ===========
scheme    PR 17        PR 19
========  ===========  ===========
resail    304 / 304     83 / 83
sail      737 / 737    502 / 502
mashup    652 / 676    473 / 485
bsic      212 / 212    155 / 155
ltcam     194 / 194     95 / 95
dxr       123 / 123     98 / 98
poptrie    90 / 90      78 / 78
multibit   84 / 84      86 / 86
hibst     334 / 346    327 / 339
========  ===========  ===========

The floor search moved two rows, measured beside the per-level walk
it replaced; the other seven read the same on both sides:

========  ============  ============
scheme    level walk    floor search
========  ============  ============
bsic      158 / 158      65 / 65
dxr       100 / 100      36 / 36
========  ============  ============

RESAIL — the served scheme — is gated at a third of its PR 17 count:
its parallel level is one gather per bitmap into a shared lane matrix,
its hash step one reduction, one key and one probe.  The other eight
are pinned where the adopt-on-write register file left them (measured
+ ~15 %), except BSIC and DXR: a sorted range table is one
``searchsorted`` (``RangeView``), so BSIC's BST walk and DXR's binary
search each resolve in one kernel whatever the tree's depth, and the
two are gated at 80 and 55.  HI-BST is pinned as found:
what it costs is the per-lane ancestor binary search in
``vector_extract_hop``, a Python ``while`` loop of ~10 array passes a
round, which no PR has touched; the first
batch after a compile also pays the one-off ``_vector_extract_arrays``
build (16,702 calls on this table), which is why the test warms up
before it counts.
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
#: in the table above plus ~15 %.  RESAIL's is the issue's, not a
#: measurement: a third of the 304 it cost at PR 17.
#: BSIC's and DXR's are set ahead of the floor search's 65 and 36.
BUDGETS = {
    "resail": (100, 100),
    "sail": (577, 577),
    "mashup": (543, 557),
    "bsic": (80, 80),
    "ltcam": (109, 109),
    "dxr": (55, 55),
    "poptrie": (89, 89),
    "multibit": (98, 98),
    "hibst": (376, 389),
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
    registers); now the only fills left are the two result vectors of
    the look-aside gather, and no unwritten ``key_i`` exists at all."""
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
    assert fills == ["zeros", "zeros"], fills
    assert hops.tolist() == [
        vplan.MISS if hop is None else hop
        for hop in (fib.lookup(a) for a in addresses.tolist())]
