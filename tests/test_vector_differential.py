"""Differential kernel-conformance fuzzer for the lane compiler.

Hypothesis generates random FIBs, churn batches, and address mixes;
every example asserts the four execution paths agree for all nine
algorithms:

    vector plan == scalar plan == CRAM interpreter == binary-trie oracle

post-commit and post-rollback.  The address mixes
deliberately include *adversarial-depth* probes — prefix endpoints and
their ±1 neighbours, which exercise the deepest tree walks and the
equal/greater branches of every BST kernel — and the width-62/63/64
boundary, where int64 lanes run out of headroom and the vector plan
must compile no kernels and delegate whole batches to its embedded
scalar plan.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.control import CapacityGuard, ChurnGenerator, ManagedFib
from repro.core import compile_plan, compile_vector_plan
from repro.prefix import Fib, Prefix

#: The nine schemes at their fuzzing widths (SAIL/RESAIL are IPv4-only).
MAKERS = {
    "ltcam": (8, lambda fib: LogicalTcam(fib)),
    "hibst": (8, lambda fib: HiBst(fib)),
    "bsic": (8, lambda fib: Bsic(fib, k=4)),
    "dxr": (8, lambda fib: Dxr(fib, k=4)),
    "multibit": (8, lambda fib: MultibitTrie(fib, [4, 4])),
    "mashup": (8, lambda fib: Mashup(fib, [3, 2, 3])),
    "poptrie": (8, lambda fib: Poptrie(fib, dp_bits=4)),
    "sail": (32, lambda fib: Sail(fib)),
    "resail": (32, lambda fib: Resail(fib, min_bmp=13)),
}

#: Lane-width boundary: 62 is the last width that runs on int64 lanes;
#: 63 and 64 must transparently delegate to the scalar plan.
BOUNDARY_MAKERS = {
    "ltcam": lambda fib: LogicalTcam(fib),
    "hibst": lambda fib: HiBst(fib),
    "bsic": lambda fib: Bsic(fib, k=16),
    "multibit": lambda fib: MultibitTrie(
        fib, [16, 16, 16, fib.width - 48]),
    "mashup": lambda fib: Mashup(fib, [16, 16, 16, fib.width - 48]),
}

entry_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),   # raw length
              st.integers(min_value=0, max_value=(1 << 64) - 1),  # bits
              st.integers(min_value=0, max_value=63)),  # hop
    min_size=0, max_size=24)


def build_fib(width: int, entries) -> Fib:
    fib = Fib(width)
    for raw_length, raw_bits, hop in entries:
        length = raw_length % (width + 1)
        fib.insert(Prefix.from_bits(raw_bits & ((1 << length) - 1),
                                    length, width), hop)
    return fib


def probe_addresses(fib: Fib, extras) -> list:
    """Adversarial-depth mix: every prefix's endpoints and their ±1
    neighbours (deepest walks, both compare branches), plus random
    draws and the address-space corners."""
    width = fib.width
    top = (1 << width) - 1
    addresses = {0, top, top >> 1, (top >> 1) + 1}
    for prefix, _hop in fib:
        lo = prefix.value
        hi = prefix.value | ((1 << (width - prefix.length)) - 1)
        for address in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            if 0 <= address <= top:
                addresses.add(address)
    for extra in extras:
        addresses.add(extra & top)
    return sorted(addresses)


def assert_paths_agree(algo, fib, addresses, interpreter_every=16):
    expected = [fib.lookup(a) for a in addresses]
    plan = compile_plan(algo)
    assert [plan.lookup(a) for a in addresses] == expected
    vplan = compile_vector_plan(algo, plan=plan)
    assert vplan.fully_lowered
    assert vplan.lookup_batch_hops(addresses) == expected
    # The per-packet interpreter re-derives the schedule per call:
    # probe a deterministic subset.
    for address in addresses[::max(1, len(addresses) // interpreter_every)]:
        assert algo.cram_lookup(address) == fib.lookup(address)


@pytest.mark.parametrize("name", sorted(MAKERS))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_differential_paths_agree(name, entries, extras):
    width, maker = MAKERS[name]
    fib = build_fib(width, entries)
    algo = maker(fib)
    assert_paths_agree(algo, fib, probe_addresses(fib, extras))


@pytest.mark.parametrize("width", (62, 63, 64))
@pytest.mark.parametrize("name", sorted(BOUNDARY_MAKERS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entries=entry_lists,
       extras=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                       max_size=8))
def test_differential_width_boundaries(name, width, entries, extras):
    fib = build_fib(width, entries)
    algo = BOUNDARY_MAKERS[name](fib)
    addresses = probe_addresses(fib, extras)
    expected = [fib.lookup(a) for a in addresses]
    plan = compile_plan(algo)
    assert [plan.lookup(a) for a in addresses] == expected
    vplan = compile_vector_plan(algo, plan=plan)
    # Over-wide lanes: no kernels, the whole batch delegates, and the
    # plan says so instead of silently mis-answering.
    assert vplan.fully_lowered == (width <= 62)
    assert (len(vplan) > 0) == (width <= 62)
    assert vplan.lookup_batch_hops(addresses) == expected


@pytest.mark.parametrize("name", sorted(MAKERS))
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_post_commit_and_post_rollback(name, seed):
    width, maker = MAKERS[name]
    base = build_fib(width, [(1, 1, 1), (3, 5, 2), (width, 77, 3)])
    for guard, expect_outcome in (
        (CapacityGuard(tcam_blocks=1 << 30, sram_pages=1 << 30,
                       stage_budget=1 << 30,
                       dleft_overflow_limit=1 << 30), "commit"),
        (CapacityGuard(tcam_blocks=0, sram_pages=0, stage_budget=1,
                       dleft_overflow_limit=0), "rollback"),
    ):
        managed = ManagedFib(maker, base, guard=guard)
        outcomes = set()
        for batch in ChurnGenerator(base, seed=seed).batches(4, 6):
            outcomes.add(managed.apply_batch(batch))
            # After every landed OR rolled-back batch, the committed
            # structure must still answer like the committed oracle
            # through all four paths.
            oracle = managed.oracle
            addresses = probe_addresses(oracle, [seed])
            assert_paths_agree(managed.algo, oracle, addresses,
                               interpreter_every=4)
        if expect_outcome == "rollback":
            # A batch may still land under the punitive guard — but
            # only by shrinking the FIB inside the budget (e.g. a
            # trace that withdraws every route); anything else must
            # roll back.
            assert outcomes <= {"batch_rolled_back", "batch_applied",
                                "batch_rebuilt"}
            if outcomes != {"batch_rolled_back"}:
                hard, _soft = guard.inspect(managed.algo)
                assert not hard, (outcomes, hard)
        else:
            assert "batch_rolled_back" not in outcomes
