"""Lookup throughput ratio gates: interpreter vs plan vs lane kernels.

Not a paper table — the paper measures hardware resources, not Python
speed — but the scale-free ratios CI asserts on the serving path's
execution tiers.  Two benches:

* ``test_engine_vs_interpreter_throughput`` is the engine acceptance
  gate: the compiled plan (``repro.core.plan``) must serve at least
  **3x** the lookups/sec of the per-packet CRAM interpreter on the
  same FIB.
* ``test_vector_vs_plan_throughput`` is the lane-compiler acceptance
  gate: every scheme lowers fully, so the vector plan
  (``repro.core.vector``) must serve at least **3x** the lookups/sec
  of the scalar compiled plan on all nine over IPv4 and on the
  paper's three IPv6 schemes over the width-64 table, with identical
  answers — and, at the 16-address batches a trickle of traffic
  flushes (the kernel's fixed cost per batch), the served scheme
  (RESAIL) at least **1.5x**, DXR at least **1.2x** and IPv6 BSIC at
  least **1.0x**, whose range searches are one ``searchsorted`` each
  (reported ungated for the rest).

Both emit a machine-readable JSON sidecar via ``_bench_utils.emit``
(``benchmarks/results/throughput_*.json``): deterministic numbers
(checksums, thresholds) in ``values``, wall-clock rates and the
gated ratios in ``timings``.
"""

import os
import time

from _bench_utils import emit

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
from repro.analysis import Table
from repro.core import compile_plan, compile_vector_plan
from repro.datasets import (
    mixed_addresses,
    synthesize_as65000,
    synthesize_as131072,
)

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
N_ADDRESSES = max(400, int(2_000 * SCALE))
#: The interpreter is slow by design (it re-derives the schedule per
#: packet); a modest probe count keeps the bench snappy at any scale.
N_INTERP = max(60, int(200 * SCALE))

V4_MAKERS = [
    ("sail", lambda fib: Sail(fib)),
    ("resail", lambda fib: Resail(fib, min_bmp=13)),
    ("bsic", lambda fib: Bsic(fib, k=16)),
    ("dxr", lambda fib: Dxr(fib, k=16)),
    ("multibit", lambda fib: MultibitTrie(fib, [16, 4, 4, 8])),
    ("mashup", lambda fib: Mashup(fib)),
    ("poptrie", lambda fib: Poptrie(fib, dp_bits=16)),
    ("hibst", lambda fib: HiBst(fib)),
    ("ltcam", lambda fib: LogicalTcam(fib)),
]

V6_MAKERS = [
    ("bsic", lambda fib: Bsic(fib, k=24)),
    ("mashup", lambda fib: Mashup(fib)),
    ("hibst", lambda fib: HiBst(fib)),
]


#: Batch-16 gates, vector over scalar plan, per family.
B16_THRESHOLD_X = {"resail": 1.5, "dxr": 1.2, "bsic": 1.0, "ltcam": 1.0}
IPV6_B16_THRESHOLD_X = {"bsic": 1.0}


@pytest.fixture(scope="module")
def small_v4():
    fib = synthesize_as65000(scale=0.01)
    return fib, mixed_addresses(fib, N_ADDRESSES, seed=21)


@pytest.fixture(scope="module")
def small_v6():
    fib = synthesize_as131072(scale=0.05)
    return fib, mixed_addresses(fib, N_ADDRESSES, seed=22)


def test_engine_vs_interpreter_throughput(benchmark, small_v4):
    """The engine acceptance gate: compiled plan >= 3x the per-packet
    CRAM interpreter on the same FIB, recorded in a JSON sidecar."""
    fib, addresses = small_v4
    algo = Resail(fib, min_bmp=13)
    plan = compile_plan(algo)

    def run():
        # Per-packet interpreter dispatch: the pre-engine serving path.
        start = time.perf_counter()
        for address in addresses[:N_INTERP]:
            algo.cram_lookup(address)
        interp_rate = N_INTERP / (time.perf_counter() - start)
        # Compiled plan, batched.
        out = plan.lookup_batch(addresses)  # warm
        rounds = 3
        start = time.perf_counter()
        for _ in range(rounds):
            out = plan.lookup_batch(addresses, out=[])
        plan_rate = rounds * len(addresses) / (time.perf_counter() - start)
        checksum = sum(hop for hop in out if hop is not None)
        return interp_rate, plan_rate, checksum

    interp_rate, plan_rate, checksum = benchmark.pedantic(
        run, rounds=1, iterations=1)
    speedup = plan_rate / interp_rate

    table = Table("Batched engine vs per-packet interpreter",
                  ["Serving path", "Lookups/s", "vs interpreter"])
    table.add_row("CRAM interpreter (per packet)", f"{interp_rate:,.0f}", "1.0x")
    table.add_row("compiled plan (batched)", f"{plan_rate:,.0f}",
                  f"{speedup:.1f}x")
    emit("throughput_engine", table.render(),
         values={
             "addresses": len(addresses),
             "interpreter_addresses": N_INTERP,
             "plan_hop_checksum": checksum,
             "plan_steps": len(plan),
             "speedup_threshold_x": 3.0,
         },
         timings={
             "interpreter_lookups_per_s": interp_rate,
             "plan_lookups_per_s": plan_rate,
             "speedup_x": speedup,
         })

    # Correctness before speed: the plan answers like the trie oracle.
    sample = addresses[:: max(1, len(addresses) // 64)]
    assert [plan.lookup(a) for a in sample] == [fib.lookup(a) for a in sample]
    # The acceptance criterion: >= 3x the per-packet interpreter.
    assert speedup >= 3.0, f"plan only {speedup:.2f}x over the interpreter"


#: Timing samples per measured arm; every rate is the *best* sample
#: (min-of-N), which rejects scheduler hiccups a single aggregate
#: timing loop folds straight into the gate.
TIMING_ROUNDS = 5


def _best_rate(fn, n, rounds=TIMING_ROUNDS, calls=2):
    """Lookups/sec from the fastest of ``rounds`` samples, each timing
    ``calls`` back-to-back invocations (sub-millisecond batches are
    too short to time singly on a noisy host)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return calls * n / best


def _ab_ratio(fn_a, fn_b, rounds=TIMING_ROUNDS, calls=2):
    """best(A)/best(B) with the samples *interleaved*: A then B each
    round, so clock drift and frequency scaling hit both arms alike
    instead of biasing whichever ran second."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(calls):
            fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_b / best_a


def _vector_row(algo, addresses, small):
    """One scheme's gate numbers: ``(plan rate, vector rate, speedup,
    hop checksum, batch-16 ratio)`` — answers checked first."""
    n = len(addresses)
    plan = compile_plan(algo)
    vplan = compile_vector_plan(algo, plan=plan)
    assert vplan.fully_lowered, vplan.describe()
    expected = plan.lookup_batch(addresses)  # warm + reference
    got = vplan.lookup_batch_hops(addresses)  # warm
    assert got == expected, f"{algo.name}: vector answers diverge"
    vector_rate = _best_rate(lambda: vplan.lookup_batch(addresses), n)
    # The gated speedup is an *interleaved* A/B ratio so clock drift
    # between the two timing windows can't push a scheme across the 3x
    # line; the reported plan rate is derived from it.
    speedup = _ab_ratio(
        lambda: vplan.lookup_batch(addresses),
        lambda: plan.lookup_batch(addresses, out=[]),
        rounds=7, calls=1)
    # Batch 16, same interleaving: eight 16-address batches a sample,
    # so a sample is long enough to time.
    for batch in small:
        assert vplan.lookup_batch_hops(batch) == plan.lookup_batch(batch)
    b16 = _ab_ratio(
        lambda: [vplan.lookup_batch(batch) for batch in small],
        lambda: [plan.lookup_batch(batch, out=[]) for batch in small],
        rounds=7, calls=1)
    return (vector_rate / speedup, vector_rate, speedup,
            sum(hop for hop in expected if hop is not None), b16)


def _vector_rows(fib, addresses, makers, seed):
    # The gate measures *batch* throughput: at the CI bench scale the
    # shared workload shrinks to a few hundred addresses, where kernel
    # dispatch overhead (not lane work) dominates the deep-probe
    # schemes.  Pin this bench to a production-sized batch instead.
    if len(addresses) < 2_000:
        addresses = mixed_addresses(fib, 2_000, seed=seed)
    small = [addresses[i:i + 16] for i in range(0, 128, 16)]
    return {name: _vector_row(maker(fib), addresses, small)
            for name, maker in makers}


def test_vector_vs_plan_throughput(benchmark, small_v4, small_v6):
    """The lane-compiler acceptance gate: every scheme lowers fully,
    so the vector plan must serve >= 3x the scalar compiled plan on
    ALL NINE over the IPv4 table — and on the paper's three IPv6
    schemes (BSIC k=24, MASHUP 20-12-16-16, HI-BST) over the width-64
    table, on ``uint64`` address lanes — with identical answers
    (min-of-N interleaved timings).  A second leg times 16-address
    batches, where the kernel's fixed cost per call is all there is:
    RESAIL, the served scheme, must still beat the scalar plan by 1.5x
    there, DXR by 1.2x and IPv6 BSIC must match it; the rest is
    reported ungated.  Recorded in a JSON sidecar."""
    def run():
        return (_vector_rows(*small_v4, V4_MAKERS, seed=21),
                _vector_rows(*small_v6, V6_MAKERS, seed=22))

    rows, rows_v6 = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table("Vector lane kernels vs scalar compiled plan",
                  ["Scheme", "Plan lookups/s", "Vector lookups/s", "Speedup",
                   "at batch 16"])
    for family, family_rows in (("", rows), ("IPv6 ", rows_v6)):
        for name, (plan_rate, vector_rate, speedup, _checksum,
                   small_x) in sorted(family_rows.items(),
                                      key=lambda kv: -kv[1][2]):
            table.add_row(family + name, f"{plan_rate:,.0f}",
                          f"{vector_rate:,.0f}", f"{speedup:.1f}x",
                          f"{small_x:.2f}x")

    def column(family_rows, index):
        return {name: row[index] for name, row in family_rows.items()}

    emit("throughput_vector", table.render(),
         values={
             "addresses": 2_000,
             "speedup_threshold_x": 3.0,
             "b16_threshold_x": B16_THRESHOLD_X,
             "ipv6_b16_threshold_x": IPV6_B16_THRESHOLD_X,
             "hop_checksums": column(rows, 3),
             "ipv6_hop_checksums": column(rows_v6, 3),
         },
         timings={
             "plan_lookups_per_s": column(rows, 0),
             "vector_lookups_per_s": column(rows, 1),
             "speedup_x": column(rows, 2),
             "vector_b16_over_plan": column(rows, 4),
             "ipv6": {
                 "plan_lookups_per_s": column(rows_v6, 0),
                 "vector_lookups_per_s": column(rows_v6, 1),
                 "speedup_x": column(rows_v6, 2),
                 "vector_b16_over_plan": column(rows_v6, 4),
             },
         })

    for family, family_rows in (("", rows), ("IPv6 ", rows_v6)):
        for name, row in family_rows.items():
            assert row[2] >= 3.0, \
                f"{family}{name}: vector only {row[2]:.2f}x over the scalar plan"
    for family, family_rows, gates in (
            ("", rows, B16_THRESHOLD_X),
            ("IPv6 ", rows_v6, IPV6_B16_THRESHOLD_X)):
        for name, gate in gates.items():
            b16 = family_rows[name][4]
            assert b16 >= gate, (f"{family}{name}: vector only {b16:.2f}x "
                                 "the scalar plan at batch 16")
