"""Cross-algorithm conformance: plan == interpreter == trie oracle.

Every behavioural simulator must give identical answers through all
three execution paths:

* the native ``algo.lookup`` walk,
* the per-packet CRAM interpreter (``algo.cram_lookup``),
* the compiled batch plan (``repro.core.plan``),
* the lane-compiled vector plan (``repro.core.vector``),
* the concurrent serving frontend (``repro.server.LookupServer``),

with and without the engine's FIB cache, before and after a churn
batch lands through :class:`repro.control.ManagedFib` — all against
the :class:`~repro.prefix.Fib` binary-trie oracle.

Width 8 runs everywhere (fast, exhaustive address space).  Widths 16
and 32 are marked ``slow`` and run in CI's conformance job
(``pytest -m slow``).  SAIL and RESAIL are IPv4 schemes and only
appear at width 32.
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
from repro.control import CapacityGuard, ChurnGenerator, ManagedFib
from repro.core import compile_plan, compile_vector_plan
from repro.datasets import mixed_addresses
from repro.engine import BatchEngine
from repro.prefix import Fib, Prefix
from repro.server import LookupServer

#: Fixed multibit/MASHUP stride plans per width (must sum to width).
STRIDES = {8: [4, 4], 16: [8, 4, 4], 32: [16, 4, 4, 8]}
MASHUP_STRIDES = {8: [3, 2, 3], 16: [6, 5, 5], 32: None}  # None = default

MAKERS = {
    "ltcam": lambda fib: LogicalTcam(fib),
    "hibst": lambda fib: HiBst(fib),
    "bsic": lambda fib: Bsic(fib, k=fib.width // 2),
    "dxr": lambda fib: Dxr(fib, k=fib.width // 2),
    "multibit": lambda fib: MultibitTrie(fib, STRIDES[fib.width]),
    "mashup": lambda fib: Mashup(fib, MASHUP_STRIDES[fib.width]),
    "poptrie": lambda fib: Poptrie(fib, dp_bits=fib.width // 2),
    "sail": lambda fib: Sail(fib),
    "resail": lambda fib: Resail(fib, min_bmp=13),
}
IPV4_ONLY = {"sail", "resail"}

#: FIB sizes per width — big enough to populate every structure level,
#: small enough that the full 9-algorithm sweep stays quick.
FIB_SIZES = {8: 40, 16: 250, 32: 400}


def conformance_params():
    params = []
    for width in (8, 16, 32):
        for name in sorted(MAKERS):
            if name in IPV4_ONLY and width != 32:
                continue
            marks = [pytest.mark.slow] if width > 8 else []
            params.append(pytest.param(name, width, marks=marks,
                                       id=f"{name}-w{width}"))
    return params


def random_fib(width, size, seed):
    """A seeded random FIB spanning all prefix lengths 1..width."""
    rng = np.random.default_rng(seed)
    fib = Fib(width)
    while len(fib) < size:
        length = int(rng.integers(1, width + 1))
        bits = int(rng.integers(0, 1 << min(length, 63)))
        if length > 63:
            bits = (bits << (length - 63)) | int(
                rng.integers(0, 1 << (length - 63)))
        fib.insert(Prefix.from_bits(bits, length, width),
                   int(rng.integers(0, 64)))
    return fib


def addresses_for(fib, seed):
    if fib.width == 8:
        return list(range(256))  # exhaustive
    return mixed_addresses(fib, 300, hit_fraction=0.8, seed=seed)


@pytest.mark.parametrize("name,width", conformance_params())
class TestConformance:
    def test_plan_interpreter_native_agree(self, name, width):
        fib = random_fib(width, FIB_SIZES[width], seed=width)
        algo = MAKERS[name](fib)
        plan = compile_plan(algo)
        addresses = addresses_for(fib, seed=width + 1)
        for address in addresses:
            expected = fib.lookup(address)
            assert algo.lookup(address) == expected, hex(address)
            assert plan.lookup(address) == expected, hex(address)
        # The per-packet interpreter re-derives the schedule per call —
        # expensive, so probe a deterministic subset.
        for address in addresses[:: max(1, len(addresses) // 16)]:
            assert algo.cram_lookup(address) == fib.lookup(address)
        # The lane compiler must agree whole-batch — and every scheme
        # lowers fully at lane-compatible widths (every step a kernel,
        # vector hop extraction), so all nine serve from kernels.
        vplan = compile_vector_plan(algo, plan=plan)
        expected = [fib.lookup(a) for a in addresses]
        assert vplan.lookup_batch_hops(addresses) == expected
        assert vplan.fully_lowered, vplan.describe()
        assert len(vplan) == len(plan.step_names)

    def test_engine_cache_on_off_agree(self, name, width):
        fib = random_fib(width, FIB_SIZES[width], seed=width + 7)
        addresses = addresses_for(fib, seed=width + 8)
        plain = BatchEngine(MAKERS[name](fib))
        # Cache sized to the working set: pass 2 is served entirely
        # from it (a sequential scan through a smaller cache would
        # never re-hit — that thrash case is TestFibCache's business).
        cached = BatchEngine(MAKERS[name](fib), cache_size=len(addresses))
        expected = [fib.lookup(a) for a in addresses]
        assert plain.lookup_batch(addresses) == expected
        # Two passes: first fills the cache, second serves from it.
        assert cached.lookup_batch(addresses) == expected
        assert cached.lookup_batch(addresses) == expected
        assert cached.cache.stats.hits > 0
        # Both serve from kernels: every scheme lowers at these widths.
        assert plain.active_backend == cached.active_backend == "vector"

    def test_post_churn_conformance(self, name, width):
        base = random_fib(width, FIB_SIZES[width], seed=width + 13)
        # A permissive resource envelope: dense random FIBs can exceed
        # the default Tofino-2 budgets (SAIL at w32), and this test is
        # about conformance, not capacity planning.
        guard = CapacityGuard(tcam_blocks=1 << 30, sram_pages=1 << 30,
                              stage_budget=1 << 30,
                              dleft_overflow_limit=1 << 30)
        managed = ManagedFib(MAKERS[name], base, guard=guard)
        engine = BatchEngine.over_managed(managed, cache_size=64,
                                          name=f"conf-{name}")
        addresses = addresses_for(base, seed=width + 14)
        engine.lookup_batch(addresses)  # populate the cache pre-churn
        landed = 0
        for batch in ChurnGenerator(base, seed=width).batches(40, 10):
            if managed.apply_batch(batch) != "batch_rolled_back":
                landed += 1
        assert landed > 0
        # Post-churn: the plan was recompiled and stale entries dropped;
        # every path must now match the post-churn oracle.
        oracle = managed.oracle
        plan = compile_plan(managed.algo)
        for address in addresses:
            expected = oracle.lookup(address)
            assert engine.lookup(address) == expected, hex(address)
            assert plan.lookup(address) == expected, hex(address)
        for address, hop in engine.cache.items():
            assert hop == oracle.lookup(address), hex(address)
        # A freshly lane-compiled plan sees the post-churn snapshot too
        # (the engine recompiled or patched its own on every commit).
        vplan = compile_vector_plan(managed.algo)
        expected = [oracle.lookup(a) for a in addresses]
        assert vplan.lookup_batch_hops(addresses) == expected

    def test_server_serves_conformant_results(self, name, width):
        """The served column of the matrix: answers through the
        concurrent coalescing frontend (requests split across worker
        replicas, scattered back per request) equal the trie oracle —
        and therefore equal every other execution path above."""
        fib = random_fib(width, FIB_SIZES[width], seed=width + 21)
        addresses = addresses_for(fib, seed=width + 22)
        expected = [fib.lookup(a) for a in addresses]
        with LookupServer(MAKERS[name](fib), workers=2, max_batch=32,
                          max_wait_s=0.001, name=f"conf-{name}") as server:
            handles = [server.submit(addresses[i:i + 7])
                       for i in range(0, len(addresses), 7)]
            server.flush()
            served = []
            for handle in handles:
                served.extend(handle.result(timeout=60))
        assert served == expected


# ---------------------------------------------------------------------------
# Golden kernel sequences: the lowered step schedule per algorithm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_kernel_sequence_golden(name, regen_golden):
    """The lane compiler's dispatch schedule is part of the contract:
    that every step lowered, and in what order (one kernel per step).
    Pinned as byte-stable golden files; regenerate deliberately with

        PYTHONPATH=src python -m pytest tests/test_engine_conformance.py \\
            --regen-golden

    and commit the ``tests/golden/kernel_sequence_*.json`` diff."""
    from test_golden_tables import check_golden

    width = 32 if name in IPV4_ONLY else 8
    fib = random_fib(width, FIB_SIZES[width], seed=width)
    info = compile_vector_plan(MAKERS[name](fib)).describe()
    doc = {
        "algorithm": name,
        "width": width,
        "fully_lowered": info["fully_lowered"],
        "lowered_steps": info["lowered_steps"],
    }
    check_golden(f"kernel_sequence_{name}", doc, regen_golden)
