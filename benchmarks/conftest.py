"""Shared benchmark fixtures: full-scale databases and built algorithms.

Each benchmark file regenerates one table or figure from the paper's
evaluation (see DESIGN.md's per-experiment index).  The reproduced
tables are printed and also written to ``benchmarks/results/`` so a
``pytest benchmarks/`` run leaves the full set of artifacts behind.
Run it without ``--benchmark-only``: that flag skips the benches that
take no ``benchmark`` fixture, the warm-start ratio gate among them.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to run against smaller
synthetic databases for a quick smoke pass; paper-comparison
assertions relax automatically below full scale.
"""

import os

import pytest

from _bench_utils import emit  # noqa: F401  (re-exported for bench files)

from repro.algorithms import (
    Bsic,
    Dxr,
    HiBst,
    LogicalTcam,
    Mashup,
    MultibitTrie,
    Resail,
    Sail,
)
from repro.datasets import synthesize_as65000, synthesize_as131072

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FULL_SCALE = SCALE >= 0.999


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def full_scale():
    return FULL_SCALE


@pytest.fixture(scope="session")
def fib_v4():
    return synthesize_as65000(scale=SCALE)


@pytest.fixture(scope="session")
def fib_v6():
    return synthesize_as131072(scale=SCALE)


# ---------------------------------------------------------------------------
# Built algorithms, shared across benchmark files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def resail_v4(fib_v4):
    return Resail(fib_v4, min_bmp=13)


@pytest.fixture(scope="session")
def bsic_v4(fib_v4):
    return Bsic(fib_v4, k=16)


@pytest.fixture(scope="session")
def mashup_v4(fib_v4):
    return Mashup(fib_v4, (16, 4, 4, 8))


@pytest.fixture(scope="session")
def sail_v4(fib_v4):
    return Sail(fib_v4)


@pytest.fixture(scope="session")
def dxr_v4(fib_v4):
    return Dxr(fib_v4, k=16)


@pytest.fixture(scope="session")
def ltcam_v4(fib_v4):
    return LogicalTcam(fib_v4)


@pytest.fixture(scope="session")
def bsic_v6(fib_v6):
    return Bsic(fib_v6, k=24)


@pytest.fixture(scope="session")
def mashup_v6(fib_v6):
    return Mashup(fib_v6, (20, 12, 16, 16))


@pytest.fixture(scope="session")
def hibst_v6(fib_v6):
    return HiBst(fib_v6)


@pytest.fixture(scope="session")
def ltcam_v6(fib_v6):
    return LogicalTcam(fib_v6)
