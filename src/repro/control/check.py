"""Differential consistency checking and failing-trace shrinking.

After every batch the managed runtime compares the production
structure against the oracle :class:`~repro.prefix.trie.Fib` on a set
of probe addresses biased toward the prefixes the batch touched (their
first/last covered addresses and near misses — where update bugs
actually live) plus a deterministic stream of random probes.

When a divergence survives recovery, the runtime hands the accumulated
operation trace to :func:`shrink_trace`, a ddmin-style minimizer that
returns a small reproduction — debugging a 3-op repro beats debugging
a 10k-op churn log.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..prefix.prefix import Prefix, PrefixError
from ..prefix.trie import Fib
from .churn import ANNOUNCE, UpdateOp


@dataclass(frozen=True)
class Violation:
    """One probe address where the structure disagrees with the oracle."""

    address: int
    expected: Optional[int]
    got: Optional[int]

    def render(self, width: int = 32) -> str:
        return (
            f"address {self.address:#0{2 + width // 4}x}: "
            f"oracle says {self.expected}, structure says {self.got}"
        )


class DifferentialChecker:
    """Probe-based equivalence checking against the oracle FIB."""

    def __init__(self, width: int, seed: int = 0, random_probes: int = 16):
        self.width = width
        self.random_probes = random_probes
        self._rng = random.Random(f"check:{seed}")

    def probe_addresses(self, touched: Sequence[Prefix]) -> List[int]:
        """Probes for one batch: targeted around ``touched`` + random.

        The targeted probes hit each touched prefix's first and last
        covered address and the addresses just outside that range —
        off-by-one errors in range structures (DXR, BSIC) and stale
        expansions in stride tables (SAIL, MASHUP) live exactly there.
        """
        limit = (1 << self.width) - 1
        probes = set()
        for prefix in touched:
            first, last = prefix.address_range()
            probes.add(first)
            probes.add(last)
            if first > 0:
                probes.add(first - 1)
            if last < limit:
                probes.add(last + 1)
        for _ in range(self.random_probes):
            probes.add(self._rng.getrandbits(self.width))
        return sorted(probes)

    def check(self, algo, oracle: Fib,
              probes: Sequence[int]) -> List[Violation]:
        violations = []
        for address in probes:
            expected = oracle.lookup(address)
            got = algo.lookup(address)
            if got != expected:
                violations.append(Violation(address, expected, got))
        return violations


# ---------------------------------------------------------------------------
# Trace replay and shrinking
# ---------------------------------------------------------------------------


def replay(factory: Callable[[Fib], object], base: Fib,
           ops: Sequence[UpdateOp]) -> Tuple[object, Fib]:
    """Apply ``ops`` directly (no managed runtime) to a fresh structure.

    Invalid ops — malformed prefixes, withdrawals of absent routes —
    are skipped, mirroring what the runtime's validation absorbs, so a
    shrunk trace reproduces the *structure* bug, not input handling.
    Algorithms without in-place updates are rebuilt from the oracle
    after every op, matching the runtime's fallback.
    """
    from ..algorithms.base import UpdateUnsupported

    oracle = base.copy()
    algo = factory(base.copy())
    for op in ops:
        try:
            prefix = op.resolve()
        except PrefixError:
            continue
        if op.action == ANNOUNCE:
            oracle.insert(prefix, op.next_hop)
        else:
            if prefix not in oracle:
                continue
            oracle.delete(prefix)
        try:
            if op.action == ANNOUNCE:
                algo.insert(prefix, op.next_hop)
            else:
                algo.delete(prefix)
        except UpdateUnsupported:
            algo = factory(oracle.copy())
    return algo, oracle


def make_failure_predicate(
    factory: Callable[[Fib], object],
    base: Fib,
    probe_seed: int = 0,
) -> Callable[[Sequence[UpdateOp]], bool]:
    """True iff replaying the ops still yields a differential violation."""

    def fails(ops: Sequence[UpdateOp]) -> bool:
        algo, oracle = replay(factory, base, ops)
        checker = DifferentialChecker(base.width, seed=probe_seed)
        touched = []
        for op in ops:
            try:
                touched.append(op.resolve())
            except PrefixError:
                continue
        probes = checker.probe_addresses(touched)
        return bool(checker.check(algo, oracle, probes))

    return fails


def shrink_trace(
    ops: Sequence[UpdateOp],
    fails: Callable[[Sequence[UpdateOp]], bool],
    max_evals: int = 400,
) -> List[UpdateOp]:
    """ddmin: a minimal-ish sub-trace on which ``fails`` still holds.

    Classic delta debugging (Zeller & Hildebrandt): try dropping ever
    finer-grained chunks, restarting whenever a drop keeps the failure
    alive.  ``max_evals`` bounds the predicate calls so shrinking a
    huge trace cannot dominate a test run; the result is still a valid
    failing trace, just possibly not 1-minimal.
    """
    ops = list(ops)
    if not fails(ops):
        raise ValueError("trace does not fail; nothing to shrink")
    evals = 0
    granularity = 2
    while len(ops) >= 2 and evals < max_evals:
        chunk = math.ceil(len(ops) / granularity)
        reduced = False
        for start in range(0, len(ops), chunk):
            candidate = ops[:start] + ops[start + chunk:]
            evals += 1
            if candidate and fails(candidate):
                ops = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if evals >= max_evals:
                break
        if not reduced:
            if granularity >= len(ops):
                break
            granularity = min(len(ops), granularity * 2)
    return ops
