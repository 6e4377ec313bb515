"""Multi-VRF sharding: N independent plans behind a VRF-hash dispatcher.

:class:`VrfShardedEngine` partitions VRFs across N shards
(``vrf_id % shards``); each shard coalesces its VRFs into one
tag-widened FIB (idiom I5, exactly as
:class:`repro.algorithms.vrf.VrfRouter` does) and serves it through
its own independent :class:`~repro.engine.BatchEngine` — its own
compiled plan, its own cache, its own counters.  A lookup touches
exactly one shard.  The tag widens the key: an IPv6 shard is wider
than 64 bits, where no lane dtype exists, so its vector plan hands
every batch to its scalar plan (``active_backend == "plan"``).  (Replicas of *one* table are the worker pool's
job: see :class:`repro.server.LookupServer`.)

The shards share one :class:`~repro.obs.MetricsRegistry`; per-shard
traffic is visible as the ``engine`` label on
``repro_engine_lookups_total`` (shards are named ``<name>-s<i>``) plus
the dispatcher's own ``repro_engine_shard_dispatch_total``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry
from ..prefix.trie import Fib
from .engine import BatchEngine

__all__ = ["VrfShardedEngine"]


class VrfShardedEngine:
    """VRF-hash sharding: each VRF's traffic hits one coalesced shard."""

    def __init__(
        self,
        width: int,
        factory: Callable[[Fib], object],
        *,
        shards: int = 2,
        max_vrfs: int = 16,
        cache_size: int = 0,
        registry: Optional[MetricsRegistry] = None,
        name: str = "vrf-engine",
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        if max_vrfs < 1:
            raise ValueError("need at least one VRF")
        self.width = width
        self.shards = shards
        self.max_vrfs = max_vrfs
        self.tag_bits = max(1, math.ceil(math.log2(max_vrfs)))
        self.name = name
        self.registry = registry or MetricsRegistry()
        self._factory = factory
        self._cache_size = cache_size
        self._vrfs: Dict[int, Fib] = {}
        # Per shard: the coalesced tag-widened FIB and its engine
        # (None until the shard has a VRF).
        self._fibs: List[Fib] = [
            Fib(self.tag_bits + width) for _ in range(shards)
        ]
        self._engines: List[Optional[BatchEngine]] = [None] * shards
        self._dispatch = self.registry.counter(
            "repro_engine_shard_dispatch_total",
            "Lookups routed to each shard by the VRF-hash dispatcher.")

    # ------------------------------------------------------------------
    # VRF management
    # ------------------------------------------------------------------
    def shard_of(self, vrf_id: int) -> int:
        return vrf_id % self.shards

    def add_vrf(self, vrf_id: int, fib: Fib) -> None:
        """Install (or replace) a VRF's table and rebuild its shard."""
        from ..algorithms.vrf import tag_prefix

        if fib.width != self.width:
            raise ValueError(
                f"VRF table width {fib.width} does not match engine width "
                f"{self.width}"
            )
        if not 0 <= vrf_id < self.max_vrfs:
            raise ValueError(f"VRF id {vrf_id} outside [0, {self.max_vrfs})")
        shard = self.shard_of(vrf_id)
        combined = self._fibs[shard]
        if vrf_id in self._vrfs:
            for prefix, _hop in self._vrfs[vrf_id]:
                combined.delete(tag_prefix(prefix, vrf_id, self.tag_bits))
        self._vrfs[vrf_id] = fib
        for prefix, hop in fib:
            combined.insert(tag_prefix(prefix, vrf_id, self.tag_bits), hop)
        self._rebuild_shard(shard)

    def _rebuild_shard(self, shard: int) -> None:
        engine = self._engines[shard]
        if engine is None:
            self._engines[shard] = BatchEngine(
                self._factory(self._fibs[shard]),
                cache_size=self._cache_size,
                registry=self.registry,
                name=f"{self.name}-s{shard}",
            )
        else:
            # Unknown extent (a whole VRF changed): full invalidation.
            engine.refresh(self._factory(self._fibs[shard]), touched=None)

    def vrf_ids(self) -> List[int]:
        return sorted(self._vrfs)

    def shard_engines(self) -> List[Optional[BatchEngine]]:
        return list(self._engines)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _engine_for(self, vrf_id: int) -> Tuple[BatchEngine, int]:
        if vrf_id not in self._vrfs:
            raise KeyError(f"unknown VRF {vrf_id}")
        shard = self.shard_of(vrf_id)
        return self._engines[shard], shard

    def lookup(self, vrf_id: int, address: int) -> Optional[int]:
        engine, shard = self._engine_for(vrf_id)
        self._dispatch.inc(1, shard=shard)
        return engine.lookup((vrf_id << self.width) | address)

    def lookup_batch(
        self, requests: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """Serve ``(vrf_id, address)`` requests, preserving order.

        Requests are grouped per shard so each shard serves one real
        batch (one counter bump, one histogram sample), then results
        are scattered back into request order.
        """
        groups: Dict[int, List[int]] = {}
        slots: Dict[int, List[int]] = {}
        for i, (vrf_id, address) in enumerate(requests):
            if vrf_id not in self._vrfs:
                raise KeyError(f"unknown VRF {vrf_id}")
            shard = self.shard_of(vrf_id)
            groups.setdefault(shard, []).append(
                (vrf_id << self.width) | address)
            slots.setdefault(shard, []).append(i)
        results: List[Optional[int]] = [None] * len(requests)
        for shard in sorted(groups):
            self._dispatch.inc(len(groups[shard]), shard=shard)
            hops = self._engines[shard].lookup_batch(groups[shard])
            for i, hop in zip(slots[shard], hops):
                results[i] = hop
        return results
