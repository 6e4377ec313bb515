"""The batch dataplane engine: vector plan + cache + telemetry.

:class:`BatchEngine` is the serving layer over one lookup structure:

* packets run through its lane-compiled
  :class:`~repro.core.vector.VectorPlan`, where each step executes once
  per batch as a NumPy kernel over frozen table views.  The plan alone
  decides kernels vs scalar: one that did not lower (a step without an
  array form, or a key wider than 64 bits) hands every batch to the
  :class:`~repro.core.plan.LookupPlan` it embeds, which reads the live
  tables, and :attr:`BatchEngine.active_backend` reports which of the
  two it is;
* an optional :class:`~repro.engine.cache.FibCache` answers hot
  addresses before the plan runs at all;
* every lookup, batch, cache hit/miss, invalidation, and plan
  recompile is counted in a :class:`~repro.obs.MetricsRegistry`.

The engine stays correct under churn by *subscribing to commits*:
:meth:`over_managed` registers a commit listener on a
:class:`~repro.control.ManagedFib`, and every landed batch (applied or
rebuilt) triggers :meth:`refresh` — rebind to the newly committed
structure, patch or recompile the vector plan, and invalidate exactly
the cache entries covered by the batch's touched prefixes.  Rolled-back
batches leave the committed structure untouched, so no listener fires
and the cache stays valid by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.plan import LookupPlan
from ..core.vector import VectorError, VectorPlan
from ..obs import MetricsRegistry
from ..prefix.prefix import Prefix
from .cache import FibCache

__all__ = ["BatchEngine", "ENGINE_BATCH_BUCKETS"]

#: Deterministic batch-size histogram bounds (packets per batch).
ENGINE_BATCH_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384)


class BatchEngine:
    """Compiled batch lookups over one algorithm, with a FIB cache.

    ``backend`` is not a choice: the vector plan decides kernels vs
    scalar itself.  ``"auto"`` (what ``bench/`` passes) is the only
    legal value; anything else raises ``ValueError``.
    """

    def __init__(
        self,
        algo,
        *,
        cache_size: int = 0,
        registry: Optional[MetricsRegistry] = None,
        name: str = "engine",
        cache_sample: int = 8,
        backend: str = "auto",
        patch_threshold: int = 256,
    ):
        if backend != "auto":
            raise ValueError(f"backend {backend!r}: only 'auto' is accepted")
        self.name = name
        self.registry = registry or MetricsRegistry()
        self._algo = algo
        #: Largest committed delta (route count) eligible for plan
        #: patching; bigger batches take the full-recompile path, where
        #: one rebuild beats many per-step regenerations.  ``0``
        #: disables patching outright.
        self.patch_threshold = patch_threshold
        self._managed = None
        self.cache: Optional[FibCache] = (
            FibCache(cache_size, name=f"{name}-cache", sample=cache_sample)
            if cache_size else None
        )
        reg = self.registry
        self._lookups = reg.counter(
            "repro_engine_lookups_total", "Lookups served by the engine.")
        self._cache_hits = reg.counter(
            "repro_engine_cache_hits_total", "Lookups answered by the FIB cache.")
        self._cache_misses = reg.counter(
            "repro_engine_cache_misses_total", "Cache misses (plan executed).")
        self._batches = reg.counter(
            "repro_engine_batches_total", "Batches served by the engine.")
        self._batch_size = reg.histogram(
            "repro_engine_batch_size", ENGINE_BATCH_BUCKETS,
            "Packets per served batch.")
        self._cache_entries = reg.gauge(
            "repro_engine_cache_entries", "Live FIB-cache entries.")
        self._invalidated = reg.counter(
            "repro_engine_cache_invalidated_total",
            "Cache entries dropped by commit invalidation.")
        self._recompiles = reg.counter(
            "repro_engine_plan_recompiles_total",
            "Plan recompilations (one per landed update batch).")
        self._patches = reg.counter(
            "repro_engine_plan_patches_total",
            "Landed batches absorbed by in-place plan patches "
            "(no recompile).")
        self._commits = reg.counter(
            "repro_engine_commits_total",
            "Managed-runtime commits observed, by outcome.")
        self._backend_gauge = reg.gauge(
            "repro_engine_backend",
            "Active execution backend (1 on the active engine/backend "
            "label pair).")
        self._lowered_gauge = reg.gauge(
            "repro_engine_vector_lowered_steps",
            "Steps the lane compiler lowered to batch kernels.")
        # The batch path's three series, label keys resolved once.
        self._batches_series = self._batches.labels(engine=name)
        self._batch_size_series = self._batch_size.labels()
        self._lookups_series = self._lookups.labels(engine=name)
        self._vector: VectorPlan
        self._compile()

    def _compile(self) -> None:
        """(Re)compile the vector plan (and the scalar plan it embeds),
        then refresh the lowering gauges."""
        self._vector = self._algo.compile_vector_plan()
        self._lowered_gauge.set(len(self._vector.lowered_steps),
                                engine=self.name)
        active = self.active_backend
        for backend in ("plan", "vector"):
            self._backend_gauge.set(1 if backend == active else 0,
                                    engine=self.name, backend=backend)

    # ------------------------------------------------------------------
    @property
    def algo(self):
        """The committed structure currently being served."""
        return self._algo

    @property
    def plan(self) -> LookupPlan:
        """The scalar plan the vector plan embeds (and delegates to
        when it did not lower)."""
        return self._vector.plan

    @property
    def vector_plan(self) -> VectorPlan:
        """The lane-compiled plan every lookup runs through."""
        return self._vector

    @property
    def active_backend(self) -> str:
        """A read-only report: ``"vector"`` when the plan lowered to
        kernels, ``"plan"`` when it delegates to its scalar plan."""
        return "vector" if self._vector.fully_lowered else "plan"

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        self._lookups.inc(1, engine=self.name)
        cache = self.cache
        if cache is not None:
            hit, hop = cache.probe(address)
            if hit:
                self._cache_hits.inc(1, engine=self.name)
                return hop
            self._cache_misses.inc(1, engine=self.name)
        hop = self._vector.lookup(address)
        if cache is not None:
            cache.put(address, hop)
            self._cache_entries.set(len(cache), engine=self.name)
        return hop

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        n = len(addresses)
        self._batches_series.inc()
        self._batch_size_series.observe(n)
        self._lookups_series.inc(n)
        cache = self.cache
        if cache is None:
            return self._vector.lookup_batch_hops(addresses)
        # Probe the cache first, then run every miss through the plan
        # as ONE batch and scatter the answers back.
        probe = cache.probe
        put = cache.put
        results: List[Optional[int]] = [None] * n
        miss_slots: List[int] = []
        miss_addrs: List[int] = []
        hits = 0
        for i, address in enumerate(addresses):
            hit, hop = probe(address)
            if hit:
                results[i] = hop
                hits += 1
            else:
                miss_slots.append(i)
                miss_addrs.append(address)
        if miss_addrs:
            for i, address, hop in zip(
                    miss_slots, miss_addrs,
                    self._vector.lookup_batch_hops(miss_addrs)):
                put(address, hop)
                results[i] = hop
        self._cache_hits.inc(hits, engine=self.name)
        self._cache_misses.inc(n - hits, engine=self.name)
        self._cache_entries.set(len(cache), engine=self.name)
        return results

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def refresh(self, algo=None,
                touched: Optional[Sequence[Prefix]] = None,
                delta=None) -> None:
        """Rebind to ``algo`` (or recompile in place) after an update.

        ``touched`` scopes cache invalidation to the prefixes a landed
        batch changed; ``None`` means "unknown extent" and clears the
        whole cache (the only safe answer without that information).

        ``delta`` is the committed :class:`~repro.control.FibDelta`
        when the runtime applied the batch in place.  The lowered plan
        is then *patched*: compiled again over the same scalar plan with
        the old views as ``prev``, so each table replays just its write
        log into its view — O(delta), not O(table) — counted in
        ``repro_engine_plan_patches_total``.  A delta over
        :attr:`patch_threshold`, a rebuilt (new) structure, a plan that
        did not lower, or a patch that does not lower over exactly the
        old steps falls back to the full recompile.
        """
        same_structure = algo is None or algo is self._algo
        if algo is not None:
            self._algo = algo
        if same_structure and self._try_patch(delta):
            self._patches.inc(1, engine=self.name)
        else:
            self._compile()
            self._recompiles.inc(1, engine=self.name)
        cache = self.cache
        if cache is not None:
            if touched is None:
                dropped = cache.clear()
            else:
                dropped = cache.invalidate(touched)
            self._invalidated.inc(dropped, engine=self.name)
            self._cache_entries.set(len(cache), engine=self.name)

    def _try_patch(self, delta) -> bool:
        """Patch the vector plan for ``delta`` if possible.

        The scalar plan inside needs nothing: it reads the live tables,
        so the patch keeps it and re-freezes only the views.  A plan
        that did not lower has none and recompiles instead.  The patch
        must lower over exactly the old step names: a delta that grew
        the program (a deeper search) names a step the old scalar plan
        lacks, one that shrank it leaves a step without a spec, and
        either way the caller's full recompile takes over.
        """
        old = self._vector
        if delta is None or not old.fully_lowered \
                or not self.patch_threshold \
                or len(delta) > self.patch_threshold:
            return False
        try:
            new = VectorPlan(self._algo, plan=old.plan, prev=old.view_map())
        except VectorError:
            return False
        if not new.fully_lowered:
            return False
        self._vector = new
        return True

    def warm(self, addresses: Sequence[int]) -> None:
        """Pre-populate the cache by looking the addresses up."""
        for address in addresses:
            self.lookup(address)

    def seed_cache(self, tally, limit: Optional[int] = None) -> int:
        """Warm the cache from an ``obs.accounting`` hit tally
        (addresses -> counts); see :meth:`FibCache.seed`."""
        if self.cache is None:
            return 0
        seeded = self.cache.seed(tally, self._vector.lookup, limit=limit)
        self._cache_entries.set(len(self.cache), engine=self.name)
        return seeded

    def cache_hit_ratio(self) -> float:
        return self.cache.hit_rate() if self.cache is not None else 0.0

    # ------------------------------------------------------------------
    # Managed-runtime integration
    # ------------------------------------------------------------------
    @classmethod
    def over_managed(cls, managed, *, registry: Optional[MetricsRegistry] = None,
                     **kwargs) -> "BatchEngine":
        """An engine serving ``managed``'s committed structure.

        Shares the runtime's registry by default and subscribes to its
        commits: applied/rebuilt batches recompile the plan and
        invalidate the touched cache entries; rollbacks change nothing
        and therefore notify nothing.
        """
        engine = cls(managed.algo,
                     registry=registry if registry is not None else managed.registry,
                     **kwargs)
        engine._managed = managed
        managed.add_commit_listener(engine.on_commit)
        return engine

    def on_commit(self, outcome: str, algo,
                  touched: Sequence[Prefix], delta=None) -> None:
        """Commit listener: called by ManagedFib after a landed batch.

        ``delta`` may be passed explicitly (worker pools relaying a
        shipped delta); otherwise the runtime's ``last_delta`` for the
        batch just committed is used when this engine was built with
        :meth:`over_managed`.
        """
        self._commits.inc(1, engine=self.name, outcome=outcome)
        if delta is None and self._managed is not None:
            delta = self._managed.last_delta
        self.refresh(algo, touched, delta=delta)
