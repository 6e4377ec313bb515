"""repro.engine — the batch dataplane.

Lane-compiled lookup plans (:mod:`repro.core.vector`) served through
:class:`BatchEngine` (plan + skew-aware :class:`FibCache` + metrics),
with multi-VRF sharding via :class:`VrfShardedEngine` (VRF-hash).  See
``docs/engine.md``.
"""

from ..core.plan import LookupPlan, PlanError, compile_plan
from ..core.vector import VectorError, VectorPlan, compile_vector_plan
from .cache import FibCache
from .engine import ENGINE_BATCH_BUCKETS, BatchEngine
from .shard import VrfShardedEngine

__all__ = [
    "LookupPlan",
    "PlanError",
    "compile_plan",
    "VectorError",
    "VectorPlan",
    "compile_vector_plan",
    "FibCache",
    "ENGINE_BATCH_BUCKETS",
    "BatchEngine",
    "VrfShardedEngine",
]
