"""Concurrent serving frontend over the batch engines.

Layers, bottom-up:

* :mod:`repro.server.coalescer` — FIFO request coalescing with size,
  idle-worker and deadline flush triggers and future-like per-request
  handles;
* :mod:`repro.server.pool` — the :class:`CommitGate` readers/writer
  gate plus :class:`ThreadWorkerPool`: the one worker pool, N worker
  threads over one bounded queue with block/shed backpressure, orphan
  re-queue and restarts (in thread mode every worker runs the server's
  one engine);
* :mod:`repro.server.procpool` — :class:`ForkedReplica`, the second
  replica kind: an engine in a forked child behind a pipe that fills
  the pool's engine slot, shipped a delta or FIB snapshot at each
  commit from the shared :class:`ReplicaSource`;
* :mod:`repro.server.supervisor` — worker supervision (budgeted
  restarts, orphan re-queue), the HEALTHY/DEGRADED/BROWNOUT health
  state machine, and idempotent client-side retries;
* :mod:`repro.server.server` — :class:`LookupServer`, the facade that
  wires the pieces to :class:`~repro.control.ManagedFib` commits and
  :class:`~repro.obs.MetricsRegistry` telemetry;
* :mod:`repro.server.driver` — :func:`serve_workload`, the traffic +
  churn loop behind ``repro serve``, and :class:`EpochAudit`, the
  per-epoch oracle check every serving harness shares.

See ``docs/serving.md`` for the architecture and consistency model,
``docs/robustness.md`` for the dataplane fault model, and
:mod:`repro.chaos` for the deterministic fault-injection harness.
"""

from .coalescer import (
    CoalescedBatch,
    PendingLookup,
    RequestCoalescer,
    RequestShed,
    RequestTimeout,
    ServerClosed,
    ServerError,
    WorkerCrash,
)
from .driver import EpochAudit, serve_workload
from .pool import CommitGate, ThreadWorkerPool
from .procpool import ForkedReplica, ReplicaSource, fib_snapshot
from .server import SERVER_MODES, SERVER_OVERLOAD_POLICIES, LookupServer
from .supervisor import (
    RestartPolicy,
    RetryingClient,
    RetryPolicy,
    ServingHealth,
    ServingState,
    WorkerSupervisor,
)

__all__ = [
    "CoalescedBatch",
    "CommitGate",
    "EpochAudit",
    "ForkedReplica",
    "LookupServer",
    "PendingLookup",
    "ReplicaSource",
    "RequestCoalescer",
    "RequestShed",
    "RequestTimeout",
    "RestartPolicy",
    "RetryPolicy",
    "RetryingClient",
    "SERVER_MODES",
    "SERVER_OVERLOAD_POLICIES",
    "ServerClosed",
    "ServerError",
    "ServingHealth",
    "ServingState",
    "ThreadWorkerPool",
    "WorkerCrash",
    "WorkerSupervisor",
    "fib_snapshot",
    "serve_workload",
]
