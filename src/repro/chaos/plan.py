"""Deterministic dataplane fault injection: the chaos plan.

The serving-side twin of :class:`repro.control.faults.FaultPlan`.
Where the control plane's injectors corrupt the *update stream*, these
corrupt the *serving machinery*: kill a worker mid-batch, raise inside
batch execution, delay or drop a snapshot-ack, stall the commit gate.

Determinism is stricter than the control plane's: a fault decision is
a **pure function of** ``(injector name, seed, worker, sequence
number)`` — each query derives a fresh
``random.Random(f"{name}:{seed}:{worker}:{seq}")`` — so the schedule
does not depend on call order, thread interleaving, or when a forked
worker was (re)started.  A restarted worker resumes its sequence
numbers where the dead one stopped, so "kill worker 1 at batch 7"
means the same thing on every run with the same seed.

Two scheduling modes, combinable:

* **rate** — each injector fires on a seeded fraction of events
  (soak-style background chaos);
* **script** — exact ``(kind, worker, seq)`` triggers ("kill worker N
  at batch K"), for pinpoint regression tests.

:class:`ChaosEngine` adapts the plan to thread-mode workers by
wrapping a :class:`~repro.engine.BatchEngine` replica: a ``kill``
raises :class:`~repro.server.coalescer.WorkerCrash` (the worker loop
re-raises it and dies with the batch unscattered), a ``raise`` throws
a retry-safe :class:`ChaosBatchFault` (the batch's futures fail with
a typed error).  Process-mode workers consult the plan directly in
the child: a ``kill`` is a real ``os._exit`` — no cleanup, no goodbye
— and ack faults act on the snapshot-ack protocol itself.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..server.coalescer import ServerError, WorkerCrash

__all__ = [
    "ALL_CHAOS",
    "ChaosBatchFault",
    "ChaosEngine",
    "ChaosInjector",
    "ChaosPlan",
    "WorkerKillFault",
    "BatchExceptionFault",
    "AckDelayFault",
    "AckDropFault",
    "CommitStallFault",
]


class ChaosBatchFault(ServerError):
    """An injected exception inside batch execution (transient)."""

    #: Consulted by :class:`repro.server.supervisor.RetryPolicy`:
    #: the fault fired before any scatter, so a resubmit is safe.
    retry_safe = True


class ChaosInjector:
    """Base class: a named injector with seed-pure decisions."""

    name: str = "chaos"
    #: Probability the injector fires on one event (batch or ack).
    rate: float = 0.05

    def __init__(self, seed: int, rate: Optional[float] = None):
        if rate is not None:
            self.rate = rate
        self.seed = seed

    def _fires(self, worker: int, seq: int) -> bool:
        rng = random.Random(f"{self.name}:{self.seed}:{worker}:{seq}")
        return rng.random() < self.rate

    # Batch-execution faults override this: None, "crash", or "raise".
    def batch_action(self, worker: int, seq: int) -> Optional[str]:
        return None

    # Snapshot-ack faults override this: None or (delay_s, drop).
    def ack_action(self, worker: int,
                   seq: int) -> Optional[Tuple[float, bool]]:
        return None

    # Commit faults override this: seconds to stall the gate (0 = no).
    def commit_stall(self, epoch: int) -> float:
        return 0.0


class WorkerKillFault(ChaosInjector):
    """Hard-kill a worker mid-batch.

    Thread mode: raises :class:`WorkerCrash` out of the engine — the
    worker loop dies with the batch unscattered.  Process mode: the
    child ``os._exit``\\ s.  Either way the supervisor must notice,
    re-queue the orphans, and restart the worker.
    """

    name = "worker_kill"
    rate = 0.05

    def batch_action(self, worker: int, seq: int) -> Optional[str]:
        return "crash" if self._fires(worker, seq) else None


class BatchExceptionFault(ChaosInjector):
    """Raise inside batch execution (a transient engine fault).

    Unlike a kill, the worker survives: the batch's futures fail with
    a retry-safe :class:`ChaosBatchFault` and the worker serves on.
    """

    name = "batch_exception"
    rate = 0.05

    def batch_action(self, worker: int, seq: int) -> Optional[str]:
        return "raise" if self._fires(worker, seq) else None


class AckDelayFault(ChaosInjector):
    """Delay a worker's snapshot-ack by ``delay_s`` (slow re-sync)."""

    name = "ack_delay"
    rate = 0.1
    delay_s = 0.05

    def __init__(self, seed: int, rate: Optional[float] = None,
                 delay_s: Optional[float] = None):
        super().__init__(seed, rate)
        if delay_s is not None:
            self.delay_s = delay_s

    def ack_action(self, worker: int,
                   seq: int) -> Optional[Tuple[float, bool]]:
        if self._fires(worker, seq):
            return (self.delay_s, False)
        return None


class AckDropFault(ChaosInjector):
    """Drop a worker's snapshot-ack entirely (hung worker).

    The commit's ack wait times out, the worker is killed, and the
    restart rebuilds it from the very snapshot it failed to ack — the
    fleet converges instead of wedging every future commit.
    """

    name = "ack_drop"
    rate = 0.05

    def ack_action(self, worker: int,
                   seq: int) -> Optional[Tuple[float, bool]]:
        if self._fires(worker, seq):
            return (0.0, True)
        return None


class CommitStallFault(ChaosInjector):
    """Stall the commit gate (a slow refresh) for ``stall_s``.

    Serving stays quiesced for the stall — queue depth climbs and
    request deadlines keep ticking, which is exactly the pressure the
    health state machine must absorb.
    """

    name = "commit_stall"
    rate = 0.25
    stall_s = 0.02

    def __init__(self, seed: int, rate: Optional[float] = None,
                 stall_s: Optional[float] = None):
        super().__init__(seed, rate)
        if stall_s is not None:
            self.stall_s = stall_s

    def commit_stall(self, epoch: int) -> float:
        # Commits are a single global sequence: key by epoch, worker 0.
        return self.stall_s if self._fires(0, epoch) else 0.0


#: Registry, in a fixed order so ``--chaos all`` is deterministic
#: (mirrors :data:`repro.control.faults.ALL_FAULTS`).
ALL_CHAOS: Dict[str, Type[ChaosInjector]] = {
    cls.name: cls
    for cls in (
        WorkerKillFault,
        BatchExceptionFault,
        AckDelayFault,
        AckDropFault,
        CommitStallFault,
    )
}


class ChaosPlan:
    """An ordered set of chaos injectors plus an exact-trigger script.

    Script events are ``(kind, worker, seq)`` tuples with ``kind`` in
    ``{"kill", "raise", "ack_delay", "ack_drop"}`` — e.g.
    ``("kill", 1, 7)`` kills worker 1 at its 7th batch.  Scripted
    triggers are checked before the rate-based injectors.
    """

    SCRIPT_KINDS = ("kill", "raise", "ack_delay", "ack_drop")

    def __init__(self, injectors: Sequence[ChaosInjector],
                 script: Sequence[Tuple[str, int, int]] = (),
                 *, script_delay_s: float = 0.05):
        self.injectors = list(injectors)
        for kind, _worker, _seq in script:
            if kind not in self.SCRIPT_KINDS:
                raise ValueError(
                    f"unknown script kind {kind!r}; "
                    f"available: {self.SCRIPT_KINDS}")
        self.script = {(kind, worker, seq)
                       for kind, worker, seq in script}
        self.script_delay_s = script_delay_s

    @classmethod
    def build(cls, names: Sequence[str], seed: int,
              rate: Optional[float] = None,
              script: Sequence[Tuple[str, int, int]] = ()) -> "ChaosPlan":
        unknown = [n for n in names if n not in ALL_CHAOS]
        if unknown:
            raise ValueError(
                f"unknown chaos faults {unknown}; "
                f"available: {sorted(ALL_CHAOS)}")
        return cls([ALL_CHAOS[n](seed, rate) for n in names], script)

    @classmethod
    def none(cls) -> "ChaosPlan":
        return cls([])

    # -- queried by the pools / server ---------------------------------
    def batch_action(self, worker: int, seq: int) -> Optional[str]:
        if ("kill", worker, seq) in self.script:
            return "crash"
        if ("raise", worker, seq) in self.script:
            return "raise"
        for injector in self.injectors:
            action = injector.batch_action(worker, seq)
            if action is not None:
                return action
        return None

    def ack_action(self, worker: int,
                   seq: int) -> Optional[Tuple[float, bool]]:
        if ("ack_drop", worker, seq) in self.script:
            return (0.0, True)
        if ("ack_delay", worker, seq) in self.script:
            return (self.script_delay_s, False)
        for injector in self.injectors:
            action = injector.ack_action(worker, seq)
            if action is not None:
                return action
        return None

    def commit_stall(self, epoch: int) -> float:
        return max((injector.commit_stall(epoch)
                    for injector in self.injectors), default=0.0)


class ChaosEngine:
    """A thread-worker engine proxy that executes the chaos plan.

    Wraps one :class:`~repro.engine.BatchEngine` replica; everything
    except ``lookup_batch`` delegates to the wrapped engine (including
    the plan/cache introspection the server uses).
    """

    def __init__(self, engine, plan: ChaosPlan, worker: int):
        self._engine = engine
        self._plan = plan
        self._worker = worker
        self._seq = 0

    def lookup_batch(self, addresses):
        seq = self._seq
        self._seq += 1
        action = self._plan.batch_action(self._worker, seq)
        if action == "crash":
            raise WorkerCrash(
                f"[chaos] worker {self._worker} killed at batch {seq}")
        if action == "raise":
            raise ChaosBatchFault(
                f"[chaos] injected batch exception on worker "
                f"{self._worker} (batch {seq})")
        return self._engine.lookup_batch(addresses)

    def __getattr__(self, name):
        return getattr(self._engine, name)
