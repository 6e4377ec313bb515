"""The managed FIB runtime: transactional updates over any algorithm.

:class:`ManagedFib` wraps a :class:`~repro.algorithms.base.LookupAlgorithm`
in the control loop a production switch would run around it:

* **Transactional batches.**  Each update batch lands on a snapshot
  work copy; the committed structure and the oracle FIB only advance
  when the whole batch succeeds.  A mid-batch failure rolls everything
  back (oracle via an undo journal, structure by discarding the copy).
* **Rebuild fallback.**  Algorithms whose update discipline is
  ``rebuild`` or ``unsupported`` (Appendix A.3) are rebuilt from the
  oracle once per batch — a *planned* rebuild that does not degrade
  health.  In-place algorithms that hit a persistent fault fall back
  to a *recovery* rebuild, bounded by the policy's rebuild budget.
* **Retry with backoff.**  Transient faults retry up to
  ``max_retries`` times with exponential (simulated, never slept)
  backoff.
* **Capacity guards.**  After each landed batch the Tofino-2 mapping
  is re-derived via :func:`~repro.chip.tofino2.tofino2_fit_report`; a
  hard trip (TCAM blocks / SRAM pages / stages over budget) rolls the
  batch back, a soft trip (d-left overflow cells in use) forces a
  recovery rebuild.  The runtime is never HEALTHY while a guard trips.
* **Differential checking.**  Every landed batch is probed against the
  oracle; a divergence triggers one recovery rebuild, and if it
  persists the runtime goes FAILED and shrinks the accumulated trace
  to a minimal reproduction.

Accounting invariant, asserted by the tests: every batch ends in
exactly one of *applied*, *rebuilt*, or *rolled back*, and every
injected fault is either *absorbed* at validation or *recovered* by
retry/rollback/rebuild.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..algorithms.base import (
    UPDATE_IN_PLACE,
    LookupAlgorithm,
    UpdateUnsupported,
)
from ..chip.tofino2 import tofino2_fit_report
from ..obs import MetricsRegistry
from ..prefix.prefix import Prefix, PrefixError
from ..prefix.trie import Fib
from .check import (
    DifferentialChecker,
    Violation,
    make_failure_predicate,
    shrink_trace,
)
from .churn import ANNOUNCE, WITHDRAW, UpdateOp
from .delta import DeltaOp, FibDelta
from .events import EventLog
from .faults import FaultPlan, SimulatedFault


class Health(str, enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    REBUILDING = "rebuilding"
    FAILED = "failed"

    def __str__(self) -> str:  # deterministic rendering in event logs
        return self.value


#: Numeric encoding of :class:`Health` for the ``repro_health_state``
#: gauge (higher = worse), so dashboards can alert on thresholds.
HEALTH_GAUGE_VALUES = {
    Health.HEALTHY: 0,
    Health.DEGRADED: 1,
    Health.REBUILDING: 2,
    Health.FAILED: 3,
}

#: Deterministic batch-size histogram bounds (update ops per batch).
BATCH_SIZE_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


@dataclass(frozen=True)
class RuntimePolicy:
    """Tunables for the managed runtime's failure handling."""

    #: In-place retries after a transient fault (total attempts = +1).
    max_retries: int = 2
    #: First backoff interval, seconds; doubles per retry.  Backoff is
    #: *simulated* (accumulated, never slept) to keep runs fast and
    #: deterministic.
    backoff_base: float = 0.001
    #: Recovery rebuilds allowed before the runtime goes FAILED.
    #: Planned rebuilds (rebuild/unsupported disciplines) are free.
    rebuild_budget: int = 64
    #: Consecutive clean batches needed to leave DEGRADED.
    degraded_window: int = 3
    #: Differential-check every Nth batch (1 = every batch, 0 = never).
    check_every: int = 1
    #: Capacity-guard inspection every Nth batch (0 = never).
    guard_every: int = 1
    #: Shrink the trace to a minimal repro when going FAILED.
    shrink_on_failure: bool = True
    max_shrink_evals: int = 200
    #: Apply batches as in-place deltas on algorithms that support it
    #: (``supports_delta``), skipping the per-batch snapshot copy.
    #: ``False`` forces the legacy copy-then-commit path everywhere.
    delta_updates: bool = True


@dataclass(frozen=True)
class CapacityGuard:
    """Resource envelope the committed structure must fit.

    ``None`` budgets default to the full Tofino-2 envelope (one
    recirculation); tighter values model sharing the pipe with other
    programs.  ``dleft_overflow_limit`` is the *soft* guard: overflow
    cells in use beyond it mean the d-left provisioning no longer fits
    its design load and the structure should be re-provisioned.
    """

    tcam_blocks: Optional[int] = None
    sram_pages: Optional[int] = None
    stage_budget: Optional[int] = None
    dleft_overflow_limit: int = 0

    def inspect(self, algo: LookupAlgorithm) -> Tuple[List[str], List[str]]:
        """``(hard_reasons, soft_reasons)`` for the current structure."""
        hard: List[str] = []
        soft: List[str] = []
        try:
            layout = algo.layout()
        except Exception:
            layout = None  # no layout -> nothing to map
        if layout is not None:
            _, reasons = tofino2_fit_report(
                layout, self.tcam_blocks, self.sram_pages, self.stage_budget
            )
            hard.extend(reasons)
        hash_table = getattr(algo, "hash_table", None)
        overflow = getattr(hash_table, "overflow_count", 0)
        if overflow > self.dleft_overflow_limit:
            soft.append(
                f"d-left overflow cells {overflow} > limit "
                f"{self.dleft_overflow_limit}"
            )
        return hard, soft


class ManagedFib:
    """A lookup structure plus the control loop that keeps it honest."""

    def __init__(
        self,
        factory: Callable[[Fib], LookupAlgorithm],
        base: Fib,
        policy: Optional[RuntimePolicy] = None,
        guard: Optional[CapacityGuard] = None,
        faults: Optional[FaultPlan] = None,
        check_seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        algo: Optional[LookupAlgorithm] = None,
    ):
        self.factory = factory
        self.policy = policy or RuntimePolicy()
        self.guard = guard or CapacityGuard()
        self.faults = faults or FaultPlan.none()
        #: Telemetry: event counters are mirrored here, batch outcomes
        #: and sizes are deterministic instruments, and apply/rollback/
        #: rebuild latencies land in the wall-clock timings section.
        self.registry = registry or MetricsRegistry()
        self._health_gauge = self.registry.gauge(
            "repro_health_state",
            "Managed-runtime health (0 healthy .. 3 failed).")
        self._batch_size_histogram = self.registry.histogram(
            "repro_batch_size", BATCH_SIZE_BUCKETS,
            "Update ops per applied batch.")
        self.log = EventLog(registry=self.registry)
        self.oracle = base.copy()
        # A prebuilt structure (e.g. an artifact warm start) skips the
        # factory build; it must already reflect ``base`` exactly.
        self.algo = algo if algo is not None else factory(base.copy())
        self._base = base.copy()
        self.checker = DifferentialChecker(base.width, seed=check_seed)
        self.health = Health.HEALTHY
        self.simulated_backoff_s = 0.0
        self.minimal_repro: Optional[List[UpdateOp]] = None
        self._guard_tripped = False
        self._recovery_rebuilds = 0
        self._healthy_streak = 0
        self._incident_flag = False
        self._batch_index = -1
        self._trace: List[UpdateOp] = []
        #: The committed delta of the most recent *applied* batch
        #: (None after rebuilds and rollbacks).  Commit listeners read
        #: this to patch plans / ship deltas instead of recompiling.
        self.last_delta: Optional[FibDelta] = None
        self._commit_listeners: List[
            Callable[[str, LookupAlgorithm, List[Prefix]], None]] = []
        self._health_gauge.set(HEALTH_GAUGE_VALUES[self.health])

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        return self.algo.lookup(address)

    def __len__(self) -> int:
        return len(self.oracle)

    # ------------------------------------------------------------------
    # Commit listeners (cache/plan invalidation contract)
    # ------------------------------------------------------------------
    def add_commit_listener(
        self,
        listener: Callable[[str, LookupAlgorithm, List[Prefix]], None],
    ) -> None:
        """Subscribe to committed batches.

        ``listener(outcome, algo, touched)`` fires after every *landed*
        batch — ``outcome`` is ``"batch_applied"`` or
        ``"batch_rebuilt"``, ``algo`` the newly committed structure,
        ``touched`` the prefixes the batch changed.  Rolled-back
        batches do not notify: the committed structure (and therefore
        anything derived from it — compiled plans, cache contents)
        is unchanged by construction.
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        self._commit_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Blue/green adoption (artifact reloads)
    # ------------------------------------------------------------------
    def adopt(self, algo: LookupAlgorithm, base: Fib) -> None:
        """Atomically become ``algo`` serving ``base``.

        The blue/green path: the new structure was built (or loaded
        from the artifact catalog) off to the side, and the server
        flips to it under its commit gate.  Commit listeners are *not*
        fired — the caller owns the flip and refreshes its engines
        itself, exactly because this swap must happen inside the
        caller's write section.
        """
        if base.width != self.oracle.width:
            raise ValueError(
                f"cannot adopt width-{base.width} table into a "
                f"width-{self.oracle.width} runtime")
        self.algo = algo
        self.oracle = base.copy()
        self._base = base.copy()
        self.last_delta = None
        self.log.record("adopt", self._batch_index, size=len(self.oracle))

    # ------------------------------------------------------------------
    # Health plumbing
    # ------------------------------------------------------------------
    def _set_health(self, new: Health, batch: int) -> None:
        if new is Health.HEALTHY and self._guard_tripped:
            # Invariant: a tripped capacity guard pins us at DEGRADED.
            new = Health.DEGRADED
        if self.health is Health.FAILED:
            return  # FAILED is terminal
        if new is not self.health:
            self.log.record("health", batch, old=str(self.health), new=str(new))
            self.health = new
            self._health_gauge.set(HEALTH_GAUGE_VALUES[new])

    def _incident(self, batch: int) -> None:
        self._healthy_streak = 0
        self._incident_flag = True
        self._set_health(Health.DEGRADED, batch)

    # ------------------------------------------------------------------
    # Oracle staging (undo journal)
    # ------------------------------------------------------------------
    def _stage(self, journal: List[Tuple[str, Prefix, Optional[int]]],
               op: UpdateOp, prefix: Prefix) -> None:
        prev = self.oracle.get(prefix)
        if op.action == ANNOUNCE:
            journal.append((ANNOUNCE, prefix, prev))
            self.oracle.insert(prefix, op.next_hop)
        else:
            journal.append(("withdraw", prefix, prev))
            self.oracle.delete(prefix)

    def _unstage(self, journal: List[Tuple[str, Prefix, Optional[int]]]) -> None:
        with self.registry.timer("repro_rollback"):
            for action, prefix, prev in reversed(journal):
                if action == ANNOUNCE:
                    if prev is None:
                        self.oracle.delete(prefix)
                    else:
                        self.oracle.insert(prefix, prev)
                else:
                    self.oracle.insert(prefix, prev)
            journal.clear()

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------
    def apply_batch(self, ops: Sequence[UpdateOp]) -> str:
        """Apply one update batch; returns the outcome event kind."""
        self._batch_size_histogram.observe(len(ops))
        with self.registry.timer("repro_batch_apply"):
            outcome = self._apply_batch(ops)
        self.registry.counter(
            "repro_batch_outcomes_total", "Batches by final outcome."
        ).inc(1, outcome=outcome)
        return outcome

    def _apply_batch(self, ops: Sequence[UpdateOp]) -> str:
        self._batch_index += 1
        b = self._batch_index
        self._incident_flag = False
        self.log.record("batch", b, size=len(ops))

        if self.health is Health.FAILED:
            self.log.record("rollback", b, reason="runtime failed")
            self.log.record("batch_rolled_back", b, reason="runtime failed")
            return "batch_rolled_back"

        # 1. Trace faults corrupt the stream; account each marked op.
        ops = self.faults.mutate(b, list(ops))
        for op in ops:
            if op.fault is not None:
                self.log.record("fault_injected", b, fault=op.fault)
                self.log.tally(f"fault:{op.fault}")

        # 2. Validation: absorb hostile input, stage the rest on the
        #    oracle under an undo journal.
        journal: List[Tuple[str, Prefix, Optional[int]]] = []
        valid: List[Tuple[UpdateOp, Prefix]] = []
        for op in ops:
            reason = None
            prefix = None
            try:
                prefix = op.resolve()
            except PrefixError as exc:
                reason = f"malformed prefix: {exc}"
            if reason is None and prefix.width != self.oracle.width:
                reason = f"width {prefix.width} != table width {self.oracle.width}"
            if reason is None and op.action == ANNOUNCE and (
                op.next_hop is None or op.next_hop < 0
            ):
                reason = f"bad next hop {op.next_hop}"
            if reason is None and op.action != ANNOUNCE and prefix not in self.oracle:
                reason = "withdraw of a route not in the table"
            if reason is not None:
                self.log.record("op_absorbed", b, op=op.render(), reason=reason)
                if op.fault is not None:
                    self.log.record("fault_absorbed", b, fault=op.fault)
                continue
            if op.fault is not None:
                # An injected op that happens to be valid (e.g. a ghost
                # withdraw colliding with a live route): it lands like
                # any other op, which *is* absorbing it — account it so
                # the injected == absorbed + recovered identity holds.
                self.log.record("fault_absorbed", b, fault=op.fault,
                                how="benign-applied")
            self._stage(journal, op, prefix)
            valid.append((op, prefix))

        # 3. Arm runtime faults against the post-validation op list so
        #    fault positions line up with the in-place apply loop.
        armed = self.faults.arm(b, [op for op, _ in valid])
        for name in armed:
            self.log.record("fault_injected", b, fault=name)
            self.log.tally(f"fault:{name}")

        # The batch as a FibDelta: the journal (1:1 with ``valid``)
        # supplies each op's previous hop, so the delta is invertible.
        delta = FibDelta([
            DeltaOp(ANNOUNCE if op.action == ANNOUNCE else WITHDRAW,
                    prefix,
                    next_hop=op.next_hop if op.action == ANNOUNCE else None,
                    prev_hop=prev)
            for (op, prefix), (_action, _prefix, prev) in zip(valid, journal)
        ])

        # 4. Land the batch on the structure.
        outcome = None
        new_algo = None
        in_place_delta = False
        if self.policy.delta_updates and self.algo.supports_delta:
            new_algo, outcome = self._apply_delta(b, delta, armed)
            in_place_delta = outcome == "batch_applied"
        elif self.algo.update_strategy == UPDATE_IN_PLACE:
            new_algo, outcome = self._apply_in_place(b, valid, armed)
        else:
            # Planned per-batch rebuild (rebuild/unsupported discipline).
            new_algo = self._rebuild(b, planned=True)
            outcome = "batch_rebuilt"
            for name in armed:
                self.log.record("fault_recovered", b, fault=name, how="rebuild")

        if new_algo is None:
            # Recovery exhausted: roll the whole batch back.  (The
            # delta path already undid its partial progress.)
            self._unstage(journal)
            self.log.record("batch_rolled_back", b, reason=outcome)
            self._incident(b)
            if outcome == "rebuild budget exhausted":
                self._fail(b, reason=outcome)
            return "batch_rolled_back"

        # 5. Capacity guards.
        if self.policy.guard_every and b % self.policy.guard_every == 0:
            undo = None
            if in_place_delta:
                def undo():
                    # A delta batch mutated the live structure: restore
                    # it (oracle first, so the rollback safety net
                    # rebuilds from the pre-batch table) before the
                    # guard inspects the committed state.
                    self._unstage(journal)
                    self._rollback_delta(b, delta)
            kept, outcome = self._enforce_guards(b, new_algo, valid, outcome,
                                                 rollback=undo)
            if not kept:
                # Armed runtime faults were already accounted when the
                # in-place/rebuild path resolved them above.  A hard
                # trip on the delta path already ran ``undo``.
                if not in_place_delta:
                    self._unstage(journal)
                self.log.record("batch_rolled_back", b, reason="capacity guard")
                self._incident(b)
                return "batch_rolled_back"
            new_algo = kept if kept is not True else new_algo

        # 6. Differential check against the staged oracle.
        if self.policy.check_every and b % self.policy.check_every == 0:
            checked = self._enforce_consistency(b, new_algo,
                                                [p for _, p in valid])
            if checked is None:
                self._unstage(journal)
                if in_place_delta:
                    self._rollback_delta(b, delta)
                self.log.record("batch_rolled_back", b,
                                reason="unrecoverable divergence")
                self._fail(b, reason="differential check failed after rebuild",
                           extra_ops=[op for op, _ in valid])
                return "batch_rolled_back"
            if checked is not True:
                new_algo = checked
                outcome = "batch_rebuilt"

        # 7. Commit.
        self.algo = new_algo
        self.last_delta = delta if outcome == "batch_applied" else None
        self._trace.extend(op for op, _ in valid)
        for op, _ in valid:
            self.log.record("op_applied", b, op=op.render())
        self.log.record(outcome, b)
        touched = [prefix for _, prefix in valid]
        for listener in list(self._commit_listeners):
            listener(outcome, self.algo, touched)
        if not self._incident_flag and not self._guard_tripped:
            self._healthy_streak += 1
        if (
            self.health is Health.DEGRADED
            and not self._guard_tripped
            and self._healthy_streak >= self.policy.degraded_window
        ):
            self._set_health(Health.HEALTHY, b)
        elif self.health is Health.REBUILDING:
            self._set_health(
                Health.DEGRADED if self._guard_tripped else Health.HEALTHY, b
            )
        return outcome

    # ------------------------------------------------------------------
    # In-place application with retry/rebuild fallback
    # ------------------------------------------------------------------
    def _apply_in_place(
        self,
        b: int,
        valid: List[Tuple[UpdateOp, Prefix]],
        armed: List[str],
    ) -> Tuple[Optional[LookupAlgorithm], str]:
        last_fault: Optional[SimulatedFault] = None
        for attempt in range(self.policy.max_retries + 1):
            work = self.algo.snapshot()
            try:
                work.begin_update_batch()
                for i, (op, prefix) in enumerate(valid):
                    fault = self.faults.should_raise(attempt, i)
                    if fault is not None:
                        raise fault
                    if op.action == ANNOUNCE:
                        work.insert(prefix, op.next_hop)
                    else:
                        work.delete(prefix)
                work.end_update_batch()
            except SimulatedFault as fault:
                last_fault = fault
                self.log.record("rollback", b, fault=fault.fault_name,
                                attempt=attempt)
                self._incident(b)
                if fault.transient and attempt < self.policy.max_retries:
                    backoff = self.policy.backoff_base * (2 ** attempt)
                    self.simulated_backoff_s += backoff
                    self.log.record("retry", b, attempt=attempt + 1,
                                    backoff_ms=round(backoff * 1000, 3))
                    continue
                break
            except UpdateUnsupported:
                # The algorithm refused mid-batch; fall back to rebuild.
                self.log.record("rollback", b, reason="update unsupported",
                                attempt=attempt)
                last_fault = None
                break
            else:
                # Success: the armed transient faults were ridden out.
                for name in armed:
                    self.log.record("fault_recovered", b, fault=name,
                                    how="retry" if attempt else "clean-pass")
                return work, "batch_applied"

        # Retries exhausted or non-transient failure: recovery rebuild.
        if self._recovery_rebuilds >= self.policy.rebuild_budget:
            for name in armed:
                self.log.record("fault_recovered", b, fault=name,
                                how="rollback")
            return None, "rebuild budget exhausted"
        rebuilt = self._rebuild(b, planned=False)
        for name in armed:
            self.log.record("fault_recovered", b, fault=name, how="rebuild")
        if last_fault is not None:
            self._incident(b)
        return rebuilt, "batch_rebuilt"

    # ------------------------------------------------------------------
    # Delta application: mutate the live structure, no snapshot copy
    # ------------------------------------------------------------------
    def _apply_delta(
        self,
        b: int,
        delta: FibDelta,
        armed: List[str],
    ) -> Tuple[Optional[LookupAlgorithm], str]:
        """Land the batch as an in-place delta on ``self.algo``.

        The per-batch ``snapshot()`` deep copy — the dominant commit
        cost at AS65000 scale — is skipped entirely; rollback safety
        comes from the delta's own invertibility instead.  Fault
        semantics mirror :meth:`_apply_in_place`: transient faults
        retry with backoff, persistent ones fall back to a recovery
        rebuild, and an :class:`UpdateUnsupported` mid-delta (a
        declared capability boundary, e.g. DXR declining a very broad
        short prefix) falls back to a *planned* rebuild.
        """
        last_fault: Optional[SimulatedFault] = None
        for attempt in range(self.policy.max_retries + 1):
            applied = 0
            try:
                self.algo.begin_update_batch()
                try:
                    for i, dop in enumerate(delta.ops):
                        fault = self.faults.should_raise(attempt, i)
                        if fault is not None:
                            raise fault
                        self.algo.apply_delta_op(dop)
                        applied += 1
                finally:
                    self.algo.end_update_batch()
            except SimulatedFault as fault:
                self._undo_partial_delta(b, delta, applied)
                last_fault = fault
                self.log.record("rollback", b, fault=fault.fault_name,
                                attempt=attempt)
                self._incident(b)
                if fault.transient and attempt < self.policy.max_retries:
                    backoff = self.policy.backoff_base * (2 ** attempt)
                    self.simulated_backoff_s += backoff
                    self.log.record("retry", b, attempt=attempt + 1,
                                    backoff_ms=round(backoff * 1000, 3))
                    continue
                break
            except UpdateUnsupported:
                self._undo_partial_delta(b, delta, applied)
                self.log.record("rollback", b, reason="update unsupported",
                                attempt=attempt)
                rebuilt = self._rebuild(b, planned=True)
                for name in armed:
                    self.log.record("fault_recovered", b, fault=name,
                                    how="rebuild")
                return rebuilt, "batch_rebuilt"
            else:
                for name in armed:
                    self.log.record("fault_recovered", b, fault=name,
                                    how="retry" if attempt else "clean-pass")
                return self.algo, "batch_applied"

        # Retries exhausted or non-transient failure: recovery rebuild.
        if self._recovery_rebuilds >= self.policy.rebuild_budget:
            for name in armed:
                self.log.record("fault_recovered", b, fault=name,
                                how="rollback")
            return None, "rebuild budget exhausted"
        rebuilt = self._rebuild(b, planned=False)
        for name in armed:
            self.log.record("fault_recovered", b, fault=name, how="rebuild")
        if last_fault is not None:
            self._incident(b)
        return rebuilt, "batch_rebuilt"

    def _undo_partial_delta(self, b: int, delta: FibDelta,
                            applied: int) -> None:
        """Return ``self.algo`` to its pre-batch state after ``applied``
        delta ops landed, via inverse ops (newest first)."""
        if applied == 0:
            return
        try:
            for dop in reversed(delta.ops[:applied]):
                self.algo.apply_delta_op(dop.inverse())
        except Exception:
            # Last resort: reconstruct the pre-batch table (the staged
            # oracle minus the whole batch) and rebuild from it.  No
            # listener fires — serving still holds pre-batch plans.
            self.log.record("delta_undo_rebuild", b)
            base = self.oracle.copy()
            self._replay_inverse(base, delta)
            self.algo = self.factory(base)

    def _rollback_delta(self, b: int, delta: FibDelta) -> None:
        """Undo a fully-applied delta on ``self.algo`` (post-apply
        rollback: hard guard trip or unrecoverable divergence).  The
        oracle has already been unstaged, so the safety net rebuilds
        straight from it."""
        try:
            for dop in delta.inverse().ops:
                self.algo.apply_delta_op(dop)
        except Exception:
            self.log.record("delta_undo_rebuild", b)
            self.algo = self.factory(self.oracle.copy())

    @staticmethod
    def _replay_inverse(base: Fib, delta: FibDelta) -> None:
        for dop in delta.inverse().ops:
            if dop.action == ANNOUNCE:
                base.insert(dop.prefix, dop.next_hop)
            elif dop.prefix in base:
                base.delete(dop.prefix)

    def _rebuild(self, b: int, planned: bool) -> LookupAlgorithm:
        if planned:
            self.log.record("rebuild_planned", b)
        else:
            previous = self.health
            self._set_health(Health.REBUILDING, b)
            self.log.record("rebuild_recovery", b)
            self._recovery_rebuilds += 1
            self._healthy_streak = 0
            if previous is not Health.REBUILDING:
                self._set_health(Health.DEGRADED, b)
        with self.registry.timer("repro_rebuild",
                                 planned="true" if planned else "false"):
            return self.factory(self.oracle.copy())

    # ------------------------------------------------------------------
    # Guards and consistency
    # ------------------------------------------------------------------
    def _enforce_guards(self, b, new_algo, valid, outcome, rollback=None):
        """Returns ``(keep, outcome)``; ``keep`` is False to roll back,
        True to keep ``new_algo``, or a replacement structure.

        ``rollback`` (delta batches only) undoes the in-place mutation
        before a hard trip inspects the committed state — without it
        ``self.algo`` would still hold the rejected batch."""
        hard, soft = self.guard.inspect(new_algo)
        if hard:
            self._guard_tripped = True
            self.log.record("guard_trip", b, severity="hard",
                            reasons="; ".join(hard))
            if rollback is not None:
                rollback()
            # Rolling back restores the last committed state; only
            # clear the guard if that state actually fits (it may not,
            # e.g. when the budget was tightened below the base load).
            committed_hard, _ = self.guard.inspect(self.algo)
            if not committed_hard:
                self._guard_tripped = False
                self.log.record("guard_clear", b, how="rollback")
            return False, outcome
        if soft:
            self._guard_tripped = True
            self.log.record("guard_trip", b, severity="soft",
                            reasons="; ".join(soft))
            self._incident(b)
            if self._recovery_rebuilds < self.policy.rebuild_budget:
                new_algo = self._rebuild(b, planned=False)
                outcome = "batch_rebuilt"
                _, soft_after = self.guard.inspect(new_algo)
                if not soft_after:
                    self._guard_tripped = False
                    self.log.record("guard_clear", b, how="rebuild")
            return new_algo, outcome
        if self._guard_tripped:
            self._guard_tripped = False
            self.log.record("guard_clear", b, how="drained")
        return True, outcome

    def _enforce_consistency(self, b, new_algo, touched: List[Prefix]):
        """True if consistent, a rebuilt structure if recovered, or
        ``None`` if divergence survives a rebuild (runtime failure)."""
        probes = self.checker.probe_addresses(touched)
        violations = self.checker.check(new_algo, self.oracle, probes)
        if not violations:
            return True
        for violation in violations[:8]:
            self.log.record("violation", b,
                            detail=violation.render(self.oracle.width))
        self._incident(b)
        if self._recovery_rebuilds >= self.policy.rebuild_budget:
            return None
        rebuilt = self._rebuild(b, planned=False)
        if self.checker.check(rebuilt, self.oracle, probes):
            return None
        return rebuilt

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _fail(self, b: int, reason: str,
              extra_ops: Optional[List[UpdateOp]] = None) -> None:
        self._healthy_streak = 0
        if self.health is not Health.FAILED:
            self.log.record("health", b, old=str(self.health),
                            new=str(Health.FAILED))
            self.health = Health.FAILED
            self._health_gauge.set(HEALTH_GAUGE_VALUES[Health.FAILED])
        self.log.record("failed", b, reason=reason)
        if not self.policy.shrink_on_failure:
            return
        trace = self._trace + list(extra_ops or [])
        fails = make_failure_predicate(self.factory, self._base)
        try:
            self.minimal_repro = shrink_trace(
                trace, fails, max_evals=self.policy.max_shrink_evals
            )
            self.log.record("repro_shrunk", b, from_ops=len(trace),
                            to_ops=len(self.minimal_repro))
        except ValueError:
            # The full-replay predicate cannot reproduce it (e.g. the
            # divergence needed the runtime's own state); keep the
            # whole trace as the repro.
            self.minimal_repro = trace
