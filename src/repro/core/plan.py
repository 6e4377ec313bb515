"""Compiled lookup plans: the CRAM interpreter, flattened.

:func:`repro.core.interpreter.run` is a faithful model of §2.1's wave
semantics, but it pays for that fidelity on every packet: the program
is validated, the dependency DAG is re-scheduled, and every step gets
its own snapshot of the register file.  A production dataplane cannot
afford any of that per packet, and does not need to — the program, its
schedule, and its table bindings are all fixed between route updates.

:class:`LookupPlan` does the per-program work exactly once:

* ``validate()`` and ``parallel_schedule()`` run at compile time; the
  wave structure is flattened into one tuple of step runners executed
  in schedule order.
* Each table-driven step is compiled to a prebound
  ``(key_selector, reader, action)`` triple.  The reader bypasses the
  :meth:`~repro.core.table.TableSpec.lookup` backing dispatch (and its
  per-access :class:`~repro.obs.AccessStats` bookkeeping): memory
  backings expose ``plan_reader()``, their live, uninstrumented read —
  a ``memoryview`` index for bitmaps, ``dict.get`` for SRAM, the
  bucket walk for d-left, the group walk for TCAM.  Nothing is copied.
* The register file is a single dict, reset from a precomputed base
  state (all registers ``None`` plus ``cram_initial_state()``) and
  reused across a batch, so the steady-state loop allocates nothing
  but the result list.

Running waves sequentially over one shared register file is equivalent
to the interpreter's snapshot semantics because ``validate()`` rejects
programs where two steps in a wave conflict on declared registers —
the same guarantee the interpreter itself leans on.  The conformance
suite (``tests/test_engine_conformance.py``) pins plan == interpreter
== trie oracle for every algorithm in the package.

A plan reads the *live* tables: an in-place delta shows through at
once, so a plan stays exact across the deltas that keep its step list
(every delta of SAIL and RESAIL; DXR's and BSIC's unless a search
chain outgrew it).  Anything else — a rebuilt structure, a deeper
chain — needs a recompile (``compile_plan(algo)``), which
:class:`repro.engine.BatchEngine` does whenever it cannot patch.  A
live read is not a consistent one under a concurrent writer, so a
thread-mode :class:`repro.server.LookupServer` refuses a plan that did
not lower to the frozen lane kernels (:mod:`repro.core.vector`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from .program import CramProgram
from .step import Step

__all__ = ["LookupPlan", "PlanError", "compile_plan"]


class PlanError(ValueError):
    """The program (or its backings) cannot be compiled into a plan."""


def _raw_reader(table) -> Callable[[Any], Any]:
    """An uninstrumented reader for a table's backing.

    Mirrors :meth:`TableSpec.lookup`'s dispatch order (search / load /
    lookup / test / callable) but resolves it once, at compile time,
    and prefers the backing's ``plan_reader()`` when the memory
    simulator provides one.
    """
    backing = table.backing
    if backing is None:
        raise PlanError(f"table {table.name!r} has no behavioural backing")
    plan_reader = getattr(backing, "plan_reader", None)
    if callable(plan_reader):
        return plan_reader()
    for attr in ("search", "load", "lookup", "test"):
        method = getattr(backing, attr, None)
        if callable(method):
            return method
    if callable(backing):
        return backing
    raise PlanError(f"table {table.name!r} backing is not executable")


def _compile_step(step: Step) -> Callable[[dict], None]:
    """One step as a single ``runner(state)`` callable."""
    action = step.action
    if action is None:
        # Statement-based steps (guarded ALU assignments) are rare and
        # cheap; Step.execute already has exactly the right semantics.
        return step.execute
    if step.table is None:
        def run_action_only(state, _action=action):
            _action(state, None)
        return run_action_only
    select = step.table.key_selector
    if select is None:
        raise PlanError(f"step {step.name!r} has a table but no key selector")
    raw = _raw_reader(step.table)
    default = step.table.default
    if default is None:
        def run_table(state, _select=select, _raw=raw, _action=action):
            key = _select(state)
            _action(state, _raw(key) if key is not None else None)
        return run_table

    def run_table_default(state, _select=select, _raw=raw, _action=action,
                          _default=default):
        key = _select(state)
        if key is None:
            _action(state, None)
            return
        result = _raw(key)
        _action(state, _default if result is None else result)
    return run_table_default


class LookupPlan:
    """A compiled, allocation-free execution of one CRAM program."""

    def __init__(self, algo, program: Optional[CramProgram] = None):
        program = program if program is not None else algo.cram_program()
        program.validate()
        waves = program.parallel_schedule()
        step_names = [name for wave in waves for name in wave]
        if "addr" not in program.registers:
            raise PlanError("program declares no 'addr' register")
        base: Dict[str, Any] = {name: None for name in program.registers}
        initial = algo.cram_initial_state()
        unknown = set(initial) - program.registers
        if unknown:
            raise PlanError(f"unknown registers in initial state: {sorted(unknown)}")
        base.update(initial)

        self.algorithm: str = getattr(algo, "name", type(algo).__name__)
        self.width: int = algo.width
        #: The validated source program (the lane compiler re-walks it).
        self.program = program
        #: Step names in execution (schedule) order.
        self.step_names = tuple(step_names)
        #: Wave count of the source schedule (depth, not work).
        self.wave_count = len(waves)
        self._base = base
        self._runners = [_compile_step(program.step(name))
                         for name in step_names]
        self._extract = algo.cram_extract_hop

    def __len__(self) -> int:
        return len(self._runners)

    def lookup(self, address: int) -> Optional[int]:
        """One packet through the compiled step array."""
        state = self._base.copy()
        state["addr"] = address
        for run in self._runners:
            run(state)
        return self._extract(state)

    def lookup_batch(self, addresses: Sequence[int],
                     out: Optional[List[Optional[int]]] = None
                     ) -> List[Optional[int]]:
        """A batch of packets over one reused register file.

        ``out`` lets callers reuse a result list across batches; the
        steady-state loop then allocates nothing per packet.
        """
        if out is not None:
            results = out
            del results[:]  # a reused list must not accumulate batches
        else:
            results = []
        append = results.append
        base = self._base
        runners = self._runners
        extract = self._extract
        state = base.copy()
        for address in addresses:
            state.clear()
            state.update(base)
            state["addr"] = address
            for run in runners:
                run(state)
            append(extract(state))
        return results

    def describe(self) -> Dict[str, Any]:
        """Deterministic plan summary (for telemetry and docs)."""
        return {
            "algorithm": self.algorithm,
            "width": self.width,
            "steps": len(self._runners),
            "waves": self.wave_count,
            "step_names": list(self.step_names),
        }

    def fingerprint(self) -> str:
        """Stable identity of the compiled program's *shape*.

        Hashes the algorithm name, width and ordered step names — the
        things that must re-derive identically when an artifact's
        state import rebuilds this plan.  The artifact store saves it
        at write time and compares after load, so a structurally
        drifted import fails typed instead of serving off the wrong
        program.
        """
        h = hashlib.sha256()
        h.update(f"{self.algorithm}:{self.width}".encode("utf-8"))
        for name in self.step_names:
            h.update(b"\0")
            h.update(name.encode("utf-8"))
        return h.hexdigest()


def compile_plan(algo, program: Optional[CramProgram] = None) -> LookupPlan:
    """Compile ``algo``'s CRAM program into a :class:`LookupPlan`."""
    return LookupPlan(algo, program)
