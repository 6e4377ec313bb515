"""Common interface for all IP-lookup algorithms.

Every algorithm in this package — the paper's three contributions
(RESAIL, BSIC, MASHUP) and the baselines (SAIL, DXR, multibit trie,
HI-BST, logical TCAM) — implements :class:`LookupAlgorithm`:

* :meth:`~LookupAlgorithm.lookup` — the behavioural longest-prefix
  match, tested against the reference :class:`~repro.prefix.trie.Fib`;
* :meth:`~LookupAlgorithm.cram_program` — the algorithm as an
  executable CRAM model program, from which
  :meth:`~LookupAlgorithm.cram_metrics` derives the §6.4 numbers;
* :meth:`~LookupAlgorithm.layout` — the chip-independent table layout
  that the ideal-RMT and Tofino-2 mappers consume (§6.2);
* :meth:`~LookupAlgorithm.insert` / :meth:`~LookupAlgorithm.delete` —
  incremental updates where the paper describes them (Appendix A.3);
* :meth:`~LookupAlgorithm.compile_plan` /
  :meth:`~LookupAlgorithm.compile_vector_plan` — the program compiled
  for serving.  The scalar plan binds each table's live read, so it
  needs no hook; the lane compiler freezes one view per step, which
  :meth:`~LookupAlgorithm.vector_specs` builds.  There is no patch
  hook: a delta commit is a compile handed the old views as ``prev``,
  and each table replays its write log into its own view.
"""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

from ..chip.layout import Layout
from ..core.idioms import IdiomApplication
from ..core.metrics import CramMetrics, measure
from ..core.program import CramProgram
from ..prefix.prefix import Prefix


class UpdateUnsupported(NotImplementedError):
    """The algorithm does not support this incremental update.

    The managed runtime (:class:`repro.control.ManagedFib`) treats this
    as the signal to fall back to a full rebuild from its oracle FIB;
    algorithms must raise exactly this type — never a bare
    ``NotImplementedError`` and never a silently wrong structure.
    """


#: The three update disciplines of Appendix A.3.
UPDATE_IN_PLACE = "in_place"      # true incremental updates (RESAIL, MASHUP)
UPDATE_REBUILD = "rebuild"        # insert/delete re-derive from an auxiliary database
#                                   (BSIC: the touched slices; HI-BST: everything)
UPDATE_UNSUPPORTED = "unsupported"  # insert/delete raise UpdateUnsupported


class LookupAlgorithm(abc.ABC):
    """Base class for IP lookup algorithms."""

    #: Human-readable name, e.g. ``"RESAIL (min_bmp=13)"``.
    name: str
    #: Address width (32 for IPv4, 64 for the IPv6 global-routing view).
    width: int
    #: How the scheme takes route updates (Appendix A.3): one of
    #: :data:`UPDATE_IN_PLACE`, :data:`UPDATE_REBUILD`,
    #: :data:`UPDATE_UNSUPPORTED`.  The managed runtime routes whole
    #: batches through a single rebuild for the latter two, unless the
    #: scheme takes them as deltas (:attr:`supports_delta`).
    update_strategy: str = UPDATE_UNSUPPORTED

    @abc.abstractmethod
    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix-match next hop for ``address`` (None = miss)."""

    @abc.abstractmethod
    def cram_program(self) -> CramProgram:
        """The algorithm as a CRAM model program."""

    @abc.abstractmethod
    def layout(self) -> Layout:
        """The chip-independent table layout for the chip mappers."""

    def cram_metrics(self) -> CramMetrics:
        """The §6.4 CRAM metrics (TCAM bits, SRAM bits, steps)."""
        return measure(self.cram_program())

    def idioms_applied(self) -> List[IdiomApplication]:
        """Which optimization idioms this algorithm embodies."""
        return []

    # ------------------------------------------------------------------
    # Incremental updates (Appendix A.3); default: unsupported.
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, next_hop: int) -> None:
        raise UpdateUnsupported(
            f"{self.name} does not support insert; rebuild from the FIB "
            "(ManagedFib does this automatically)"
        )

    def delete(self, prefix: Prefix) -> None:
        raise UpdateUnsupported(
            f"{self.name} does not support delete; rebuild from the FIB "
            "(ManagedFib does this automatically)"
        )

    @property
    def supports_updates(self) -> bool:
        """True if :meth:`insert`/:meth:`delete` are usable at all."""
        return self.update_strategy != UPDATE_UNSUPPORTED

    # ------------------------------------------------------------------
    # Delta builds (incremental commit pipeline)
    # ------------------------------------------------------------------
    #: True if :meth:`apply_delta` mutates the live structure in place
    #: instead of requiring a rebuild.  Algorithms that set this must
    #: guarantee every ``apply_delta_op`` either applies fully or
    #: raises (so the managed runtime can undo via inverse ops), and
    #: that their vector views are *frozen* snapshots — an in-place
    #: mutation must never be visible through an already-compiled
    #: kernel.  (The scalar plan reads the live tables by design.)
    supports_delta: bool = False

    def apply_delta_op(self, op: "DeltaOp") -> None:
        """Apply one delta op to the live structure.

        The default dispatches to :meth:`insert`/:meth:`delete`
        (treating a withdraw of an absent prefix as a no-op), which is
        correct for any in-place-updatable algorithm; schemes with a
        cheaper or stricter path override.  Raise
        :class:`UpdateUnsupported` to make the runtime undo the
        partial delta and fall back to a planned rebuild.
        """
        from ..control.churn import ANNOUNCE

        if op.action == ANNOUNCE:
            self.insert(op.prefix, op.next_hop)
        elif op.prev_hop is not None:
            self.delete(op.prefix)

    def apply_delta(self, delta: "FibDelta") -> None:
        """Apply a whole committed delta (batch hooks included)."""
        self.begin_update_batch()
        try:
            for op in delta:
                self.apply_delta_op(op)
        finally:
            self.end_update_batch()

    def vector_extract_factory(self) -> Optional[Callable]:
        """A *frozen* replacement for :meth:`vector_extract_hop`.

        Algorithms whose extraction reads live mutable state (e.g.
        SAIL's ``default_hop``) return a closure over a snapshot of
        that state; the lane compiler re-evaluates the factory on
        every compile (a patch included), so in-place deltas never leak
        through a compiled kernel's extraction.  ``None`` keeps the
        bound method.
        """
        return None

    # ------------------------------------------------------------------
    # Transactional hooks (used by repro.control.runtime.ManagedFib)
    # ------------------------------------------------------------------
    def snapshot(self) -> "LookupAlgorithm":
        """A control-plane snapshot for transactional rollback.

        The default deep copy is correct for every behavioural
        simulator in this package (they hold only plain containers);
        algorithms with cheaper copy-on-write state may override.
        """
        return copy.deepcopy(self)

    def begin_update_batch(self) -> None:
        """Called before a batch of insert/delete calls.

        Algorithms that re-derive expensive structures per update
        (e.g. MASHUP's hybridization) may defer that work until
        :meth:`end_update_batch`.
        """

    def end_update_batch(self) -> None:
        """Called after a successful batch of insert/delete calls."""

    # ------------------------------------------------------------------
    # Artifact hooks (used by repro.artifact for mmap warm starts)
    # ------------------------------------------------------------------
    def state_export(self) -> Optional[Tuple[dict, Dict[str, "np.ndarray"]]]:
        """The built structure as ``(meta, arrays)`` for persistence.

        ``meta`` must be JSON-serializable; ``arrays`` maps section
        names to NumPy arrays whose bytes, together with ``meta``,
        fully determine the structure — ``state_import`` must rebuild
        an algorithm whose every lookup agrees with this one.  Both
        sides must be deterministic (same state, same bytes), which is
        what pins the artifact golden-format test.

        The default ``None`` opts out: the artifact then stores only
        the FIB and a load rebuilds through the scheme's factory —
        still correct, just a cold build instead of a warm start.
        """
        return None

    @classmethod
    def state_import(cls, meta: dict,
                     arrays: Dict[str, "np.ndarray"]) -> "LookupAlgorithm":
        """Rebuild a built algorithm from :meth:`state_export` output.

        ``arrays`` are typically copy-on-write views into an mmapped
        snapshot: implementations may adopt them zero-copy (mutations
        dirty private pages, never the file), but must not assume they
        are writable file-backed storage.
        """
        raise NotImplementedError(
            f"{cls.__name__} does not support artifact state import")

    def adopt_views(self, views: Dict[str, Any]) -> None:
        """Accept persisted vector-table views after a state import.

        ``views`` maps step name → the view object a previous
        ``VectorPlan`` compile was frozen against (reconstructed
        zero-copy over an mmapped artifact), which holds exactly what
        the imported tables hold.  Each view whose step's declared
        backing keeps a write log is synced to that log, and the lot
        becomes the next :meth:`compile_vector_plan`'s ``prev``: that
        compile replays only the writes made since (a warm start's
        resync delta) into the mapped buffers instead of re-flattening
        every table.  Views of tables without a log are dropped —
        adoption is an optimisation, never a correctness requirement.
        """
        program = self.cram_program()
        adopted = {}
        for name, view in views.items():
            log = getattr(program.step(name).table.backing, "log", None)
            if log is not None:
                adopted[name] = log.stamp(view)
        self._adopted_views = adopted

    # ------------------------------------------------------------------
    # Executing the CRAM program (model-vs-native equivalence checks)
    # ------------------------------------------------------------------
    def cram_initial_state(self) -> dict:
        """Extra parser-provided registers beyond ``addr``."""
        return {}

    def cram_extract_hop(self, state: dict) -> Optional[int]:
        """Read the final next hop out of the CRAM machine state."""
        return state.get("hop")

    def cram_lookup(self, address: int, tracer=None) -> Optional[int]:
        """Run one lookup through the CRAM interpreter.

        Must agree with :meth:`lookup` for every address — the tests
        enforce it.  This is what makes the CRAM model in this package
        a machine rather than a spreadsheet.

        ``tracer`` (a :class:`repro.obs.Tracer`) observes every wave,
        step, and table access; traced and untraced runs return the
        same next hop.
        """
        from ..core.interpreter import run

        program = self.cram_program()
        state = run(program, {"addr": address, **self.cram_initial_state()},
                    tracer)
        return self.cram_extract_hop(state)

    # ------------------------------------------------------------------
    # Compiled plans (repro.core.plan / repro.engine)
    # ------------------------------------------------------------------
    def compile_plan(self):
        """This algorithm as a compiled :class:`~repro.core.plan.LookupPlan`."""
        from ..core.plan import LookupPlan

        return LookupPlan(self)

    # ------------------------------------------------------------------
    # Lane compiler (repro.core.vector)
    # ------------------------------------------------------------------
    def vector_specs(self, prev: Dict[str, Any]
                     ) -> Dict[str, "VectorStepSpec"]:
        """Per-step lowering specs for the lane compiler.

        Keyed by *step name* (unknown names raise ``VectorError``);
        each value is a :class:`~repro.core.vector.VectorStepSpec`
        describing the step's selector/action as array kernels.
        ``prev`` maps step names to the views the previous compile
        froze (empty on a first compile): a builder freezes each step's
        table as ``vector_reader(prev=prev.get(step))``, which replays
        the table's write log into the old view instead of copying it,
        and records the view as the spec's ``reader``.
        Lowering is all-or-nothing: one step without a spec and the
        vector plan holds no kernels, delegating every batch to the
        scalar plan — correct, just not fast.  The default lowers nothing, so every
        algorithm compiles out of the box.  Kernels keep the dtype
        contract of :func:`~repro.core.vector.key_dtype`: table keys
        come out of ``addr`` (``uint64`` at width 64) through
        :func:`~repro.core.vector.key_slice`; registers are ``int64``.
        """
        return {}

    def vector_extract_hop(self, lanes):
        """Array form of :meth:`cram_extract_hop`.

        Returns ``(vals, none)`` int64/bool arrays over the batch
        (never the address lanes' dtype, never ``float64``).
        Algorithms that override :meth:`cram_extract_hop` must also
        override this to count as fully lowered; the base
        implementation is a placeholder the lane compiler detects (by
        identity) and never calls.
        """
        raise NotImplementedError  # pragma: no cover - sentinel, never called

    def compile_vector_plan(self, plan=None):
        """This algorithm lowered to a :class:`~repro.core.vector.VectorPlan`.

        The views :meth:`adopt_views` took are the first compile's
        ``prev`` and no other's: a later compile freezes views of its
        own, so no two plans share one.
        """
        from ..core.vector import VectorPlan

        return VectorPlan(self, plan=plan,
                          prev=self.__dict__.pop("_adopted_views", None))

    # ------------------------------------------------------------------
    def lookup_batch(self, addresses) -> List[Optional[int]]:
        """Convenience vector form of :meth:`lookup`."""
        lookup = self.lookup
        return [lookup(a) for a in addresses]

    def _check_address(self, address: int) -> None:
        if not 0 <= address < (1 << self.width):
            raise ValueError(
                f"address {address:#x} outside the {self.width}-bit space"
            )

    def _check_prefix(self, prefix: Prefix) -> None:
        if prefix.width != self.width:
            raise ValueError(
                f"prefix width {prefix.width} does not match algorithm width {self.width}"
            )
