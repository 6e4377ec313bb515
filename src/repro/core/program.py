"""CRAM programs: a DAG of steps plus parser/deparser (§2.1).

A :class:`CramProgram` owns a set of registers, a DAG of
:class:`~repro.core.step.Step` nodes, and (optionally) parser and
deparser callables.  It enforces the paper's legality condition — any
two steps that conflict on a register must be connected by a directed
path — and computes the model's time metric, the number of steps on
the longest directed path.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from .step import Step

Parser = Callable[[bytes], dict]
Deparser = Callable[[dict], bytes]


class DependencyError(ValueError):
    """Two conflicting steps are not ordered by the DAG."""


class CramProgram:
    """A CRAM model program.

    Steps are added with :meth:`add_step`; dependencies either
    explicitly with :meth:`add_dependency` or inferred from declared
    register reads/writes in insertion order with
    :meth:`infer_dependencies` (the RMT-compiler behaviour [37]).
    """

    def __init__(
        self,
        name: str,
        register_width: int = 64,
        registers: Iterable[str] = (),
        parser: Optional[Parser] = None,
        deparser: Optional[Deparser] = None,
    ):
        if register_width <= 0:
            raise ValueError("register width must be positive")
        self.name = name
        self.register_width = register_width
        self.registers: Set[str] = set(registers)
        self.parser = parser
        self.deparser = deparser
        self._steps: Dict[str, Step] = {}
        self._order: List[str] = []  # insertion order
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_step(self, step: Step, after: Sequence[str] = ()) -> Step:
        """Add ``step``, optionally depending on named earlier steps."""
        if step.name in self._steps:
            raise ValueError(f"duplicate step name {step.name!r}")
        for register in step.reads | step.writes:
            self.registers.add(register)
        self._steps[step.name] = step
        self._order.append(step.name)
        self._succ[step.name] = set()
        self._pred[step.name] = set()
        for dep in after:
            self.add_dependency(dep, step.name)
        return step

    def add_dependency(self, first: str, then: str) -> None:
        """Require step ``first`` to execute before step ``then``."""
        if first not in self._steps or then not in self._steps:
            missing = first if first not in self._steps else then
            raise KeyError(f"unknown step {missing!r}")
        if first == then:
            raise ValueError("a step cannot depend on itself")
        # The graph is acyclic, so the new edge closes a cycle exactly
        # when ``then`` already reaches ``first``.
        if self._path_exists(then, first):
            raise DependencyError(f"edge {first} -> {then} creates a cycle")
        self._succ[first].add(then)
        self._pred[then].add(first)

    def infer_dependencies(self) -> None:
        """Order conflicting steps by insertion order (compiler default)."""
        names = self._order
        for i, earlier in enumerate(names):
            for later in names[i + 1 :]:
                if self._steps[earlier].conflicts_with(self._steps[later]):
                    if not self._path_exists(earlier, later):
                        self.add_dependency(earlier, later)

    # ------------------------------------------------------------------
    # Validation and metrics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the paper's legality rule for every register conflict."""
        names = self._order
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if self._steps[a].conflicts_with(self._steps[b]):
                    if not (self._path_exists(a, b) or self._path_exists(b, a)):
                        conflict = sorted(
                            (self._steps[a].writes & (self._steps[b].reads | self._steps[b].writes))
                            | (self._steps[b].writes & self._steps[a].reads)
                        )
                        raise DependencyError(
                            f"steps {a!r} and {b!r} conflict on registers "
                            f"{conflict} but are unordered"
                        )

    def steps(self) -> List[Step]:
        return [self._steps[name] for name in self._order]

    def step(self, name: str) -> Step:
        return self._steps[name]

    def tables(self):
        return [s.table for s in self.steps() if s.table is not None]

    def critical_path_length(self) -> int:
        """The CRAM time metric: steps on the longest directed path."""
        if not self._steps:
            return 0
        order = self._topological_order()
        longest = {name: 1 for name in self._steps}
        for name in order:
            for succ in self._succ[name]:
                longest[succ] = max(longest[succ], longest[name] + 1)
        return max(longest.values())

    def critical_path(self) -> List[str]:
        """Step names along one longest path (for diagnostics)."""
        if not self._steps:
            return []
        order = self._topological_order()
        longest: Dict[str, int] = {name: 1 for name in self._steps}
        parent: Dict[str, Optional[str]] = {name: None for name in self._steps}
        for name in order:
            for succ in self._succ[name]:
                if longest[name] + 1 > longest[succ]:
                    longest[succ] = longest[name] + 1
                    parent[succ] = name
        tail = max(longest, key=lambda n: longest[n])
        path: List[str] = []
        node: Optional[str] = tail
        while node is not None:
            path.append(node)
            node = parent[node]
        return list(reversed(path))

    def parallel_schedule(self) -> List[List[str]]:
        """Steps grouped into waves that may execute simultaneously."""
        depth: Dict[str, int] = {}
        for name in self._topological_order():
            preds = self._pred[name]
            depth[name] = 1 + max((depth[p] for p in preds), default=0)
        waves: Dict[int, List[str]] = {}
        for name in self._order:
            waves.setdefault(depth[name], []).append(name)
        return [waves[d] for d in sorted(waves)]

    def render_dot(self) -> str:
        """The step DAG in Graphviz dot syntax.

        Table-bearing steps render as boxes labelled with the table's
        shape; pure-compute steps as ellipses.  Paste into any dot
        viewer to see the wave structure the time metric measures.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for name in self._order:
            step = self._steps[name]
            if step.table is not None:
                kind = step.table.match_kind.value
                label = (f"{name}\\n{step.table.name}: {kind} "
                         f"{step.table.entries}x{step.table.key_width}b")
                lines.append(f'  "{name}" [shape=box, label="{label}"];')
            else:
                lines.append(f'  "{name}" [shape=ellipse];')
        for src in self._order:
            for dst in sorted(self._succ[src]):
                lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Graph internals
    # ------------------------------------------------------------------
    def _topological_order(self) -> List[str]:
        indegree = {name: len(self._pred[name]) for name in self._steps}
        frontier = [name for name in self._order if indegree[name] == 0]
        out: List[str] = []
        while frontier:
            name = frontier.pop(0)
            out.append(name)
            for succ in sorted(self._succ[name]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if len(out) != len(self._steps):
            raise DependencyError("dependency graph contains a cycle")
        return out

    def _path_exists(self, src: str, dst: str) -> bool:
        frontier = [src]
        seen = {src}
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            for succ in self._succ[node]:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return False
