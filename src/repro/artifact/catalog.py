"""Versioned artifact catalog: save/load/list/verify built lookup state.

Directory layout::

    <root>/<name>/<version>/snapshot.rap
    <root>/<name>/CURRENT          # text file naming the live version

Versions are immutable once written (saves go to a temp file and
``os.replace`` into place; the ``CURRENT`` pointer flips the same
way), so a reader never observes a half-written snapshot and multiple
named versions coexist for blue/green swaps.

What a snapshot holds
---------------------
* the FIB itself as canonical sorted ``(bits, length, hop)`` int64
  triples (sections ``fib/bits``, ``fib/length``, ``fib/hop``) plus a
  content digest in the header;
* the built algorithm state when the scheme exports one
  (``state/<name>`` sections + a JSON ``meta`` blob) — loading then
  *imports* the arrays instead of replaying the per-prefix build;
* optionally the compiled :class:`~repro.core.vector.VectorPlan` view
  backings (``view/<step>/<field>`` sections), which map back to live
  view objects zero-copy for verification and direct reader use.

Schemes without an export hook still round-trip: the artifact is then
FIB-only and :meth:`LoadedArtifact.algorithm` rebuilds through the
registered factory — correct, just not a warm start.
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from .errors import (
    ArtifactCorruptError,
    ArtifactDigestMismatch,
    ArtifactError,
    ArtifactNotFound,
)
from .format import FORMAT_VERSION, fib_digest, read_snapshot, write_snapshot

__all__ = ["ArtifactCatalog", "LoadedArtifact", "algorithm_key"]

SNAPSHOT_FILE = "snapshot.rap"
_CURRENT = "CURRENT"
_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _registry() -> Dict[str, Tuple[type, Callable[[Fib], Any]]]:
    """Artifact key -> (class, from-FIB factory) for every scheme.

    Imported lazily so ``repro.artifact`` stays importable without
    dragging every algorithm module in at package-import time.  The
    factory kwargs mirror the CLI's defaults.
    """
    from ..algorithms import (
        Bsic, Dxr, HiBst, LogicalTcam, Mashup, MultibitTrie, Poptrie,
        Resail, Sail,
    )
    return {
        "sail": (Sail, lambda fib: Sail(fib)),
        "resail": (Resail, lambda fib: Resail(fib)),
        "dxr": (Dxr, lambda fib: Dxr(fib, k=16)),
        "bsic": (Bsic, lambda fib: Bsic(fib)),
        "multibit": (MultibitTrie, lambda fib: MultibitTrie(
            fib, [16, 4, 4, 8] if fib.width == 32 else [20, 12, 16, 16])),
        "mashup": (Mashup, lambda fib: Mashup(fib)),
        "poptrie": (Poptrie, lambda fib: Poptrie(fib, dp_bits=16)),
        "hibst": (HiBst, lambda fib: HiBst(fib)),
        "ltcam": (LogicalTcam, lambda fib: LogicalTcam(fib)),
    }


def algorithm_key(algo: Any) -> Optional[str]:
    """The catalog registry key for a built algorithm, or None."""
    for key, (cls, _factory) in _registry().items():
        if type(algo) is cls:
            return key
    return None


def _fib_sections(width: int, triples: List[Tuple[int, int, int]]
                  ) -> List[Tuple[str, np.ndarray]]:
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return [("fib/bits", arr[:, 0].copy()),
            ("fib/length", arr[:, 1].copy()),
            ("fib/hop", arr[:, 2].copy())]


class LoadedArtifact:
    """A fully verified snapshot, mapped copy-on-write.

    ``arrays`` are zero-copy views into the mapped file; writes to them
    dirty private pages, never the catalog.  Heavy reconstructions
    (:meth:`fib`, :meth:`algorithm`) are cached after first use.
    """

    def __init__(self, path: str, header: Dict[str, Any],
                 arrays: Dict[str, np.ndarray],
                 name: Optional[str] = None,
                 version: Optional[str] = None):
        self.path = path
        self.header = header
        self.arrays = arrays
        self.name = name
        self.version = version
        self._fib: Optional[Fib] = None
        self._algo: Any = None
        for section in ("fib/bits", "fib/length", "fib/hop"):
            if section not in arrays:
                raise ArtifactCorruptError(
                    f"{path!r}: missing required section {section!r}")

    # -- identity ------------------------------------------------------
    @property
    def width(self) -> int:
        return int(self.header["width"])

    @property
    def algorithm_name(self) -> Optional[str]:
        return self.header.get("algorithm")

    @property
    def digest(self) -> str:
        return self.header["fib_digest"]

    # -- FIB -----------------------------------------------------------
    def fib_triples(self) -> List[Tuple[int, int, int]]:
        """The FIB as (bits, length, hop) triples — the procpool's
        snapshot wire format, straight off the mapped sections."""
        bits = self.arrays["fib/bits"]
        length = self.arrays["fib/length"]
        hop = self.arrays["fib/hop"]
        return [(int(b), int(l), int(h))
                for b, l, h in zip(bits, length, hop)]

    def fib(self) -> Fib:
        """Materialize (and cache) the FIB. Costs a trie build — the
        warm-start path avoids it unless the scheme needs it."""
        if self._fib is None:
            width = self.width
            fib = Fib(width)
            for b, l, h in self.fib_triples():
                fib.insert(Prefix.from_bits(b, l, width), h)
            digest = fib_digest(width, [(b, l, h)
                                        for b, l, h in self.fib_triples()])
            if digest != self.digest:
                raise ArtifactDigestMismatch(
                    f"{self.path!r}: FIB sections hash to {digest[:12]}… "
                    f"but the header claims {self.digest[:12]}…")
            self._fib = fib
        return self._fib

    def verify_fib(self, fib: Fib) -> None:
        """Raise :class:`ArtifactDigestMismatch` unless ``fib`` is the
        exact table this artifact was built from."""
        triples = [(p.bits, p.length, h) for p, h in fib]
        digest = fib_digest(fib.width, triples)
        if fib.width != self.width or digest != self.digest:
            raise ArtifactDigestMismatch(
                f"{self.path!r}: artifact describes digest "
                f"{self.digest[:12]}… (width {self.width}) but the serving "
                f"FIB is {digest[:12]}… (width {fib.width})")

    # -- algorithm -----------------------------------------------------
    def algorithm(self, factory: Optional[Callable[[Fib], Any]] = None):
        """Reconstruct the built algorithm.

        State-exporting schemes import their arrays directly (no
        per-prefix build).  Otherwise the FIB is materialized and fed
        through ``factory`` (or the registry default for the recorded
        algorithm key).
        """
        if self._algo is not None:
            return self._algo
        state = {name[len("state/"):]: arr
                 for name, arr in self.arrays.items()
                 if name.startswith("state/")}
        key = self.algorithm_name
        entry = _registry().get(key) if key else None
        if state and entry is not None and hasattr(entry[0], "state_import"):
            try:
                algo = entry[0].state_import(self.header.get("meta") or {},
                                             state)
            except ArtifactError:
                raise
            except Exception as exc:
                raise ArtifactCorruptError(
                    f"{self.path!r}: state import for {key!r} failed: "
                    f"{exc!r}")
        else:
            if factory is None and entry is not None:
                factory = entry[1]
            if factory is None:
                raise ArtifactError(
                    f"{self.path!r}: no state sections and no factory for "
                    f"algorithm {key!r}; pass factory= to rebuild")
            algo = factory(self.fib())
        if state and self.header.get("views"):
            # Hand the persisted vector views to the imported structure:
            # they are its next vector compile's ``prev``, so that
            # compile re-freezes them (a replay of the log since the
            # import) instead of re-flattening every table — the mmap'd
            # buffers back the lane kernels zero-copy.
            try:
                algo.adopt_views(self.views())
            except ArtifactError:
                raise
            except Exception as exc:
                raise ArtifactCorruptError(
                    f"{self.path!r}: view adoption for {key!r} failed: "
                    f"{exc!r}")
        fingerprint = self.header.get("plan_fingerprint")
        if fingerprint:
            compiled = algo.compile_plan()
            if compiled.fingerprint() != fingerprint:
                raise ArtifactCorruptError(
                    f"{self.path!r}: recompiled plan fingerprint "
                    f"{compiled.fingerprint()[:12]}… does not match the "
                    f"saved {fingerprint[:12]}… — state import drifted")
        self._algo = algo
        return algo

    # -- compiled vector views ----------------------------------------
    def views(self) -> Dict[str, Any]:
        """Reconstruct saved vector view objects, zero-copy over the
        mapped buffers (empty if the save skipped them)."""
        from ..core.vector import view_from_state
        out: Dict[str, Any] = {}
        for step, spec in (self.header.get("views") or {}).items():
            fields = {}
            stem = f"view/{step}/"
            for name, arr in self.arrays.items():
                if name.startswith(stem):
                    fields[name[len(stem):]] = arr
            try:
                out[step] = view_from_state(spec["kind"],
                                            spec.get("meta") or {}, fields)
            except (KeyError, TypeError, ValueError) as exc:
                raise ArtifactCorruptError(
                    f"{self.path!r}: view {step!r} does not reconstruct: "
                    f"{exc!r}")
        return out


class ArtifactCatalog:
    """Filesystem-backed catalog of named, versioned snapshots."""

    def __init__(self, root: str):
        self.root = os.fspath(root)

    # -- layout --------------------------------------------------------
    def path(self, name: str, version: str) -> str:
        return os.path.join(self.root, name, version, SNAPSHOT_FILE)

    def names(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry for entry in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, entry)))

    def versions(self, name: str) -> List[str]:
        base = os.path.join(self.root, name)
        if not os.path.isdir(base):
            return []
        return sorted(
            entry for entry in os.listdir(base)
            if os.path.isfile(os.path.join(base, entry, SNAPSHOT_FILE)))

    def current(self, name: str) -> Optional[str]:
        pointer = os.path.join(self.root, name, _CURRENT)
        try:
            with open(pointer, "r", encoding="utf-8") as handle:
                version = handle.read().strip()
        except OSError:
            return None
        return version or None

    def set_current(self, name: str, version: str) -> None:
        if version not in self.versions(name):
            raise ArtifactNotFound(
                f"catalog has no {name!r} version {version!r}")
        base = os.path.join(self.root, name)
        tmp = os.path.join(base, f".{_CURRENT}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(version + "\n")
        os.replace(tmp, os.path.join(base, _CURRENT))

    def resolve(self, name: str, version: Optional[str] = None
                ) -> Tuple[str, str]:
        """(version, snapshot path); default = CURRENT, else latest."""
        if version is None:
            version = self.current(name)
        if version is None:
            versions = self.versions(name)
            if not versions:
                raise ArtifactNotFound(f"catalog has no artifact {name!r}")
            version = versions[-1]
        path = self.path(name, version)
        if not os.path.isfile(path):
            raise ArtifactNotFound(
                f"catalog has no {name!r} version {version!r}")
        return version, path

    # -- save ----------------------------------------------------------
    def next_version(self, name: str) -> str:
        numbered = [int(v[1:]) for v in self.versions(name)
                    if re.fullmatch(r"v\d+", v)]
        return f"v{(max(numbered) + 1 if numbered else 1):03d}"

    def save(self, name: str, algo: Any, fib: Fib, *,
             version: Optional[str] = None,
             vector_plan: Any = None,
             set_current: bool = True,
             overwrite: bool = False) -> str:
        """Snapshot ``algo`` (built from ``fib``) as ``name``/``version``.

        Passing the compiled ``vector_plan`` additionally persists its
        view backings, if ``algo`` exports state: only a state import
        adopts them.  Returns the version written.  Saves are
        deterministic: identical state yields identical bytes.
        """
        if version is None:
            version = self.next_version(name)
        if not _VERSION_RE.match(version):
            raise ArtifactError(f"bad version name {version!r}")
        target = self.path(name, version)
        if os.path.exists(target) and not overwrite:
            raise ArtifactError(
                f"{name!r} version {version!r} already exists "
                "(versions are immutable; pick a new one)")

        triples = [(p.bits, p.length, h) for p, h in fib]
        sections = _fib_sections(fib.width, triples)
        header: Dict[str, Any] = {
            "algorithm": algorithm_key(algo),
            "algo_name": getattr(algo, "name", type(algo).__name__),
            "width": fib.width,
            "fib_digest": fib_digest(fib.width, triples),
            "fib_size": len(triples),
            "meta": None,
        }
        exported = algo.state_export()
        if exported is not None:
            meta, state = exported
            header["meta"] = meta
            for key in sorted(state):
                sections.append((f"state/{key}", state[key]))
        header["plan_fingerprint"] = algo.compile_plan().fingerprint()
        if vector_plan is not None and exported is not None:
            from ..core.vector import view_state
            views: Dict[str, Any] = {}
            for step, view in sorted(vector_plan.view_map().items()):
                kind, vmeta, fields = view_state(view)
                views[step] = {"kind": kind, "meta": vmeta}
                for field in sorted(fields):
                    sections.append((f"view/{step}/{field}", fields[field]))
            header["views"] = views

        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".{SNAPSHOT_FILE}.tmp.{os.getpid()}")
        try:
            write_snapshot(tmp, header, sections)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if set_current:
            self.set_current(name, version)
        return version

    # -- load / verify -------------------------------------------------
    def load(self, name: str, version: Optional[str] = None, *,
             factory: Optional[Callable[[Fib], Any]] = None,
             expect_fib: Optional[Fib] = None) -> LoadedArtifact:
        """Map, verify and wrap a snapshot.  All checksums are checked
        here; ``expect_fib`` additionally pins the content digest to
        the table the caller is serving."""
        version, path = self.resolve(name, version)
        loaded = self.load_path(path, factory=factory, expect_fib=expect_fib)
        loaded.name, loaded.version = name, version
        return loaded

    @staticmethod
    def load_path(path: str, *,
                  factory: Optional[Callable[[Fib], Any]] = None,
                  expect_fib: Optional[Fib] = None) -> LoadedArtifact:
        if not os.path.exists(path):
            raise ArtifactNotFound(f"no artifact at {path!r}")
        header, arrays = read_snapshot(path)
        for key in ("width", "fib_digest"):
            if key not in header:
                raise ArtifactCorruptError(
                    f"{path!r}: header is missing {key!r}")
        loaded = LoadedArtifact(path, header, arrays)
        if expect_fib is not None:
            loaded.verify_fib(expect_fib)
        if factory is not None:
            loaded.algorithm(factory)
        return loaded

    def verify(self, name: str, version: Optional[str] = None, *,
               deep: bool = False) -> Dict[str, Any]:
        """Checksum-verify a snapshot; ``deep`` additionally imports
        the state and differentially checks lookups against a fresh
        build from the stored FIB."""
        version, path = self.resolve(name, version)
        loaded = self.load(name, version)
        report: Dict[str, Any] = {
            "name": name,
            "version": version,
            "path": path,
            "algorithm": loaded.algorithm_name,
            "width": loaded.width,
            "fib_size": int(loaded.header.get("fib_size", 0)),
            "sections": len(loaded.arrays),
            "format_version": int(loaded.header.get(
                "format_version", FORMAT_VERSION)),
            "deep": bool(deep),
        }
        if deep:
            fib = loaded.fib()  # digest-checks the FIB sections
            algo = loaded.algorithm()
            entry = _registry().get(loaded.algorithm_name or "")
            fresh = entry[1](fib) if entry is not None else None
            addresses = _probe_addresses(fib)
            plan = algo.compile_plan()
            expected = ([fresh.lookup(a) for a in addresses]
                        if fresh is not None
                        else [fib.lookup(a) for a in addresses])
            got = plan.lookup_batch(addresses)
            if list(got) != expected:
                raise ArtifactCorruptError(
                    f"{path!r}: imported state disagrees with a fresh "
                    "build on probe addresses")
            report["probes"] = len(addresses)
        return report


def _probe_addresses(fib: Fib, limit: int = 512) -> List[int]:
    """Deterministic probe set: every prefix's base address plus its
    last covered address, capped."""
    out: List[int] = []
    for prefix, _hop in fib:
        base = prefix.value
        out.append(base)
        out.append(base | ((1 << (fib.width - prefix.length)) - 1))
        if len(out) >= limit:
            break
    return out or [0]
