"""The lane compiler: compiled plans lowered to NumPy batch kernels.

:class:`~repro.core.plan.LookupPlan` removed per-packet interpretation,
but it still runs one Python closure per step *per packet*.  The CRAM
lens says every packet performs the same small set of table reads — the
exact shape array (SoA) execution wants.  :class:`VectorPlan` lowers an
already-compiled plan one level further: each step executes **once per
batch**, as a NumPy kernel over every lane at the same time.

The execution model:

* **SoA register file** (:class:`Lanes`).  Each CRAM register becomes a
  pair of arrays: an ``int64`` value vector plus a boolean ``none``
  mask (the sentinel + mask convention for ``None`` lanes — masked
  lanes hold value 0, so scalar truthiness ``state.get(r)`` lowers to
  ``vals != 0`` and presence to ``~none``).  One register is a *key*,
  not a value: ``addr`` has :func:`key_dtype` of the plan's width —
  ``uint64`` for the 64-bit IPv6 view, ``int64`` for everything
  narrower — and kernels slice it through :func:`key_slice`.  The file
  is adopt-on-write: a register costs nothing until a kernel writes it
  and then *is* the arrays the kernel produced, so a batch costs
  O(CRAM steps) wide array passes, not O(steps x registers) short
  ones.  The kernels of one parallel CRAM level can share a lane
  matrix, one row each.
* **Vector table views.**  Memory backings grow ``vector_reader()``
  snapshot views beside the scalar plan's live ``plan_reader()``:
  bitmaps as packed
  ``uint8`` arrays gathered by an index vector
  (:class:`BitmapView`), SRAM/d-left dict views densified into
  index → value arrays (:class:`DenseArrayView`, with a sorted-key
  :class:`SparseMapView` probe fallback when the key space is too
  large to densify), and sorted range tables answered by one floor
  search (:class:`RangeView`): DXR's binary search and BSIC's BST
  walk resolve in one kernel, not one per level, and so does every
  TCAM of the nine schemes — its rows are prefixes, so its
  longest match is the floor of the key in its range form.  A TCAM
  whose rows are not prefixes (only a packet classifier's) gets no
  view, and its step no kernel.
* **Per-step lowering specs.**  Algorithms describe how each step's
  selector/action lower to array form via
  :meth:`~repro.algorithms.base.LookupAlgorithm.vector_specs` —
  a dict of step name → :class:`VectorStepSpec`.  A spec either binds
  ``select`` (keys + active mask, ``None`` = every lane) to a table
  view's ``gather`` and an ``update`` kernel, or is compute-only
  (``select=None``) and reads the lanes directly.
* **All-or-nothing lowering.**  A plan runs as kernels only when its
  key has a lane dtype (:func:`key_dtype`: at most 64 bits), *every*
  step has a spec whose table produced a vector view, and the hop
  extraction has an array form.  Otherwise it holds **no** kernels
  (``fully_lowered`` is False) and :meth:`VectorPlan.lookup_batch`
  hands the whole batch to the embedded scalar plan — one kernel
  schedule, one fallback, decided once at compile time.  All nine
  algorithms lower fully at every width up to 64, the IPv6 view
  included; a VRF-tagged IPv6 key (idiom I5) is wider and delegates.

Unlike the :class:`~repro.core.plan.LookupPlan` it embeds, which reads
the live tables, a lowered vector plan is a **snapshot**: its views
freeze the tables at compile time, and an update reaches it only
through a new compile.  That is what makes it safe to serve while a
commit mutates the tables on another thread.  A compile handed the
previous one's views (``prev=``, its :meth:`VectorPlan.view_map`)
re-freezes each table by replaying its write log into the old view —
O(delta), not O(table) — which is how
:class:`repro.engine.BatchEngine` patches a plan on a delta commit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .plan import LookupPlan

__all__ = [
    "VectorError",
    "Lanes",
    "BitmapView",
    "DenseArrayView",
    "SparseMapView",
    "RangeView",
    "VectorStepSpec",
    "VectorPlan",
    "compile_vector_plan",
    "range_search_specs",
    "map_view",
    "view_state",
    "view_from_state",
    "popcount64",
    "key_dtype",
    "key_slice",
    "MISS_HOP",
    "DENSE_LIMIT",
]


class VectorError(ValueError):
    """The program (or its backings) cannot be lowered to lane kernels."""


#: Sentinel stored in result arrays for ``None`` (no-route) lanes.
MISS_HOP: int = int(np.iinfo(np.int64).min)

#: Largest key space a dict view is densified to; beyond it the
#: sorted-key probe (:class:`SparseMapView`) is used instead.
DENSE_LIMIT = 1 << 20

#: Lanes per kernel invocation: bounds the footprint of a batch's
#: intermediate lane vectors.
DEFAULT_CHUNK = 4096

_INT_TYPES = (int, np.integer)
_BOOL_TYPES = (bool, np.bool_)


if hasattr(np, "bitwise_count"):
    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        return np.bitwise_count(values).astype(np.int64)
else:  # numpy < 2.0 (the 3.9 CI cell): 16-bit lookup-table fallback
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                      dtype=np.uint8)

    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        v = values.astype(np.uint64)
        low = np.uint64(0xFFFF)
        total = _POP16[(v & low).astype(np.int64)].astype(np.int64)
        for shift in (16, 32, 48):
            total += _POP16[((v >> np.uint64(shift)) & low).astype(np.int64)]
        return total


def key_dtype(bits: int):
    """The lane dtype of a ``bits``-wide key — the one place a width is
    compared.  A key of fewer than 64 bits is ``int64``, a 64-bit key
    ``uint64``, a wider one has none (``None``: a plan that wide does
    not lower); values (hops, indices, tagged codes, flags) are always
    ``int64``.  The two never meet in arithmetic, a compare or a
    ``searchsorted``: NumPy promotes ``uint64 (+) int64`` to
    ``float64`` without a word and goes wrong at bit 53."""
    if bits > 64:
        return None
    return np.uint64 if bits == 64 else np.int64


def key_slice(keys: np.ndarray, shift: int = 0,
              mask: Optional[int] = None) -> np.ndarray:
    """``(keys >> shift) & mask`` as a key vector of its own width —
    how every kernel derives its table keys from ``addr``.

    An ``int64`` vector is sliced with plain signed arithmetic.  A
    ``uint64`` one is shifted logically and comes back as ``int64``
    when the slice dropped bits (a zero-copy view: the value is below
    ``2**63``), untouched when it is the whole key — so what a kernel
    indexes, adds or compares against ``int64`` columns is ``int64``.
    """
    if keys.dtype != np.uint64:
        if shift:
            keys = keys >> shift
        return keys if mask is None else keys & mask
    bits = 64 - shift if mask is None else mask.bit_length()
    if shift:
        keys = keys >> np.uint64(shift)
    if mask is not None:
        keys = keys & np.uint64(mask)
    return keys.view(key_dtype(bits))


# ---------------------------------------------------------------------------
# The SoA register file
# ---------------------------------------------------------------------------


class Lanes:
    """A batch of CRAM register files in structure-of-arrays form.

    The file is **adopt-on-write**: a register costs nothing until a
    kernel writes it.  :meth:`assign` adopts the producer's arrays as
    the register (no copy-in), a register assigned without a ``none``
    mask stores no mask at all (one is only built if somebody asks
    :meth:`is_none`), and a register no kernel has written yet reads as
    ``None`` in every lane — materialised on that first read or partial
    write, never up front.

    Invariant: ``vals[reg][lane] == 0`` wherever ``none[reg][lane]`` is
    set, so scalar truthiness lowers to ``vals != 0``.  For
    :meth:`assign` that is the **producer's contract** (hand in
    ``np.where(hit, x, 0)``, not ``x``), as is giving the arrays up:
    one array is never handed to two registers, and never one a table
    view still owns — a later :meth:`assign_where` writes in place.

    Besides registers the file holds **lane matrices**
    (:meth:`matrix`): one ``(rows, n)`` array shared by the kernels of
    a parallel CRAM level, each writing its own row, so the step that
    joins them reduces one matrix instead of coalescing ``rows``
    register pairs.
    """

    __slots__ = ("registers", "n", "vals", "none", "mats")

    def __init__(self, registers, n: int):
        self.registers = registers
        self.n = n
        self.vals: Dict[str, np.ndarray] = {}
        #: ``None`` for a register assigned with every lane present.
        self.none: Dict[str, Optional[np.ndarray]] = {}
        self.mats: Dict[str, np.ndarray] = {}

    def _unwritten(self, reg: str) -> Tuple[np.ndarray, np.ndarray]:
        """First touch of a register nothing assigned: all lanes None."""
        if reg not in self.registers:
            raise KeyError(reg)
        vals = self.vals[reg] = np.zeros(self.n, dtype=np.int64)
        none = self.none[reg] = np.ones(self.n, dtype=bool)
        return vals, none

    # -- whole-register reads ------------------------------------------
    def values(self, reg: str) -> np.ndarray:
        """The value vector (``None`` lanes read 0, as in ``eval_expr``)."""
        try:
            return self.vals[reg]
        except KeyError:
            return self._unwritten(reg)[0]

    def is_none(self, reg: str) -> np.ndarray:
        try:
            none = self.none[reg]
        except KeyError:
            return self._unwritten(reg)[1]
        if none is None:
            none = self.none[reg] = np.zeros(self.n, dtype=bool)
        return none

    def present(self, reg: str) -> np.ndarray:
        """Lanes where the register ``is not None``."""
        try:
            none = self.none[reg]
        except KeyError:
            none = self._unwritten(reg)[1]
        if none is None:
            return np.ones(self.n, dtype=bool)
        return ~none

    def truthy(self, reg: str) -> np.ndarray:
        """Scalar ``if state.get(reg):`` — None lanes hold 0, so one test."""
        try:
            return self.vals[reg] != 0
        except KeyError:
            return self._unwritten(reg)[0] != 0

    # -- whole-register writes -----------------------------------------
    def fill(self, reg: str, value: Optional[int]) -> None:
        """Broadcast one scalar initial value (or ``None``) to every lane."""
        if value is None:
            self.vals.pop(reg, None)
            self.none.pop(reg, None)
        else:
            self.assign(reg, np.full(self.n, int(value), dtype=np.int64))

    def assign(self, reg: str, values: np.ndarray,
               none: Optional[np.ndarray] = None) -> None:
        """Assign every lane by adopting ``values`` (an ``int64`` lane
        vector, 0 wherever ``none`` is set) and the optional ``none``
        mask — see the class docstring for what the producer owes."""
        if reg not in self.registers:
            raise KeyError(reg)
        self.vals[reg] = values
        self.none[reg] = none

    def assign_where(self, reg: str, where: np.ndarray, values,
                     none=None) -> None:
        """Assign only the lanes selected by ``where`` (in place)."""
        try:
            vals, mask = self.vals[reg], self.none[reg]
        except KeyError:
            vals, mask = self._unwritten(reg)
        np.copyto(vals, values, where=where)
        if none is None:
            if mask is not None:
                mask[where] = False
        else:
            if mask is None:
                mask = self.is_none(reg)
            np.copyto(mask, none, where=where)
            vals[mask] = 0

    # -- lane matrices -------------------------------------------------
    def matrix(self, name: str, rows: int, dtype) -> np.ndarray:
        """The ``(rows, n)`` lane matrix ``name``, allocated (not
        filled) by whichever kernel asks first.  Every row belongs to
        one kernel, which must write all of it before the joining step
        reads the matrix."""
        try:
            return self.mats[name]
        except KeyError:
            mat = self.mats[name] = np.empty((rows, self.n), dtype=dtype)
            return mat


# ---------------------------------------------------------------------------
# Vector table views (the vector_reader() contract)
# ---------------------------------------------------------------------------
#
# A view answers `gather(keys, active=None) -> (vals, found)`:
#   * `keys`   int64 lane vector (contents of inactive lanes ignored);
#   * `active` bool mask of lanes that actually probe the table, or
#     `None` when every lane does — the common case, answered without
#     building a mask, masking the keys or clearing inactive lanes;
#   * `vals`   int64 results, 0 wherever not found;
#   * `found`  bool mask — the vector form of "result is not None"
#     (implies active).
# Results are fresh arrays the caller may adopt into a register; no
# `gather` writes into the view's own arrays.
# Views are snapshots: building one freezes the table.  A backing that
# supports incremental freezing stamps the view with the write-log
# `version` it is synced to and, handed the view back on the next
# freeze (`vector_reader(prev=view)`), replays only the log tail
# instead of re-copying the whole table — the O(delta) path behind
# plan patching.  A map view is resynced in place, and only while it
# is being rebound to its (quiesced) plan, never while serving; a range
# view is spliced into new arrays (:meth:`RangeView.splice`).


class BitmapView:
    """A packed bitmap: one ``uint8`` (0 or 1) per slot, gathered by
    index."""

    __slots__ = ("packed", "version")

    def __init__(self, packed: np.ndarray, version: int = 0):
        self.packed = packed
        self.version = version

    def gather(self, keys: np.ndarray, active: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        # A clear bit is still a stored value: found == probed, so with
        # every lane probing ``found`` is ``None`` too.
        if active is None:
            return self.packed[keys].astype(np.int64), None
        idx = np.where(active, keys, 0)
        vals = self.packed[idx].astype(np.int64)
        vals[~active] = 0
        return vals, active.copy()


class DenseArrayView:
    """A dict view densified to index → value arrays (small key spaces).

    ``dense`` holds 0 wherever ``present`` is clear.
    """

    __slots__ = ("dense", "present", "version")

    def __init__(self, dense: np.ndarray, present: np.ndarray,
                 version: int = 0):
        self.dense = dense
        self.present = present
        self.version = version

    def gather(self, keys: np.ndarray, active: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        if active is None:
            return self.dense[keys], self.present[keys]
        idx = np.where(active, keys, 0)
        found = active & self.present[idx]
        vals = np.where(found, self.dense[idx], 0)
        return vals, found


class SparseMapView:
    """A dict view as sorted keys + ``searchsorted`` probe (sparse keys)."""

    __slots__ = ("keys", "data", "version")

    def __init__(self, keys: np.ndarray, data: np.ndarray, version: int = 0):
        self.keys = keys
        self.data = data
        self.version = version

    def gather(self, keys: np.ndarray, active: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        if self.keys.size == 0:
            zero = np.zeros(keys.shape, dtype=np.int64)
            return zero, np.zeros(keys.shape, dtype=bool)
        pos = self.keys.searchsorted(keys)
        np.minimum(pos, self.keys.size - 1, out=pos)
        found = self.keys[pos] == keys
        if active is not None:
            found &= active
        vals = np.where(found, self.data[pos], 0)
        return vals, found


class RangeView:
    """A sorted range table (Appendix A.4) as one floor search: row
    ``i`` covers the keys from ``lefts[i]`` (in the searched keys'
    dtype) to the next row's, and holds ``hops[i]`` or no hop
    (``none[i]``, with ``hops[i]`` 0).  A binary search of the table, a
    walk down a BST built from it, and a longest-prefix match in a TCAM
    of prefix rows are all the one ``searchsorted`` of :meth:`floor`."""

    __slots__ = ("lefts", "hops", "none", "version")

    def __init__(self, lefts: np.ndarray, hops: np.ndarray,
                 none: np.ndarray, version: int = 0):
        self.lefts = lefts
        self.hops = hops
        self.none = none
        self.version = version

    def floor(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(hops, none)`` of the row holding each key: the last whose
        left endpoint is <= the key.  A key below ``lefts[0]`` reads
        an arbitrary row; callers mask those lanes out."""
        if not self.lefts.size:
            return (np.zeros(keys.shape, dtype=np.int64),
                    np.ones(keys.shape, dtype=bool))
        pos = self.lefts.searchsorted(keys, side="right")
        pos -= 1
        return self.hops[pos], self.none[pos]

    def gather(self, keys: np.ndarray, active: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """The table-view form of :meth:`floor`, for a table whose
        ranges cover its whole key space (a TCAM of prefix rows):
        found where the range holds a hop and the lane is active."""
        vals, none = self.floor(keys)
        found = ~none
        if active is not None:
            found &= active
            vals[~found] = 0
        return vals, found

    def splice(self, spans: Sequence[Tuple[int, int]],
               pieces: Sequence[Optional[Tuple[np.ndarray, ...]]]
               ) -> "RangeView":
        """A new view: this one with the rows whose left endpoints lie
        in each inclusive key span ``(first, last)`` (sorted, disjoint)
        replaced by the matching ``(lefts, hops, none)`` piece, or
        dropped for a ``None`` one.  This view's arrays are read, never
        written, so a plan still serving them is undisturbed."""
        bounds = np.array(spans, dtype=self.lefts.dtype).reshape(-1, 2)
        firsts = self.lefts.searchsorted(bounds[:, 0]).tolist()
        pasts = self.lefts.searchsorted(bounds[:, 1], side="right").tolist()

        def spliced(column: int, old: np.ndarray) -> np.ndarray:
            part, cursor = [], 0
            for first, past, piece in zip(firsts, pasts, pieces):
                part.append(old[cursor:first])
                if piece is not None:
                    part.append(piece[column])
                cursor = past
            part.append(old[cursor:])
            return np.concatenate(part)

        return RangeView(*(spliced(column, old) for column, old in
                           enumerate((self.lefts, self.hops, self.none))))

    def merged(self) -> "RangeView":
        """This view less each row that repeats its predecessor's hop
        (DXR's merge of equal neighbours); itself if none does."""
        hops, none = self.hops, self.none
        keep = np.ones(hops.size, dtype=bool)
        keep[1:] = (hops[1:] != hops[:-1]) | (none[1:] != none[:-1])
        if keep.all():
            return self
        return RangeView(self.lefts[keep], hops[keep], none[keep],
                         self.version)


#: Each persisted view kind: its class and the array fields its
#: constructor takes, in order, before ``version``; masks are stored
#: as ``uint8`` and come back as ``bool``.
_VIEW_KINDS = {
    "bitmap": (BitmapView, ("packed",)),
    "dense": (DenseArrayView, ("dense", "present")),
    "sparse": (SparseMapView, ("keys", "data")),
    "range": (RangeView, ("lefts", "hops", "none")),
}
_MASK_FIELDS = frozenset({"present", "none"})


def view_state(view) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
    """A view's content as ``(kind, meta, arrays)`` for persistence.

    The inverse of :func:`view_from_state`; together they let the
    artifact store write compiled vector backings as raw sections and
    map them straight back into live view objects (zero-copy — the
    arrays back the readers directly).
    """
    for kind, (cls, fields) in _VIEW_KINDS.items():
        if type(view) is cls:
            return kind, {"version": int(view.version)}, {
                field: getattr(view, field) for field in fields}
    raise VectorError(f"cannot serialize view of type {type(view).__name__}")


def view_from_state(kind: str, meta: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]):
    """Rebuild a view object from :func:`view_state` output.

    Arrays are adopted as-is — handing in copy-on-write slices of an
    mmapped artifact makes the reconstructed view serve directly off
    the mapped pages.
    """
    if kind not in _VIEW_KINDS:
        raise VectorError(f"unknown serialized view kind {kind!r}")
    cls, fields = _VIEW_KINDS[kind]
    return cls(*(_bool_array(arrays[field]) if field in _MASK_FIELDS
                 else np.asarray(arrays[field]) for field in fields),
               int(meta.get("version", 0)))


def _bool_array(array) -> np.ndarray:
    """A persisted mask back as ``bool`` (stored as ``uint8``)."""
    array = np.asarray(array)
    return array.view(np.bool_) if array.dtype == np.uint8 else array


def _int_items(slots: Dict[int, Any]) -> Optional[List[Tuple[int, int]]]:
    """``(key, value)`` pairs with int-like values, or None if any
    stored value cannot live in an int64 lane (stored ``None`` means
    "miss" and is simply dropped, matching the scalar reader)."""
    items: List[Tuple[int, int]] = []
    for key, value in slots.items():
        if value is None:
            continue
        if isinstance(value, _BOOL_TYPES + _INT_TYPES):
            items.append((int(key), int(value)))
        else:
            return None
    return items


def map_view(slots: Dict[int, Any], key_bits: int,
             capacity: Optional[int] = None):
    """A vector view over a dict of ``key_bits``-bit keys: dense when
    the key space is small enough (``capacity <= DENSE_LIMIT``),
    sorted-probe with keys in :func:`key_dtype` ``(key_bits)`` otherwise.

    Returns ``None`` when the stored values are not int-like — the
    step then has no kernel, so the plan does not lower.
    """
    items = _int_items(slots)
    if items is None:
        return None
    if capacity is not None and 0 <= capacity <= DENSE_LIMIT:
        dense = np.zeros(max(1, capacity), dtype=np.int64)
        present = np.zeros(max(1, capacity), dtype=bool)
        for key, value in items:
            dense[key] = value
            present[key] = True
        return DenseArrayView(dense, present)
    items.sort()
    keys = np.array([k for k, _v in items], dtype=key_dtype(key_bits))
    data = np.array([v for _k, v in items], dtype=np.int64)
    return SparseMapView(keys, data)


def patch_sparse_view(view: SparseMapView,
                      updates: Dict[int, Optional[int]]) -> None:
    """Apply ``key -> value`` updates (``None`` deletes) to a sorted
    probe view in place.  A key the view already holds is overwritten
    where it sits — what most of a delta is; only keys that appear or
    disappear cost array surgery (an O(rows) memmove, no Python loop) —
    so an incremental freeze costs a delta, not a rebuild."""
    if not updates:
        return
    keys, data = view.keys, view.data
    items = sorted(updates.items())
    changed = np.fromiter((k for k, _v in items), keys.dtype, len(items))
    values = np.fromiter((0 if v is None else v for _k, v in items),
                         np.int64, len(items))
    drop = np.fromiter((v is None for _k, v in items), bool, len(items))
    pos = keys.searchsorted(changed)
    held = pos < keys.size
    held[held] = keys[pos[held]] == changed[held]
    write = held & ~drop
    data[pos[write]] = values[write]
    gone, fresh = held & drop, ~held & ~drop
    if gone.any():
        keys, data = np.delete(keys, pos[gone]), np.delete(data, pos[gone])
        pos = keys.searchsorted(changed)
    if fresh.any():
        keys = np.insert(keys, pos[fresh], changed[fresh])
        data = np.insert(data, pos[fresh], values[fresh])
    view.keys, view.data = keys, data


# ---------------------------------------------------------------------------
# Step lowering specs
# ---------------------------------------------------------------------------


@dataclass
class VectorStepSpec:
    """How one CRAM step lowers to a lane kernel.

    ``update(lanes, vals, found, active)`` is the array form of the
    step's action.  With ``select`` set, the compiler gathers from the
    step's table view first (``select(lanes) -> (keys, active)``;
    ``active=None`` means every lane, and reaches ``update`` as
    ``None``) and passes the results through; a compute-only spec
    (``select=None``) receives ``(None, None, None)`` and
    reads/gathers from the lanes itself.  What ``update`` hands
    :meth:`Lanes.assign` the register file adopts — see the contract
    there.  ``reader`` overrides the view otherwise obtained from the
    table backing's ``vector_reader()``; a compute-only spec that
    gathers from a table view records it here too, so the view reaches
    :meth:`VectorPlan.view_map` — the next compile's ``prev`` and what
    an artifact persists.
    """

    update: Callable[[Lanes, Optional[np.ndarray], Optional[np.ndarray],
                      Optional[np.ndarray]], None]
    select: Optional[Callable[[Lanes], Tuple[np.ndarray,
                                             Optional[np.ndarray]]]] = None
    reader: Optional[Any] = None


def range_search_specs(view: RangeView, steps: Sequence[str]
                       ) -> Dict[str, VectorStepSpec]:
    """A search chain's steps lowered to one floor search of ``addr``.

    The first step resolves ``best`` for every lane still searching
    (``done`` unset) against ``view``; the later ones are no-ops, so the
    kernel schedule keeps the program's step names while a lane pays
    for one search, not one probe per level.
    """
    def search(lanes, _vals, _found, _active):
        hops, none = view.floor(lanes.values("addr"))
        lanes.assign_where("best", ~lanes.truthy("done"), hops, none=none)

    def resolved(lanes, _vals, _found, _active):
        pass

    rest = VectorStepSpec(resolved)
    return {step: VectorStepSpec(search, reader=view) if i == 0 else rest
            for i, step in enumerate(steps)}


def _table_view(step, prev) -> Optional[Any]:
    """The step's table frozen by its backing's ``vector_reader``, or
    ``None`` when the backing has none."""
    backing = getattr(getattr(step, "table", None), "backing", None)
    vector_reader = getattr(backing, "vector_reader", None)
    return vector_reader(prev=prev) if callable(vector_reader) else None


def _compile_spec(spec: VectorStepSpec, view) -> Callable[[Lanes], None]:
    update = spec.update
    if spec.select is None:
        def run_compute(lanes: Lanes) -> None:
            update(lanes, None, None, None)
        return run_compute
    select = spec.select

    def run_table(lanes: Lanes) -> None:
        keys, active = select(lanes)
        vals, found = view.gather(keys, active)
        update(lanes, vals, found, active)
    return run_table


# ---------------------------------------------------------------------------
# The vector plan
# ---------------------------------------------------------------------------


class VectorPlan:
    """A compiled plan lowered to array-wide NumPy kernels.

    ``lookup_batch`` returns an ``int64`` array with :data:`MISS_HOP`
    in ``None`` lanes; ``lookup_batch_hops`` converts to the familiar
    ``List[Optional[int]]``.  Lowering is all-or-nothing:
    ``fully_lowered`` is True when every step *and* the final hop
    extraction run as kernels — what the engine reports as its
    ``active_backend``.  Otherwise (a step without an array form, a key
    wider than 64 bits) the plan holds no kernels and every batch runs
    through the embedded scalar plan.
    """

    MISS = MISS_HOP

    def __init__(self, algo, plan: Optional[LookupPlan] = None,
                 chunk: int = DEFAULT_CHUNK,
                 prev: Optional[Dict[str, Any]] = None):
        if chunk <= 0:
            raise VectorError("chunk must be positive")
        self.plan = plan if plan is not None else LookupPlan(algo)
        self.algorithm: str = self.plan.algorithm
        self.width: int = self.plan.width
        self._chunk = chunk
        self._registers = frozenset(self.plan.program.registers)
        self._base_items = [(reg, value)
                            for reg, value in self.plan._base.items()
                            if value is not None and reg != "addr"]
        self._algo = algo
        #: Step names executed as lane kernels, in schedule order —
        #: every step of the program, or empty when it did not lower.
        self.lowered_steps: Tuple[str, ...] = ()
        self._kernels: List[Callable[[Lanes], None]] = []
        self._views: Dict[str, Any] = {}
        self._extract = None
        #: True when every step and the hop extraction run as kernels.
        self.fully_lowered = False
        #: ``addr`` is a key of ``width`` bits (``None``: no lane holds it).
        self._addr_dtype = key_dtype(self.width)
        self._lower(prev)

    def _lower(self, prev: Optional[Dict[str, Any]]) -> None:
        """Compile every step and the hop extraction to kernels, or
        leave the plan empty if the key or any of them has no array
        form.  ``prev`` maps step names to the views an earlier compile
        froze; the spec builders hand each back to its table's
        ``vector_reader(prev=)``."""
        if self._addr_dtype is None:
            return  # wider than any lane: nothing lowers
        extract = self._bind_extract()
        if extract is None or not all(
                isinstance(value, _BOOL_TYPES + _INT_TYPES)
                for _reg, value in self._base_items):
            return
        prev = prev or {}
        specs: Dict[str, VectorStepSpec] = dict(self._algo.vector_specs(prev))
        names = self.plan.step_names
        unknown = sorted(set(specs) - set(names))
        if unknown:
            raise VectorError(f"vector_specs for unknown steps: {unknown}")
        if len(specs) < len(names):
            return  # a step without a spec: nothing lowers
        views = {}
        for name in names:
            spec = specs[name]
            view = spec.reader
            if view is None and spec.select is not None:
                view = _table_view(self.plan.program.step(name),
                                   prev.get(name))
                if view is None:
                    return  # a table with no vector view: nothing lowers
            views[name] = view
        self.lowered_steps = tuple(names)
        self._kernels = [_compile_spec(specs[name], views[name])
                         for name in names]
        self._views = views
        self._extract = extract
        self.fully_lowered = True

    def _bind_extract(self):
        """The array hop extractor, or ``None`` when the algorithm
        overrides ``cram_extract_hop`` without a vector counterpart."""
        algo = self._algo
        from ..algorithms.base import LookupAlgorithm
        frozen = algo.vector_extract_factory()
        if frozen is not None:
            return frozen
        if (type(algo).vector_extract_hop
                is not LookupAlgorithm.vector_extract_hop):
            return algo.vector_extract_hop
        if type(algo).cram_extract_hop is LookupAlgorithm.cram_extract_hop:
            return _extract_hop_register
        return None

    def view_map(self) -> Dict[str, Any]:
        """Every step with a recorded table view, name → view object:
        the next compile's ``prev``, and what the artifact store
        serializes via :func:`view_state`."""
        return {name: view for name, view in self._views.items()
                if view is not None}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kernels)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> Optional[int]:
        """One packet through the lane kernels (a batch of one)."""
        return self.lookup_batch_hops([address])[0]

    def lookup_batch(self, addresses) -> np.ndarray:
        """A whole batch through the kernels.

        Returns an ``int64`` array of next hops with :data:`MISS_HOP`
        in no-route lanes.  A plan that did not lower runs the batch
        through the embedded scalar plan instead, on the live tables.
        An address the lane dtype cannot hold is outside
        ``[0, 2**width)``: ``ValueError`` (a non-integer: ``TypeError``).
        In-dtype but out-of-width values are admission's check
        (``LookupServer.submit``), not a per-batch array pass.
        """
        out = self._run(addresses)
        if out is None:
            hops = self.plan.lookup_batch([int(a) for a in addresses])
            return np.array([MISS_HOP if hop is None else hop
                             for hop in hops], dtype=np.int64)
        vals, none = out
        return np.where(none, MISS_HOP, vals)

    def lookup_batch_hops(self, addresses) -> List[Optional[int]]:
        """:meth:`lookup_batch` as ``List[Optional[int]]`` (engine form)."""
        out = self._run(addresses)
        if out is None:
            return self.plan.lookup_batch([int(a) for a in addresses])
        vals, none = out
        # The extraction's own mask says which lanes missed: no
        # sentinel round trip, no per-lane Python comparison.
        hops = vals.tolist()
        for lane in np.flatnonzero(none).tolist():
            hops[lane] = None
        return hops

    def _run(self, addresses) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(vals, none)`` lane vectors for the batch out of the
        kernels, or ``None`` when the plan did not lower."""
        if not self.fully_lowered:
            return None
        addrs = self._address_lanes(addresses)
        if addrs.ndim != 1:
            raise VectorError("lookup_batch expects a 1-D address vector")
        n = addrs.shape[0]
        if n <= self._chunk:
            return self._run_chunk(addrs)
        parts = [self._run_chunk(addrs[start:start + self._chunk])
                 for start in range(0, n, self._chunk)]
        return (np.concatenate([vals for vals, _none in parts]),
                np.concatenate([none for _vals, none in parts]))

    def _address_lanes(self, addresses) -> np.ndarray:
        """The batch as a key vector of the plan's width, in one strict
        pass: ``array`` packs integers only (no silent ``3.7 -> 3``)
        and refuses what the lane dtype cannot hold."""
        dtype = self._addr_dtype
        if isinstance(addresses, np.ndarray):
            if addresses.dtype == dtype:
                return addresses
            addresses = addresses.tolist()
        try:
            packed = array("Q" if dtype is np.uint64 else "q", addresses)
        except OverflowError:
            raise ValueError(
                f"address outside [0, 2**{self.width})") from None
        return np.frombuffer(packed, dtype=dtype)

    def _run_chunk(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lanes = Lanes(self._registers, addrs.shape[0])
        for reg, value in self._base_items:
            lanes.fill(reg, value)
        # Adopted, not copied: no CRAM step writes ``addr``.
        lanes.assign("addr", addrs)
        for kernel in self._kernels:
            kernel(lanes)
        return self._extract(lanes)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Deterministic lowering summary (for telemetry and docs)."""
        return {
            "algorithm": self.algorithm,
            "width": self.width,
            "steps": len(self.plan.step_names),
            "fully_lowered": self.fully_lowered,
            "lowered_steps": list(self.lowered_steps),
        }


def _extract_hop_register(lanes: Lanes) -> Tuple[np.ndarray, np.ndarray]:
    """Default extraction: the ``hop`` register, vectorized."""
    return lanes.values("hop"), lanes.is_none("hop")


def compile_vector_plan(algo, plan: Optional[LookupPlan] = None,
                        chunk: int = DEFAULT_CHUNK) -> VectorPlan:
    """Lower ``algo``'s compiled plan into a :class:`VectorPlan`."""
    return VectorPlan(algo, plan=plan, chunk=chunk)
