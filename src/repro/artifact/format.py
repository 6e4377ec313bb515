"""The ``.rap`` snapshot container: header + checksummed NumPy sections.

Layout (all integers little-endian)::

    offset 0   8 bytes   magic  b"REPROART"
    offset 8   4 bytes   uint32 format version
    offset 12  4 bytes   uint32 header length H
    offset 16  H bytes   header JSON (utf-8, sorted keys, compact)
    offset 16+H  32 bytes  SHA-256 of the header JSON bytes
    ...padding to a 64-byte boundary...
    data       raw C-order ndarray bytes, one span per section,
               each span aligned to 64 bytes

The header's ``sections`` table records, per section: ``name``,
``offset`` *relative to the data start* (so the table's own size does
not feed back into the offsets), ``length`` in bytes, ``sha256`` of
the raw bytes, ``dtype`` (NumPy dtype string) and ``shape``.

Nothing in the container is timestamped or machine-dependent: the same
logical content always serializes to the same bytes, which is what the
golden-format test pins.  Readers map the file once with
``np.memmap(mode="c")`` — copy-on-write pages, so loaded arrays can be
adopted into live structures and mutated without touching the file,
while unmodified pages stay shared across forked workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    ArtifactCorruptError,
    ArtifactFormatError,
    ArtifactTruncatedError,
    ArtifactVersionError,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SECTION_ALIGN",
    "write_snapshot",
    "read_snapshot",
    "fib_digest",
]

MAGIC = b"REPROART"
#: 2: a prefix TCAM's view persists as a ``range`` kind; version 1's
#: ternary kinds (a row matrix, per-group probes) are gone.
FORMAT_VERSION = 2
SECTION_ALIGN = 64

_PREFIX = struct.Struct("<8sII")  # magic, format version, header length
_SHA_LEN = 32


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) & ~(SECTION_ALIGN - 1)


def fib_digest(width: int, triples: Sequence[Tuple[int, int, int]]) -> str:
    """Content digest of a FIB as canonical sorted (bits, length, hop)
    triples — the identity an artifact claims to describe."""
    arr = np.asarray(sorted(triples), dtype=np.int64).reshape(-1, 3)
    h = hashlib.sha256()
    h.update(b"repro-fib:%d:" % width)
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def write_snapshot(path: str, header: Dict[str, Any],
                   sections: Sequence[Tuple[str, np.ndarray]]) -> None:
    """Serialize ``header`` + ``sections`` to ``path`` (deterministic).

    ``header`` must be JSON-serializable; the section table and format
    version are added here.  Section order is preserved as given — the
    caller fixes a canonical order so saves are byte-stable.
    """
    blobs: List[bytes] = []
    table: List[Dict[str, Any]] = []
    offset = 0
    for name, array in sections:
        arr = np.ascontiguousarray(array)
        raw = arr.tobytes()
        table.append({
            "name": name,
            "offset": offset,
            "length": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        })
        blobs.append(raw)
        offset = _align(offset + len(raw))

    doc = dict(header)
    doc["format_version"] = FORMAT_VERSION
    doc["sections"] = table
    hjson = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    data_start = _align(_PREFIX.size + len(hjson) + _SHA_LEN)
    with open(path, "wb") as handle:
        handle.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(hjson)))
        handle.write(hjson)
        handle.write(hashlib.sha256(hjson).digest())
        handle.write(b"\0" * (data_start - _PREFIX.size - len(hjson) - _SHA_LEN))
        cursor = 0
        for raw in blobs:
            handle.write(raw)
            cursor += len(raw)
            pad = _align(cursor) - cursor
            if pad:
                handle.write(b"\0" * pad)
                cursor += pad
        handle.flush()
        os.fsync(handle.fileno())


def read_snapshot(path: str) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse and fully verify a snapshot; return (header, arrays).

    Every stored checksum — header and all sections — is verified here,
    before any array is handed to a caller: a tampered artifact raises
    a typed :class:`~repro.artifact.errors.ArtifactError` and never
    surfaces as a wrong lookup answer.  Arrays are zero-copy views into
    a single copy-on-write ``np.memmap`` of the file.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise ArtifactFormatError(f"cannot stat artifact {path!r}: {exc}")
    if size < _PREFIX.size:
        raise ArtifactTruncatedError(
            f"{path!r}: {size} bytes is shorter than the fixed prefix")
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="c")
    except (OSError, ValueError) as exc:
        raise ArtifactFormatError(f"cannot map artifact {path!r}: {exc}")

    magic, version, hlen = _PREFIX.unpack(bytes(mm[:_PREFIX.size]))
    if magic != MAGIC:
        raise ArtifactFormatError(
            f"{path!r}: bad magic {magic!r} (expected {MAGIC!r})")
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path!r}: format version {version} is not supported "
            f"(this reader speaks version {FORMAT_VERSION})")
    header_end = _PREFIX.size + hlen + _SHA_LEN
    if size < header_end:
        raise ArtifactTruncatedError(
            f"{path!r}: header declares {hlen} bytes but the file ends "
            f"at {size}")
    hjson = bytes(mm[_PREFIX.size:_PREFIX.size + hlen])
    stored = bytes(mm[_PREFIX.size + hlen:header_end])
    if hashlib.sha256(hjson).digest() != stored:
        raise ArtifactCorruptError(f"{path!r}: header checksum mismatch")
    try:
        header = json.loads(hjson.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # A passing checksum with unparseable JSON means the writer was
        # broken, not the disk, but it is corruption all the same.
        raise ArtifactCorruptError(f"{path!r}: header is not JSON: {exc}")
    if not isinstance(header, dict) or "sections" not in header:
        raise ArtifactFormatError(f"{path!r}: header has no section table")

    data_start = _align(header_end)
    arrays: Dict[str, np.ndarray] = {}
    for entry in header["sections"]:
        try:
            name = entry["name"]
            off = int(entry["offset"])
            length = int(entry["length"])
            digest = entry["sha256"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactFormatError(
                f"{path!r}: malformed section entry: {exc}")
        start = data_start + off
        end = start + length
        if off < 0 or end > size:
            raise ArtifactTruncatedError(
                f"{path!r}: section {name!r} spans [{start}, {end}) but "
                f"the file ends at {size}")
        span = mm[start:end]
        if hashlib.sha256(span).hexdigest() != digest:
            raise ArtifactCorruptError(
                f"{path!r}: section {name!r} checksum mismatch")
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != length:
            raise ArtifactFormatError(
                f"{path!r}: section {name!r} declares shape {shape} "
                f"dtype {dtype} ({expected} bytes) but stores {length}")
        arrays[name] = span.view(dtype).reshape(shape)
    return header, arrays
