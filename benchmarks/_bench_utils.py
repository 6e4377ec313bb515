"""Helpers shared by the benchmark files (kept out of conftest so the
import works regardless of pytest's conftest handling).

``emit`` persists the human-readable table; pass ``values`` and/or
``timings`` and it also writes a ``.json`` sidecar next to the
``.txt`` for CI's ratio gates to read (CI uploads
``benchmarks/results/*.json`` as artifacts).  Sidecar layout::

    {
      "bench": "<name>",
      "values": {...},     # deterministic numbers the bench asserts on
      "timings": {...}     # wall-clock measurements (non-deterministic)
    }

Only ``values`` is stable across same-seed runs; anything wall-clock
lives in ``timings``, mirroring the determinism split in
:mod:`repro.obs.registry`.
"""

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str, *, values=None, timings=None) -> pathlib.Path:
    """Print a reproduced table and persist it under benchmarks/results/.

    Returns the path of the written ``.txt``.  When ``values``
    (deterministic result numbers) or ``timings`` (wall-clock seconds)
    is given, a ``<name>.json`` sidecar is written as well.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n")
    if values is not None or timings is not None:
        doc = {"bench": name}
        if values is not None:
            doc["values"] = values
        if timings is not None:
            doc["timings"] = timings
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=_jsonable)
            + "\n")
    return path


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=str)
    return str(value)
