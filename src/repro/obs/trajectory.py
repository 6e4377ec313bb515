"""Benchmark trajectory: turn point-in-time sidecars into a history.

Every ``bench_*`` run writes a JSON sidecar under
``benchmarks/results/`` — a snapshot with no memory.  This module
appends each crop of sidecars to a versioned ``BENCH_history.jsonl``
(one record per bench per run, keyed by a monotonically increasing
run index — no timestamps, so appending is deterministic and the
telemetry audit stays happy), computes deltas against the previous
run, and emits a regression report: **warn** on a >10% drop in any
throughput-like metric or a >10% inflation of any p99-like latency.

``repro bench-history`` is the CLI face (``benchmarks/trajectory.py``
wraps it for direct execution); CI runs ``--check`` as a *soft* gate
after the bench smokes — the report lands in the job log and the
history file in the artifacts, but only ``--strict`` turns warnings
into a non-zero exit.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

__all__ = [
    "HISTORY_VERSION",
    "DEFAULT_THRESHOLD",
    "collect_sidecars",
    "extract_record",
    "load_history",
    "append_run",
    "compare_runs",
    "render_report",
]

HISTORY_VERSION = 1

#: Relative change that trips a warning (10%).
DEFAULT_THRESHOLD = 0.10

#: Metric-name suffixes treated as "bigger is better" (throughput).
_THROUGHPUT_SUFFIXES = ("lookups_per_s", "per_s", "speedup_x", "_x")

#: Metric-name markers treated as "smaller is better" (tail latency).
_LATENCY_MARKERS = ("p99_s", "p999_s", "p50_s", "recovery_s")


def _flatten(prefix: str, value, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)


def metric_kind(name: str) -> Optional[str]:
    """Classify a flattened metric name for regression checking."""
    leaf = name.rsplit(".", 1)[-1]
    for marker in _LATENCY_MARKERS:
        if leaf == marker or leaf.endswith("_" + marker):
            return "latency"
    for suffix in _THROUGHPUT_SUFFIXES:
        if leaf.endswith(suffix):
            return "throughput"
    return None


def collect_sidecars(results_dir: str) -> List[Tuple[str, dict]]:
    """Read every ``*.json`` bench sidecar (sorted by name)."""
    out: List[Tuple[str, dict]] = []
    if not os.path.isdir(results_dir):
        return out
    for entry in sorted(os.listdir(results_dir)):
        if not entry.endswith(".json") or entry.endswith(".jsonl"):
            continue
        path = os.path.join(results_dir, entry)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("bench"):
            out.append((str(doc["bench"]), doc))
    return out


def extract_record(run: int, bench: str, doc: dict) -> dict:
    """One history record: the sidecar's numeric content, flattened."""
    metrics: Dict[str, float] = {}
    for section in ("values", "timings", "wall_timings"):
        payload = doc.get(section)
        if isinstance(payload, dict):
            _flatten(section, payload, metrics)
    return {
        "history_version": HISTORY_VERSION,
        "run": run,
        "bench": bench,
        "metrics": metrics,
    }


def load_history(history_path: str) -> List[dict]:
    records: List[dict] = []
    if not os.path.exists(history_path):
        return records
    with open(history_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "bench" in record:
                records.append(record)
    return records


def append_run(results_dir: str, history_path: str) -> Tuple[int, List[dict]]:
    """Append the current sidecars as the next run; returns
    ``(run_index, new_records)``.  No sidecars -> nothing appended."""
    history = load_history(history_path)
    run = 1 + max((r.get("run", 0) for r in history), default=0)
    sidecars = collect_sidecars(results_dir)
    records = [extract_record(run, bench, doc) for bench, doc in sidecars]
    if records:
        directory = os.path.dirname(os.path.abspath(history_path))
        os.makedirs(directory, exist_ok=True)
        with open(history_path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return run, records


def _runs_by_bench(history: List[dict]) -> Dict[str, Dict[int, dict]]:
    out: Dict[str, Dict[int, dict]] = {}
    for record in history:
        out.setdefault(record["bench"], {})[record.get("run", 0)] = record
    return out


def compare_runs(history: List[dict],
                 threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Delta report between the last two runs of every bench in the
    latest run (a retired sidecar's old records stay in the append-only
    history but are no longer reported).

    ``findings`` lists every classified metric's change; entries whose
    relative regression exceeds ``threshold`` carry
    ``severity="warn"`` (throughput drop / latency inflation), the
    rest ``severity="ok"``.
    """
    findings: List[dict] = []
    latest_run = max((r.get("run", 0) for r in history), default=0)
    benches = {bench: runs for bench, runs in _runs_by_bench(history).items()
               if latest_run in runs}
    for bench in sorted(benches):
        runs = benches[bench]
        run_ids = sorted(runs)
        current_id = run_ids[-1]
        previous_id = run_ids[-2] if len(run_ids) > 1 else None
        if previous_id is None:
            findings.append({
                "bench": bench, "metric": None, "kind": "baseline",
                "severity": "ok", "run": current_id,
                "note": "first recorded run — baseline only",
            })
            continue
        cur, prev = runs[current_id]["metrics"], runs[previous_id]["metrics"]
        for name in sorted(set(cur) & set(prev)):
            kind = metric_kind(name)
            if kind is None:
                continue
            was, now = prev[name], cur[name]
            if was == 0:
                continue
            change = (now - was) / abs(was)
            if kind == "throughput":
                regressed = change < -threshold
            else:
                regressed = change > threshold
            findings.append({
                "bench": bench, "metric": name, "kind": kind,
                "prev": was, "cur": now,
                "change_pct": round(change * 100.0, 2),
                "severity": "warn" if regressed else "ok",
                "run": current_id, "vs_run": previous_id,
            })
    warnings = [f for f in findings if f["severity"] == "warn"]
    return {
        "history_version": HISTORY_VERSION,
        "threshold_pct": round(threshold * 100.0, 2),
        "latest_run": latest_run,
        "benches": sorted(benches),
        "findings": findings,
        "warnings": warnings,
        "ok": not warnings,
    }


def render_report(report: dict) -> str:
    """Human-readable regression report (the CLI prints this)."""
    lines = [
        f"bench trajectory: run {report['latest_run']} across "
        f"{len(report['benches'])} bench(es), threshold "
        f"{report['threshold_pct']:g}%",
    ]
    for finding in report["findings"]:
        if finding["kind"] == "baseline":
            lines.append(f"  [base] {finding['bench']}: {finding['note']}")
            continue
        if finding["severity"] != "warn":
            continue
        arrow = "dropped" if finding["kind"] == "throughput" else "inflated"
        lines.append(
            f"  [WARN] {finding['bench']} {finding['metric']}: {arrow} "
            f"{finding['change_pct']:+.2f}% "
            f"({finding['prev']:g} -> {finding['cur']:g})")
    tracked = sum(1 for f in report["findings"]
                  if f["kind"] in ("throughput", "latency"))
    lines.append(
        f"  {tracked} tracked metric(s), "
        f"{len(report['warnings'])} warning(s)")
    return "\n".join(lines)
