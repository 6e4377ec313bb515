"""Compare two result files of ``bench/run.py --out``.

    python -m bench.compare A.json B.json

One row per (workload, end-to-end metric): both values, how much worse
B reads than A in the metric's own direction, and a verdict against the
bound ``BENCHMARK.json`` fixes for that metric:

* ``ok``         B is not worse than A by more than the bound;
* ``worse``      it is (the command then exits 1);
* ``unresolved`` either value is not sharp enough to tell at that bound:
  the edges of the run's best tenth and best quarter of rounds lie
  further apart than the bound (the run saw too little of the host's
  fast level, see ``report.best``), or, for a median, the first and third
  quartile do -- unless every sample of B reads better than every sample
  of A, which is ``ok`` whatever the spread.

A run with failed requests is ``worse`` on every metric of its workload.
"""

from __future__ import annotations

import json
import sys

from .report import load_spec


def _spread(metric):
    if "q1" not in metric or not metric["value"]:
        return 0.0
    if "near" in metric:
        return abs(metric["near"] - metric["value"]) / abs(metric["value"])
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def _all_better(a, b, lower):
    if lower:
        return max(b["samples"]) < min(a["samples"])
    return min(b["samples"]) > max(a["samples"])


def compare(a_doc, b_doc, spec):
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_run = a_doc["workloads"][workload]["end_to_end"]
        b_run = b_doc["workloads"][workload]["end_to_end"]
        for entry in spec["end_to_end"]:
            a = a_run["metrics"][entry["name"]]
            b = b_run["metrics"][entry["name"]]
            lower = entry["better"] == "lower"
            change = (b["value"] - a["value"]) / a["value"]
            worse_by = change if lower else -change
            if b_run["counts"]["failed"]:
                verdict = "worse"
            elif _all_better(a, b, lower):
                verdict = "ok"
            elif max(_spread(a), _spread(b)) > entry["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > entry["bound"] else "ok"
            rows.append((workload, entry, a["value"], b["value"], worse_by,
                         max(_spread(a), _spread(b)), verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = compare(docs[0], docs[1], load_spec())
    print(f"{'workload':<26}{'metric':<16}{'A':>14}{'B':>14}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for workload, entry, a, b, worse_by, spread, verdict in rows:
        print(f"{workload:<26}{entry['name']:<16}{a:>14,.4g}{b:>14,.4g}"
              f"{100 * worse_by:>9.1f}%{100 * spread:>8.1f}%"
              f"{100 * entry['bound']:>6.0f}%  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
