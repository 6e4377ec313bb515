#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE] [--quick]

With ``--workload`` it measures that workload in this process and ends
its standard output with one JSON line (the contract in
``BENCHMARK.json``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it, every workload runs
in a fresh subprocess of its own (twice with ``--trace 1``: untraced
first, then traced) and the results are merged into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in-process")
    parser.add_argument("--seed", type=int, default=11,
                        help="drives the address stream and the churn trace")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed rounds measure "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure the layers, with spans")
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="1+2 rounds of a tenth of the work (smoke test)")
    parser.add_argument("--corrupt-one-hop", action="store_true",
                        help="test hook: flip one returned hop; the run "
                             "must then fail")
    return parser.parse_args(argv)


def run_one(args):
    """Measure one workload in this process."""
    from bench import report
    from bench.ladder import Ladder
    from bench.measure import end_to_end, serve
    from bench.workloads import BY_NAME, SERVING, Inputs, save_artifact

    spec = report.load_spec()
    workload = BY_NAME[args.workload]
    if args.quick:
        workload = workload.quick()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    inputs = Inputs(workload, args.seed)
    doc = {"workload": workload.name, "trace": args.trace, "quick": args.quick,
           "seconds": seconds, "env": report.environment(args.seed),
           "config": {"serving": SERVING, "workload": vars(workload)}}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        catalog = save_artifact(inputs, work) if workload.warm_start else None
        if args.trace:
            ladder = Ladder(inputs, work, catalog, seconds, args.quick)
            measured = ladder.run()
            served = ladder.main
            doc["ladder"] = ladder.table()
            ladder.tracer.write(os.path.join(
                BENCH, "results", f"trace-{workload.name}.jsonl"))
            catalogue, title = spec["per_layer"], "per-layer"
        else:
            served = serve(inputs, catalog, seconds, quick=args.quick,
                           corrupt=args.corrupt_one_hop)
            measured = end_to_end(served)
            doc["round_counts"] = [r.counts for r in served.rounds]
            catalogue, title = spec["end_to_end"], "end-to-end"
    doc["counts"], doc["failures"] = served.counts, served.failures
    doc["calibration_ms"] = report.best(served.calibration_ms)
    doc["metrics"] = measured
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)

    counts = doc["counts"]
    report.print_metrics(f"{workload.name}  [{title}, seed {args.seed}]",
                         catalogue, measured)
    for row in doc.get("ladder", ()):
        print(f"  ladder {row['rung']:<36}{row['ns_per_lookup']:>12,.0f} ns"
              f"   self {row['self_ns']:>10,.0f} ns"
              f"   {100 * row['share_of_top']:6.1f} % of top")
    print(f"  host calibration loop {doc['calibration_ms']['value']:.3f} ms")
    print(f"  requests sent {counts['sent']:,}  succeeded "
          f"{counts['succeeded']:,}  failed {counts['failed']:,}  "
          f"failed_share {counts['failed_share']:.6f}")
    print(report.driver_line(doc, catalogue, measured))
    return 1 if counts["failed"] else 0


def run_all(args):
    """Every workload, each in a subprocess of its own."""
    from bench import report
    spec = report.load_spec()
    merged = {"env": report.environment(args.seed), "quick": args.quick,
              "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as parts:
        for entry in spec["workloads"]:
            name = entry["name"]
            into = merged["workloads"][name] = {}
            for trace in range(args.trace + 1):
                part = os.path.join(parts, f"{name}.{trace}.json")
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(args.seed),
                           "--trace", str(trace), "--out", part]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.quick:
                    command.append("--quick")
                if args.corrupt_one_hop:
                    command.append("--corrupt-one-hop")
                code = subprocess.run(command, cwd=ROOT).returncode
                status = status or code
                if os.path.exists(part):
                    with open(part, encoding="utf-8") as fh:
                        into["layers" if trace else "end_to_end"] = json.load(fh)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
    print("\nend-to-end, all workloads")
    for name, docs in merged["workloads"].items():
        run = docs.get("end_to_end")
        if run is None:
            print(f"  {name}: no result")
            continue
        print(f"  {name}   (sent {run['counts']['sent']:,}, "
              f"failed {run['counts']['failed']:,})")
        for entry in spec["end_to_end"]:
            value = run["metrics"][entry["name"]]["value"]
            print(f"    {entry['name']:<18}{value:>16,.4f} {entry['unit']}")
    return status


def main(argv=None):
    args = parse(argv)
    try:
        import repro  # noqa: F401  (the program under test, from src/)
    except ImportError as error:
        print(f"bench: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
