"""Summaries, the metric catalogue from ``BENCHMARK.json``, and printing."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def summary(samples, value=None):
    """A reported value is the median unless given; the samples stay
    beside it."""
    if value is None:
        value = statistics.median(samples)
    out = {"value": value, "n": len(samples), "samples": list(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


#: The share of a run's rounds whose edge ``best`` reports.
BEST_SHARE = 0.10


def best(samples, higher=False):
    """What the program does while the host runs at full speed.

    The sandbox's processors change speed every few seconds between two
    levels about 28 % apart (a single-threaded loop reads 103 or 132 ms),
    so a median over a run's rounds lands in whichever level filled more
    of that run and differs by that much from one run to the next.  The
    fast level repeats: the value is the edge of the best tenth of the
    rounds (the 10th percentile of a time, the 90th of a rate), and
    ``near`` is the edge of the best quarter, which is close to it
    whenever the run saw enough of the fast level.
    """
    if higher:
        edge = lambda q: -percentile([-s for s in samples], q)
    else:
        edge = lambda q: percentile(samples, q)
    out = summary(samples, edge(BEST_SHARE))
    out["near"] = edge(0.25)
    return out


def skipped(reason):
    return {"value": None, "skipped": reason}


def environment(seed):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None       # the driver's checkout is not a repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "git_commit": commit}


def _format(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"
    return f"{value:,}"


def print_metrics(title, catalogue, measured):
    """One line per metric of ``catalogue`` (BENCHMARK.json entries)."""
    print(f"\n{title}")
    for entry in catalogue:
        got = measured.get(entry["name"], skipped("not measured"))
        line = f"  {entry['name']:<44}{_format(got['value']):>14} {entry['unit']}"
        if "near" in got:
            line += f"   [best tenth of n={got['n']}; best quarter " \
                    f"{_format(got['near'])}, quartiles " \
                    f"{_format(got['q1'])} .. {_format(got['q3'])}]"
        elif "q1" in got:
            line += f"   [q1 {_format(got['q1'])}, q3 {_format(got['q3'])}," \
                    f" n={got['n']}]"
        if got.get("skipped"):
            line += f"   skipped: {got['skipped']}"
        print(line)


def driver_line(doc, catalogue, measured):
    """The last line of stdout: the contract with the benchmark driver.

    A probe that was skipped reads 0 here (the driver takes numbers
    only); the result file and the table above say ``null`` and why.
    """
    metrics = {}
    for entry in catalogue:
        value = measured.get(entry["name"], {}).get("value")
        metrics[entry["name"]] = {"value": 0 if value is None else value,
                                  "unit": entry["unit"]}
    counts = doc["counts"]
    return json.dumps({"correct": counts["failed"] == 0,
                       "attempted": counts["sent"],
                       "failed": counts["failed"], "metrics": metrics})
