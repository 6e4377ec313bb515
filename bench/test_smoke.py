"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest bench/test_smoke.py

Runs every workload with ``--quick --trace 1`` and checks the shape of
what comes out; says nothing about speed.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(BENCH, "run.py"), "--quick"]

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(RUN + ["--trace", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.timeout(900)
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_every_answer_is_right(result, workload):
    runs = result["workloads"][workload]
    for part, catalogue in (("end_to_end", SPEC["end_to_end"]),
                            ("layers", SPEC["per_layer"])):
        run = runs[part]
        assert run["counts"]["sent"] > 0
        assert run["counts"]["failed_share"] == 0
        for entry in catalogue:
            metric = run["metrics"][entry["name"]]
            assert metric["value"] is not None, (entry["name"], metric)
    # Work per round is fixed, so the counts of the two rounds agree.
    first, second = runs["end_to_end"]["round_counts"]
    assert first == second
    layers = runs["layers"]["metrics"]
    commits = layers["control.applied"]["value"] \
        + layers["control.rebuilt"]["value"]
    assert commits == layers["engine.plan_patches"]["value"] \
        + layers["engine.plan_recompiles"]["value"]


@pytest.mark.timeout(300)
def test_a_wrong_hop_fails_the_run():
    done = subprocess.run(
        RUN + ["--workload", SPEC["workloads"][0]["name"],
               "--corrupt-one-hop"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert "FAILED" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
