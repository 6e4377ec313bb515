"""Benchmark trajectory tests (:mod:`repro.obs.trajectory`).

History building and regression detection against synthetic sidecars
— plus the classification rules the warnings hinge on (throughput
drops are bad, latency inflations are bad, everything else ignored).
"""

import json

import pytest

from repro.obs import trajectory


def write_sidecar(directory, name, *, values=None, timings=None):
    doc = {"bench": name}
    if values is not None:
        doc["values"] = values
    if timings is not None:
        doc["timings"] = timings
    (directory / f"{name}.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n")


class TestMetricKind:
    @pytest.mark.parametrize("name,kind", [
        ("timings.concurrent_lookups_per_s", "throughput"),
        ("timings.speedup_x", "throughput"),
        ("timings.faulted_throughput_x", "throughput"),
        ("timings.latency.concurrent.request.p99_s", "latency"),
        ("timings.concurrent_p999_s", "latency"),
        ("timings.recovery_s", "latency"),
        ("timings.thread.request_p50_s", "latency"),
        ("values.workers", None),
        ("timings.sequential_s", None),
    ])
    def test_classification(self, name, kind):
        assert trajectory.metric_kind(name) == kind


class TestHistory:
    def test_append_assigns_increasing_run_indices(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        history = tmp_path / "BENCH_history.jsonl"
        write_sidecar(results, "demo",
                      timings={"lookups_per_s": 100.0})
        run1, records1 = trajectory.append_run(str(results), str(history))
        run2, records2 = trajectory.append_run(str(results), str(history))
        assert (run1, run2) == (1, 2)
        assert len(records1) == len(records2) == 1
        loaded = trajectory.load_history(str(history))
        assert [r["run"] for r in loaded] == [1, 2]
        assert all(r["history_version"] == trajectory.HISTORY_VERSION
                   for r in loaded)

    def test_empty_results_dir_appends_nothing(self, tmp_path):
        history = tmp_path / "h.jsonl"
        run, records = trajectory.append_run(str(tmp_path / "none"),
                                             str(history))
        assert records == []
        assert not history.exists()

    def test_non_sidecar_json_is_skipped(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "junk.json").write_text('{"no_bench_key": 1}\n')
        (results / "broken.json").write_text("{nope")
        assert trajectory.collect_sidecars(str(results)) == []

    def test_flattening_nests_and_skips_non_numbers(self, tmp_path):
        record = trajectory.extract_record(1, "demo", {
            "values": {"workers": 4, "algo": "resail", "nested": {"x": 2}},
            "timings": {"lookups_per_s": 10.0, "flag": True},
        })
        metrics = record["metrics"]
        assert metrics["values.workers"] == 4.0
        assert metrics["values.nested.x"] == 2.0
        assert metrics["timings.lookups_per_s"] == 10.0
        assert "values.algo" not in metrics
        assert "timings.flag" not in metrics  # bools are not numbers


class TestCompare:
    def _history(self, *runs):
        """Build history records for one bench across several runs."""
        return [
            {"history_version": 1, "run": i + 1, "bench": "demo",
             "metrics": metrics}
            for i, metrics in enumerate(runs)
        ]

    def test_single_run_is_baseline(self):
        report = trajectory.compare_runs(
            self._history({"timings.lookups_per_s": 100.0}))
        assert report["ok"]
        assert report["findings"][0]["kind"] == "baseline"

    def test_throughput_drop_warns(self):
        report = trajectory.compare_runs(self._history(
            {"timings.lookups_per_s": 100.0},
            {"timings.lookups_per_s": 80.0}))  # -20% > 10% threshold
        assert not report["ok"]
        assert report["warnings"][0]["metric"] == "timings.lookups_per_s"
        assert report["warnings"][0]["change_pct"] == -20.0

    def test_latency_inflation_warns(self):
        report = trajectory.compare_runs(self._history(
            {"timings.request_p99_s": 0.010},
            {"timings.request_p99_s": 0.020}))  # +100%
        assert not report["ok"]
        assert report["warnings"][0]["kind"] == "latency"

    def test_improvements_and_small_changes_pass(self):
        report = trajectory.compare_runs(self._history(
            {"timings.lookups_per_s": 100.0, "timings.request_p99_s": 0.02},
            {"timings.lookups_per_s": 108.0, "timings.request_p99_s": 0.019}))
        assert report["ok"]
        assert len([f for f in report["findings"]
                    if f["kind"] != "baseline"]) == 2

    def test_threshold_is_respected(self):
        history = self._history(
            {"timings.lookups_per_s": 100.0},
            {"timings.lookups_per_s": 85.0})  # -15%
        assert not trajectory.compare_runs(history, threshold=0.10)["ok"]
        assert trajectory.compare_runs(history, threshold=0.20)["ok"]

    def test_unclassified_metrics_are_ignored(self):
        report = trajectory.compare_runs(self._history(
            {"values.workers": 4.0}, {"values.workers": 1.0}))
        assert report["ok"]

    def test_vanished_metrics_are_removed_not_regressed(self):
        # A sidecar that drops a key (a deleted A-B leg) is not a drop
        # to zero: only metrics present in both runs are compared.
        report = trajectory.compare_runs(self._history(
            {"timings.vector_lookups_per_s": 100.0,
             "timings.unfused_lookups_per_s": 100.0},
            {"timings.vector_lookups_per_s": 101.0}))
        assert report["ok"]
        assert [f["metric"] for f in report["findings"]] == \
            ["timings.vector_lookups_per_s"]

    def test_retired_bench_is_not_reported(self):
        # "gone" stopped writing a sidecar after run 2: its regression
        # there must not be reported as if it belonged to run 3, and a
        # bench with one old record is not run 3's baseline either.
        history = self._history(
            {"timings.lookups_per_s": 100.0},
            {"timings.lookups_per_s": 100.0},
            {"timings.lookups_per_s": 100.0})
        history += [
            {"history_version": 1, "run": 1, "bench": "gone",
             "metrics": {"timings.lookups_per_s": 100.0}},
            {"history_version": 1, "run": 2, "bench": "gone",
             "metrics": {"timings.lookups_per_s": 50.0}},
            {"history_version": 1, "run": 1, "bench": "once",
             "metrics": {"timings.lookups_per_s": 100.0}},
        ]
        report = trajectory.compare_runs(history)
        assert report["ok"] and report["latest_run"] == 3
        assert report["benches"] == ["demo"]
        assert {f["bench"] for f in report["findings"]} == {"demo"}

    def test_render_report_mentions_warnings(self):
        report = trajectory.compare_runs(self._history(
            {"timings.lookups_per_s": 100.0},
            {"timings.lookups_per_s": 50.0}))
        text = trajectory.render_report(report)
        assert "[WARN]" in text
        assert "dropped" in text
        assert "1 warning(s)" in text


class TestCli:
    def test_bench_history_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "results"
        results.mkdir()
        history = tmp_path / "BENCH_history.jsonl"
        write_sidecar(results, "demo",
                      timings={"lookups_per_s": 100.0})
        args = ["bench-history", "--results-dir", str(results),
                "--history", str(history), "--check"]
        assert main(args) == 0
        assert "run 1" in capsys.readouterr().out
        # A 50% throughput collapse: soft gate still exits 0, strict
        # exits 1.
        write_sidecar(results, "demo",
                      timings={"lookups_per_s": 50.0})
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "soft gate" in out and "[WARN]" in out
        write_sidecar(results, "demo",
                      timings={"lookups_per_s": 25.0})
        assert main(args + ["--strict"]) == 1

    def test_report_out_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "results"
        results.mkdir()
        write_sidecar(results, "demo", timings={"lookups_per_s": 1.0})
        report_path = tmp_path / "report.json"
        assert main(["bench-history", "--results-dir", str(results),
                     "--history", str(tmp_path / "h.jsonl"),
                     "--report-out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["history_version"] == trajectory.HISTORY_VERSION
