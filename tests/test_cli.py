"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def fib_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fib.txt"
    assert main(["synthesize", "v4", "--scale", "0.002", "--out", str(path)]) == 0
    return str(path)


class TestSynthesize:
    def test_writes_fib(self, fib_file, capsys):
        from repro.datasets import load_fib

        fib = load_fib(fib_file)
        assert len(fib) > 1000

    def test_ipv6(self, tmp_path, capsys):
        path = tmp_path / "v6.txt"
        assert main(["synthesize", "v6", "--scale", "0.005",
                     "--out", str(path)]) == 0
        from repro.datasets import load_fib

        assert load_fib(path).width == 64


class TestLookup:
    def test_route_found(self, fib_file, capsys):
        from repro.datasets import load_fib

        fib = load_fib(fib_file)
        prefix = fib.prefixes()[0]
        from repro.prefix import format_address

        address = format_address(prefix.value, 32)
        assert main(["lookup", "--fib", fib_file, "--algorithm", "ltcam",
                     address]) == 0
        out = capsys.readouterr().out
        assert "port" in out

    def test_no_route_exit_code(self, fib_file, capsys):
        assert main(["lookup", "--fib", fib_file, "203.0.113.99"]) == 1
        assert "no route" in capsys.readouterr().out

    def test_unknown_algorithm(self, fib_file):
        with pytest.raises(SystemExit):
            main(["lookup", "--fib", fib_file, "--algorithm", "quantum",
                  "10.0.0.1"])

    def test_stats_reports_hot_tables(self, fib_file, capsys):
        from repro.datasets import load_fib
        from repro.prefix import format_address

        prefix = load_fib(fib_file).prefixes()[0]
        address = format_address(prefix.value, 32)
        assert main(["lookup", "--fib", fib_file, "--algorithm", "ltcam",
                     "--stats", address, address]) == 0
        out = capsys.readouterr().out
        assert "table accesses (hottest first):" in out
        assert "hit_rate=" in out

    def test_explain_prints_byte_stable_lowering_report(self, fib_file,
                                                        capsys):
        from repro.datasets import load_fib
        from repro.prefix import format_address

        prefix = load_fib(fib_file).prefixes()[0]
        address = format_address(prefix.value, 32)
        args = ["lookup", "--fib", fib_file, "--algorithm", "sail",
                "--backend", "vector", "--explain", address]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "algorithm: SAIL" in first
        assert "fully_lowered: true" in first
        assert "lowered_steps (" in first
        assert "lowered_steps (0)" not in first
        assert "port" in first  # the routes still print after the report
        # The report is deterministic: same invocation, same bytes.
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestMetrics:
    def test_single_algorithm(self, fib_file, capsys):
        assert main(["metrics", "--fib", fib_file,
                     "--algorithm", "resail"]) == 0
        out = capsys.readouterr().out
        assert "CRAM metrics" in out
        assert "Ideal RMT" in out and "Tofino-2" in out

    def test_selection_and_drmt(self, fib_file, capsys):
        assert main(["metrics", "--fib", fib_file, "--drmt",
                     "--algorithm", "resail", "mashup"]) == 0
        out = capsys.readouterr().out
        assert "CRAM pick" in out
        assert "dRMT" in out

    def test_prometheus_format_is_byte_identical(self, fib_file, capsys):
        args = ["metrics", "--fib", fib_file, "--algorithm", "resail",
                "--format", "prometheus", "--exercise", "40", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "# TYPE repro_cram_tcam_bits gauge" in first
        assert "repro_lookups_total" in first
        assert "repro_table_reads_total" in first
        # Wall clock never leaks into the deterministic rendering.
        assert "seconds" not in first

    def test_prometheus_with_serve_exercise_is_byte_identical(
            self, fib_file, capsys):
        # --exercise-serve routes requests through a FakeClock-driven
        # LookupServer so the repro_server_* family (spans, SLO, phase
        # counters) lands in the byte-stable rendering too.
        args = ["metrics", "--fib", fib_file, "--algorithm", "resail",
                "--format", "prometheus", "--exercise", "40",
                "--exercise-serve", "40", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        # 40 addresses in size-8 requests -> 5 coalesced submissions.
        assert 'repro_server_requests_total{server="exercise"} 5' in first
        assert ('repro_server_spans_total{phase="request",server="exercise"}'
                ' 5') in first
        assert "repro_server_spans_total" in first
        assert "repro_server_span_requests_sampled_total" in first
        assert "repro_server_slo_target_seconds" in first

    def test_json_format_carries_timings(self, fib_file, capsys):
        import json

        assert main(["metrics", "--fib", fib_file, "--algorithm", "resail",
                     "--format", "json", "--exercise", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "repro_lookups_total" in doc["metrics"]["counters"]
        assert any(k.startswith("repro_exercise") for k in doc["timings"])


class TestCodegen:
    def test_stdout(self, fib_file, capsys):
        assert main(["codegen", "--fib", fib_file,
                     "--algorithm", "ltcam"]) == 0
        out = capsys.readouterr().out
        assert "#include <core.p4>" in out

    def test_file_output(self, fib_file, tmp_path, capsys):
        out_path = tmp_path / "sketch.p4"
        assert main(["codegen", "--fib", fib_file, "--algorithm", "ltcam",
                     "--out", str(out_path)]) == 0
        assert "table fib" in out_path.read_text()
        assert "TODO" in capsys.readouterr().out


class TestGrowth:
    def test_projection(self, capsys):
        assert main(["growth", "--year", "2033"]) == 0
        out = capsys.readouterr().out
        assert "1,860,000" in out


class TestChurn:
    def test_smoke_run_deterministic(self, capsys):
        assert main(["churn", "--algo", "resail", "--ops", "150",
                     "--batch", "25", "--faults", "all", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert "=== managed FIB event log ===" in first
        assert "final: health=" in first
        assert main(["churn", "--algo", "resail", "--ops", "150",
                     "--batch", "25", "--faults", "all", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit, match="unknown faults"):
            main(["churn", "--faults", "nonsense", "--ops", "10"])

    def test_tightened_guard_rolls_back(self, capsys):
        assert main(["churn", "--algo", "resail", "--ops", "50",
                     "--batch", "25", "--sram-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "rolled back 2" in out
        assert "health=degraded" in out

    def test_fib_file_input(self, fib_file, capsys):
        assert main(["churn", "--fib", fib_file, "--ops", "40",
                     "--algo", "ltcam", "--seed", "3"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_metrics_and_events_archives(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        assert main(["churn", "--algo", "resail", "--ops", "100",
                     "--batch", "25", "--faults", "all", "--seed", "7",
                     "--metrics-out", str(metrics_path),
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        doc = json.loads(metrics_path.read_text())
        assert "repro_events_total" in doc["metrics"]["counters"]
        assert "repro_batch_size" in doc["metrics"]["histograms"]
        assert any(k.startswith("repro_batch_apply") for k in doc["timings"])
        lines = [json.loads(line)
                 for line in events_path.read_text().splitlines()]
        assert lines and all("kind" in line for line in lines)
        applied = doc["metrics"]["counters"]["repro_events_total"].get(
            '{kind="batch_applied"}', 0)
        assert applied == sum(
            1 for line in lines if line["kind"] == "batch_applied")


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, fib_file, tmp_path,
                                             capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "--fib", fib_file, "--algorithm", "resail",
                     "--count", "3", "--out", str(out),
                     "--jsonl", str(jsonl)]) == 0
        assert "all next hops verified" in capsys.readouterr().out
        events = json.loads(out.read_text())
        validate_chrome_trace(events)
        assert any(e["ph"] == "X" for e in events)
        assert all(json.loads(line)
                   for line in jsonl.read_text().splitlines())

    def test_smoke_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "traced" in out and "Perfetto" in out
        assert (tmp_path / "benchmarks/results/trace_smoke.json").exists()
        assert (tmp_path / "benchmarks/results/trace_smoke.jsonl").exists()

    def test_requires_fib_or_smoke(self):
        with pytest.raises(SystemExit, match="--fib is required"):
            main(["trace"])

    def test_explicit_addresses(self, fib_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--fib", fib_file, "--algorithm", "ltcam",
                     "--out", str(out), "10.0.0.1", "192.0.2.7"]) == 0
        assert "traced 2 lookups" in capsys.readouterr().out


class TestAggregate:
    def test_roundtrip(self, fib_file, tmp_path, capsys):
        out_path = tmp_path / "agg.txt"
        assert main(["aggregate", "--fib", fib_file, "--out", str(out_path)]) == 0
        assert "aggregated" in capsys.readouterr().out
        from repro.datasets import load_fib

        before = load_fib(fib_file)
        after = load_fib(out_path)
        assert len(after) <= len(before)


class TestResults:
    def test_prints_results(self, tmp_path, capsys):
        (tmp_path / "tab04_demo.txt").write_text("Table 4 demo\nrow\n")
        assert main(["results", "--dir", str(tmp_path)]) == 0
        assert "Table 4 demo" in capsys.readouterr().out

    def test_filter_and_missing(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("AAA\n")
        (tmp_path / "b.txt").write_text("BBB\n")
        assert main(["results", "--dir", str(tmp_path), "--only", "a"]) == 0
        out = capsys.readouterr().out
        assert "AAA" in out and "BBB" not in out
        assert main(["results", "--dir", str(tmp_path), "--only", "zzz"]) == 1

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["results", "--dir", str(tmp_path)]) == 1
