# Convenience targets for the CRAM-lens reproduction.

PYTHON ?= python

.PHONY: install test ci conformance bench bench-smoke bench-vector \
        bench-updates chaos spans examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ --durations=15

ci: test          ## what .github/workflows/ci.yml runs: tests + smokes
	$(PYTHON) -m repro churn --smoke --algo resail --seed 7 \
	    --metrics-out benchmarks/results/churn_smoke_metrics.json \
	    --events-out benchmarks/results/churn_smoke_events.jsonl
	$(PYTHON) -m repro churn --smoke --algo bsic --seed 7
	$(PYTHON) -m repro trace --smoke
	$(PYTHON) -m repro serve --smoke --algo resail --seed 7 \
	    --metrics-out benchmarks/results/serve_smoke_metrics.json
	$(PYTHON) -m repro serve --smoke --algo sail --seed 7
	$(PYTHON) -m repro serve --smoke --algo resail --workers 2 \
	    --max-batch 64 --max-wait 1.0 --seed 7
	$(PYTHON) -m repro serve --smoke --family v6 --algo bsic --seed 7 \
	    | tee benchmarks/results/serve_smoke_v6.txt
	test `grep -c "backend vector" benchmarks/results/serve_smoke_v6.txt` -eq 2
	grep -q "all consistent" benchmarks/results/serve_smoke_v6.txt
	$(PYTHON) -m repro serve --smoke --family v6 --vrfs 4 --algo bsic \
	    --seed 7 | tee benchmarks/results/serve_smoke_v6_vrf.txt
	grep -q "all consistent" benchmarks/results/serve_smoke_v6_vrf.txt
	grep -q "backend plan" benchmarks/results/serve_smoke_v6_vrf.txt
	test `grep -c "^  shard " benchmarks/results/serve_smoke_v6_vrf.txt` -eq \
	    `grep -c "lookups, backend plan$$" benchmarks/results/serve_smoke_v6_vrf.txt`
	$(PYTHON) -m repro artifact save rib --algo resail --scale 0.005 \
	    --seed 7 --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro artifact verify rib --deep \
	    --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro serve --smoke --algo resail --seed 7 \
	    --load rib --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro artifact save sailrib --algo sail --scale 0.005 \
	    --seed 7 --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro artifact verify sailrib --deep \
	    --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro serve --smoke --algo sail --seed 7 \
	    --load sailrib --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro serve --smoke --algo sail --workers 2 \
	    --mode process --max-batch 64 --max-wait 1.0 --seed 7 \
	    --load sailrib --catalog benchmarks/results/artifacts
	$(PYTHON) -m repro chaos-soak --mode both --seed 7 \
	    --out benchmarks/results/chaos_soak.json
	$(PYTHON) -m repro chaos-soak --mode both --seed 7 --rate 0 \
	    --script kill:0:1 --script kill:1:2 --script kill:2:3 \
	    --out benchmarks/results/chaos_soak_kills.json
	REPRO_BENCH_SCALE=0.02 $(PYTHON) -m pytest \
	    benchmarks/bench_tab04_ipv4_cram.py benchmarks/bench_updates.py \
	    benchmarks/bench_throughput.py benchmarks/bench_coldstart.py -q

conformance:      ## wide-width engine conformance sweep (CI's slow job)
	$(PYTHON) -m pytest tests/test_engine_conformance.py -q -m slow

bench:            ## full paper reproduction (~6 min, full BGP scale)
	$(PYTHON) -m pytest benchmarks/

bench-smoke:      ## fast shape check on 2%-scale databases (~30 s)
	REPRO_BENCH_SCALE=0.02 $(PYTHON) -m pytest benchmarks/

bench-vector:     ## lane-compiler gate: vector >= 3x scalar plan
	REPRO_BENCH_SCALE=0.02 $(PYTHON) -m pytest \
	    benchmarks/bench_throughput.py -q -k vector

bench-updates:    ## churn gate: delta commits >= 5x full recompiles
	REPRO_BENCH_SCALE=0.02 $(PYTHON) -m pytest \
	    benchmarks/bench_updates.py -q

chaos:            ## chaos soak: thread + process pools under fault injection
	$(PYTHON) -m repro chaos-soak --mode both --seed 7 \
	    --out benchmarks/results/chaos_soak.json
	$(PYTHON) -m repro chaos-soak --mode both --seed 7 --rate 0 \
	    --script kill:0:1 --script kill:1:2 --script kill:2:3 \
	    --out benchmarks/results/chaos_soak_kills.json
	$(PYTHON) -m repro serve --smoke --algo resail --workers 2 \
	    --chaos default --seed 7

spans:            ## span smoke: full sampling, consistency check, Perfetto export
	$(PYTHON) -m repro serve --smoke --algo resail --workers 2 \
	    --sample-rate 1.0 --seed 7 \
	    --span-jsonl benchmarks/results/serve_spans.jsonl \
	    --span-chrome benchmarks/results/serve_spans_trace.json
	$(PYTHON) -m repro serve --smoke --algo resail --workers 2 \
	    --chaos worker_kill --chaos-seed 1 --sample-rate 1.0 --seed 7 \
	    --span-jsonl benchmarks/results/serve_chaos_spans.jsonl \
	    --span-chrome benchmarks/results/serve_chaos_spans_trace.json

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
