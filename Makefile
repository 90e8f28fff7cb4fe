# Convenience targets for the GNN-DSE reproduction.

PY ?= python

.PHONY: install lint test test-fast bench bench-fast bench-smoke bench-micro-smoke serve-smoke bench-parallel-smoke trace-smoke loop-smoke serve-load-smoke bench-dse-smoke bench-cross-device-smoke bench-repo-smoke ci examples clean

install:
	$(PY) setup.py develop

# Lint is advisory locally (ruff may not be installed); CI installs ruff
# and fails on violations.  Config lives in pyproject.toml.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

test:
	$(PY) -m pytest tests/

# Skip tests marked slow (e.g. the float32 pipeline equivalence sweep).
test-fast:
	$(PY) -m pytest tests/ -m "not slow"

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Evaluation-pipeline throughput on untrained weights: finishes in
# seconds, no database or training required.  Every row asserts
# bit-identity against the eager per-point baseline in-row.
bench-smoke:
	$(PY) benchmarks/bench_pipeline.py --smoke

# The micro-benchmarks (benchmarks/bench_micro.py) run once each, untimed:
# every one asserts its result, so this keeps them working.
bench-micro-smoke:
	$(PY) -m pytest benchmarks/bench_micro.py -q --benchmark-disable

# Boot the HTTP model server on an ephemeral port and round-trip
# predict + dse + metrics through it; exits non-zero on any mismatch.
serve-smoke:
	$(PY) benchmarks/serve_smoke.py

# Sharded parallel DSE vs the serial sweep: bit-identical results and
# overlap of the (simulated) dispatch cost across 4 workers.
bench-parallel-smoke:
	$(PY) benchmarks/bench_parallel_dse.py --smoke

# Tiny traced DSE through the CLI; validates the exported trace JSON
# against its schema, span-tree containment, and the live metrics
# registry.
trace-smoke:
	cd benchmarks && $(PY) trace_smoke.py

# Two tiny active-learning rounds (estimator oracle) hot-swapping a
# live server under background request load: asserts a new artifact
# version per round, the server answers under both the baseline and
# the final model, and zero requests fail across the swaps.
loop-smoke:
	$(PY) benchmarks/loop_smoke.py

# Open-loop load test against the multi-worker pool: Poisson + burst
# arrivals with per-request deadlines.  Asserts zero 5xx, bounded p99,
# bit-identical predictions across workers, fleet-wide hot-swap
# convergence under load, and a drop-free rolling restart.
serve-load-smoke:
	$(PY) benchmarks/bench_serve_load.py --smoke

# Search-quality gate: race vs the SA baseline at the same query
# budget on three kernels — asserts race hypervolume >= SA and that a
# rerun reproduces every number and ledger row bit-for-bit — plus two
# ModelDSE ordered-beam runs on mvt that must return identical results
# and a race under a 1 ms time limit that must come back cut.
bench-dse-smoke:
	$(PY) benchmarks/bench_dse_quality.py --smoke

bench-cross-device-smoke:
	$(PY) benchmarks/bench_cross_device.py --smoke

# The repository benchmark (bench/, declared in BENCHMARK.json) on all
# four workloads at smoke length.  run.py exits non-zero when a
# workload's worker crashes or times out; the second step also fails
# the gate when a workload reports a failed output check.
BENCH_REPO_SMOKE_OUT ?= artifacts/bench_repo_smoke.json
bench-repo-smoke:
	$(PY) bench/run.py --seed 0 --smoke --out $(BENCH_REPO_SMOKE_OUT)
	$(PY) -c "import json, sys; \
	runs = json.load(open('$(BENCH_REPO_SMOKE_OUT)'))['workloads']; \
	bad = sorted(n for n, w in runs.items() if not w['result']['correct']); \
	sys.exit('bench: failed checks in %s' % bad if bad else 0)"

# Everything CI runs, in the same order: lint, the tier-1 suite, and
# the ten smoke gates.  `make ci` green locally = workflow green.
ci: lint
	$(PY) -m pytest tests/ -x -q
	$(MAKE) bench-smoke
	$(MAKE) bench-micro-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-parallel-smoke
	$(MAKE) trace-smoke
	$(MAKE) loop-smoke
	$(MAKE) serve-load-smoke
	$(MAKE) bench-dse-smoke
	$(MAKE) bench-cross-device-smoke
	$(MAKE) bench-repo-smoke

# Smoke-scale benchmark run (~minutes): tiny database + training budgets.
bench-fast:
	REPRO_SCALE=0.1 REPRO_EPOCHS=6 REPRO_TABLE2_EPOCHS=4 \
	REPRO_FIG7_ROUNDS=2 REPRO_FIG7_EPOCHS=2 REPRO_ABLATION_EPOCHS=2 \
	$(PY) -m pytest benchmarks/ --benchmark-only

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/explore_design_space.py

clean:
	rm -rf .repro_cache .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
