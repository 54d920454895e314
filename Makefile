# Convenience targets for the repro library.

.PHONY: install test lint lint-diff bench bench-results bench-record \
	bench-check examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

test-output:
	pytest tests/ 2>&1 | tee test_output.txt

# Two layers: a general linter (ruff when available — what CI
# installs — falling back to pyflakes, else a warning) plus
# reprolint, the in-tree AST invariant linter (`repro lint`, needs
# only the repo itself). The overall exit status is the combination
# of whichever linters actually ran.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif command -v pyflakes >/dev/null 2>&1; then \
		pyflakes src tests benchmarks examples; \
	else \
		echo "warning: no general linter found (pip install" \
		     "ruff); running reprolint only"; \
	fi
	PYTHONPATH=src python -m repro lint

# Pre-commit helper: lint only the files changed vs DIFF_REF (the
# whole-program model is still built from the full tree).
DIFF_REF ?= HEAD

lint-diff:
	PYTHONPATH=src python -m repro lint --diff $(DIFF_REF)

bench:
	pytest benchmarks/ --benchmark-only

bench-output:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Baseline workflow (DESIGN.md §10): `bench-record` appends fresh
# records to the trajectory store — the canonical deployment benches
# plus the CLI reference workload; `bench-check` re-runs the reference
# workload and gates it against the store. Virtual-cost metrics are
# exact-match; the wall budget is generous because the committed
# baselines come from a different machine.
BENCH_STORE ?= benchmarks/baselines

bench-record:
	PYTHONPATH=src REPRO_BENCH_STORE=$(BENCH_STORE) pytest \
		benchmarks/bench_exp1_deployment.py::test_run_deployment \
		benchmarks/bench_exp3_materialization.py::test_table4 \
		--benchmark-only -q
	PYTHONPATH=src REPRO_BENCH_SCALE=test \
		REPRO_BENCH_STORE=$(BENCH_STORE) pytest \
		benchmarks/bench_serving_throughput.py \
		benchmarks/bench_fleet_overhead.py \
		benchmarks/bench_lineage_overhead.py \
		benchmarks/bench_lint_speed.py \
		benchmarks/bench_row_step.py \
		benchmarks/bench_sparse_chain.py \
		--benchmark-only -q
	PYTHONPATH=src python -m repro perf record \
		--dataset url --scale test --store $(BENCH_STORE)

bench-check:
	PYTHONPATH=src python -m repro perf check \
		--dataset url --scale test --against $(BENCH_STORE) \
		--wall-budget 4.0
	PYTHONPATH=src REPRO_BENCH_SCALE=test REPRO_BENCH_CHECK=1 \
		REPRO_BENCH_STORE=$(BENCH_STORE) pytest \
		benchmarks/bench_serving_throughput.py \
		benchmarks/bench_fleet_overhead.py \
		benchmarks/bench_lineage_overhead.py \
		benchmarks/bench_lint_speed.py \
		benchmarks/bench_row_step.py \
		benchmarks/bench_sparse_chain.py \
		--benchmark-only -q

examples:
	python examples/quickstart.py
	python examples/materialization_analysis.py
	python examples/custom_pipeline_component.py
	python examples/compare_deployment_approaches.py
	python examples/drift_detection.py
	python examples/persistence_and_resume.py
	python examples/url_classification.py
	python examples/serving_rollout.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
