.PHONY: install test lint bench bench-hotpath bench-sweep bench-bigtrace bench-stream reproduce examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Config lives in pyproject.toml ([tool.ruff]).  Skips gracefully when
# ruff is not on PATH so `make lint` is safe in minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# Re-run the hot-path scaling grid and append to BENCH_hotpath.json,
# failing if the vectorized path has regressed below 3x over the pinned
# scalar reference.
bench-hotpath:
	python -m repro bench --check

# Time the fig6e-shaped sweep grid sequentially vs the 4-worker process
# pool vs the warm result cache, append to BENCH_sweep.json, and fail if
# the runner's suite-level speedup drops below 2.5x or the parallel
# results stop being bit-identical to sequential.
bench-sweep:
	python -m repro sweep --bench --check

# Replay the synthetic FB-like trace (130k+ flows, 32k coflows) end to
# end through the columnar engine and the pinned pre-columnar baseline,
# append to BENCH_bigtrace.json, and fail unless the results stay
# bit-identical and the end-to-end speedup clears 3x.
bench-bigtrace:
	python -m repro bench --bigtrace --check

# Stream 1M flows through the long-lived scheduler service (tick-by-tick
# admission, bounded in-flight window, incremental drain), append to
# BENCH_stream.json, and fail unless every flow retires, memory stays
# backlog-bounded, and steady-state throughput clears the floor.
bench-stream:
	python -m repro serve --bench --check

reproduce:
	python -m repro reproduce

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf benchmarks/reports src/repro.egg-info .pytest_cache .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
