.PHONY: install test lint bench guards reproduce examples clean

# Every target runs from the source tree, installed or not.
export PYTHONPATH := src

install:
	pip install -e . --no-build-isolation

test:
	python -m pytest -x -q

# Config lives in pyproject.toml ([tool.ruff]).  Skips gracefully when
# ruff is not on PATH so `make lint` is safe in minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

# The paper-claim benches as CI runs them.  The result cache stays off,
# so every claim is computed here rather than read back; its key does
# hash the sources, so a warm .repro-cache/ never serves an older engine.
bench:
	REPRO_CACHE=0 python -m pytest -q -p no:cacheprovider benchmarks \
		--ignore=benchmarks/bench_engine_microbench.py --benchmark-disable

# The micro-benchmark overhead guards as CI runs them, plus the start-up
# import contract (a module the benchmark's import line does not run must
# not load there).
GUARDS := disabled_tracing_overhead_under_5pct recorder_overhead_under_15pct \
	incremental_view_overhead_under_5pct columnar_ingest_cuts_submit_share \
	telemetry_plane_overhead_under_5pct jsonl_block_parse_near_json_floor \
	trace_export_beats_per_record_decode

guards:
	python -m pytest -q -p no:cacheprovider \
		$(addprefix benchmarks/bench_engine_microbench.py::test_,$(GUARDS)) \
		tests/test_startup_imports.py::test_benchmark_import_line_defers_what_it_does_not_run

reproduce:
	python -m repro reproduce

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# The tracked reports under benchmarks/reports/ stay: `make bench`
# rewrites them in place.
clean:
	rm -rf src/repro.egg-info .pytest_cache .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
