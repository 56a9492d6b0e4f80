.PHONY: install test lint bench reproduce examples clean

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

bench:
	pytest benchmarks/ --benchmark-only

reproduce:
	python -m repro reproduce

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf benchmarks/reports src/repro.egg-info .pytest_cache .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
