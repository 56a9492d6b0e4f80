"""Parallel experiment execution with a content-addressed result cache.

The evaluation surface of the paper is a grid of (policy × workload ×
setup) simulation runs; this subsystem makes that grid cheap twice over:

* **fan-out** — :func:`run_specs` executes a grid of picklable
  :class:`RunSpec` cells over a ``ProcessPoolExecutor``, bit-identically
  to the sequential loop it replaces;
* **memoisation** — a content-addressed cache under ``.repro-cache/``
  (:class:`ResultCache`) returns unchanged cells near-instantly on
  re-runs; disable with ``REPRO_CACHE=0`` or ``cache=False``.

Most callers never touch this package directly: ``run_many``/``run_seeds``
in :mod:`repro.analysis` build their specs and hand them to
:func:`run_specs` (their ``parallel=`` is its worker count, defaulting to
the ``REPRO_PARALLEL`` env var, unset → inline), and ``python -m repro
sweep`` drives full grids from the command line.
"""

from repro.core.kernels import usable_cores
from repro.runner.cache import ResultCache, cache_enabled_by_env, default_cache_root
from repro.runner.pool import RunOutcome, execute_spec, resolve_workers, run_specs
from repro.runner.spec import (
    CACHE_SCHEMA,
    GRID,
    SUMMARY_METRICS,
    ResultSummary,
    RunSpec,
    SweepGrid,
    WorkloadSpec,
)
from repro.runner.telemetry import RunTelemetry, TelemetrySnapshot

__all__ = [
    "RunSpec", "WorkloadSpec", "ResultSummary", "RunOutcome",
    "SweepGrid", "GRID",
    "run_specs", "execute_spec", "resolve_workers", "usable_cores",
    "ResultCache", "cache_enabled_by_env", "default_cache_root",
    "CACHE_SCHEMA", "SUMMARY_METRICS",
    "RunTelemetry", "TelemetrySnapshot",
]
