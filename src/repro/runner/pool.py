"""Process-pool fan-out of :class:`~repro.runner.spec.RunSpec` grids.

Execution model
---------------
:func:`run_specs` is the single entry point — ``run_many`` and
``run_seeds`` in :mod:`repro.analysis` only build specs for it — and the
only code that picks inline or pool execution.  For every spec it first
consults the :class:`~repro.runner.cache.ResultCache` (in the parent —
lookups are cheap, and keeping the cache single-writer makes it race-free);
the remaining cold cells are executed either inline (``workers=0``, the
sequential path) or on a ``ProcessPoolExecutor``.  Workers rebuild the
workload from the spec (inline coflows unpickle; generated/callable specs
re-run their seeded generator, so large traces never cross the pipe),
construct a **fresh** scheduler, run the simulation, and send back a
compact :class:`~repro.runner.spec.ResultSummary` — or the full
:class:`~repro.core.simulator.SimulationResult` when the spec asks for it.

Array-bearing summaries (``arrays=True``, not ``full``) do not pickle
their per-flow/per-coflow columns through the result pipe: workers export
them to a ``multiprocessing.shared_memory`` segment and ship a
header-only descriptor instead (see :mod:`repro.runner.shm`); the parent
reattaches the columns before caching.  Transport never changes values —
the pooled results stay bit-identical to sequential at any worker count.

Determinism: the engine is deterministic given a workload, workloads are
regenerated from per-spec seeds with ``np.random.default_rng``, and
worker processes run the same interpreter + numpy as the parent, so
pooled results are **bit-identical** to the sequential path at any worker
count (asserted by ``tests/test_runner_equivalence.py``).

``REPRO_PARALLEL`` (env) supplies the worker count when ``workers`` is
``None`` (so also for ``run_many``/``run_seeds`` with ``parallel=None``);
``auto`` means one worker per usable core.  Inside a pool worker the
count is forced to ``0`` so nested calls never spawn pools-within-pools.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.kernels import usable_cores
from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.spec import ResultSummary, RunSpec
from repro.runner.telemetry import TelemetrySnapshot, _Stopwatch

ENV_PARALLEL = "REPRO_PARALLEL"
_ENV_IN_WORKER = "REPRO_IN_WORKER"


def resolve_workers(parallel: Union[None, int, str] = None) -> int:
    """Worker count for a ``parallel=`` argument.

    ``None`` defers to ``REPRO_PARALLEL`` (unset/empty → 0, i.e. the
    plain sequential path); ``"auto"`` → one worker per usable core;
    otherwise the integer itself (0 → sequential).  Always 0 inside a
    pool worker.
    """
    if os.environ.get(_ENV_IN_WORKER):
        return 0
    if parallel is None:
        parallel = os.environ.get(ENV_PARALLEL, "").strip() or 0
    if isinstance(parallel, str):
        if parallel.strip().lower() == "auto":
            return usable_cores()
        try:
            parallel = int(parallel)
        except ValueError:
            raise ConfigurationError(
                f"cannot parse worker count {parallel!r} "
                f"(expected an integer or 'auto')"
            ) from None
    return max(0, int(parallel))


@dataclass
class RunOutcome:
    """One executed (or cache-served) spec."""

    key: str
    summary: Optional[ResultSummary] = None
    #: populated for ``full=True`` specs (a SimulationResult).
    result: Optional[object] = None
    cached: bool = False
    wall_s: float = 0.0
    #: populated for ``telemetry=True`` specs that actually executed
    #: (cache-served cells ran nothing, so they carry no snapshot).
    telemetry: Optional[object] = None
    #: shared-memory descriptor for the summary's array columns, set by
    #: the pooled wrapper in the worker and consumed (attached + cleared)
    #: by the parent's collection loop — never survives run_specs.
    shm: Optional[object] = None
    #: collection-path evidence left behind by ``_reattach``: whether this
    #: cell's arrays came home over shared memory, and how many segment
    #: bytes that moved off the pickle pipe.
    shm_collected: bool = False
    shm_bytes: int = 0

    @property
    def payload(self):
        return self.result if self.result is not None else self.summary


def _mark_worker() -> None:
    """Pool initializer: forbid nested pools inside workers."""
    os.environ[_ENV_IN_WORKER] = "1"


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to completion in the current process."""
    from repro.analysis.harness import run_policy

    coflows = spec.workload.build()
    scheduler = spec.build_scheduler()
    obs = None
    if spec.telemetry:
        from repro.obs import Observability

        # Metrics only: no recorder (nothing consumes the trace).
        obs = Observability(trace=False, metrics=True)
    with _Stopwatch() as clock:
        result = run_policy(scheduler, coflows, spec.setup, obs=obs)
    key = spec.key or scheduler.name
    snapshot = None
    if spec.telemetry:
        snapshot = TelemetrySnapshot.capture(
            key, scheduler.name, obs, clock.wall_s, clock.cpu_s
        )
    if spec.full:
        return RunOutcome(
            key=key, result=result, wall_s=clock.wall_s, telemetry=snapshot
        )
    summary = ResultSummary.from_result(
        scheduler.name, result, arrays=spec.arrays
    )
    return RunOutcome(
        key=key, summary=summary, wall_s=clock.wall_s, telemetry=snapshot
    )


def _execute_spec_pooled(spec: RunSpec) -> RunOutcome:
    """Worker-side wrapper: run the spec, move array columns to shm.

    Only array-bearing summaries are rewritten — full results and plain
    summaries pickle as before.  If the export itself fails the segment
    is already unlinked (``export_arrays`` guarantees it) and the
    summary ships whole over the pipe, so the fallback is silent and
    value-identical.
    """
    out = execute_spec(spec)
    if spec.arrays and not spec.full and out.summary is not None:
        from repro.runner import shm as shm_mod

        summary = out.summary
        arrays = {
            name: getattr(summary, name)
            for name in summary._ARRAYS
            if getattr(summary, name) is not None
        }
        if arrays:
            try:
                block = shm_mod.export_arrays(arrays)
            except OSError:
                block = None  # no usable /dev/shm: pickle the arrays
            if block is not None:
                for name in arrays:
                    setattr(summary, name, None)
                out.shm = block
    return out


def _reattach(out: RunOutcome) -> RunOutcome:
    """Parent-side: restore array columns from the outcome's shm block."""
    if out.shm is not None:
        from repro.runner import shm as shm_mod

        block, out.shm = out.shm, None
        try:
            arrays = shm_mod.attach_arrays(block)
        except BaseException:
            shm_mod.discard(block)
            raise
        for name, arr in arrays.items():
            setattr(out.summary, name, arr)
        out.shm_collected = True
        out.shm_bytes = block.size
    return out


def run_specs(
    specs: Sequence[RunSpec],
    workers: Union[None, int, str] = None,
    cache=None,
) -> List[RunOutcome]:
    """Execute a grid of specs; results come back in spec order.

    Parameters
    ----------
    specs:
        The grid cells.
    workers:
        Pool size (see :func:`resolve_workers`); 0 runs inline,
        sequentially, in this process — the reference path the pool must
        reproduce bit-identically.
    cache:
        ``None`` (env-controlled default), ``True``/``False``, a cache
        directory, or a :class:`ResultCache`.
    """
    specs = list(specs)
    n_workers = resolve_workers(workers)
    store = ResultCache.resolve(cache)

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    cold: List[int] = []
    for i, spec in enumerate(specs):
        payload = store.get(spec)
        if payload is None:
            cold.append(i)
            continue
        # The key a cold run gives (execute_spec): the scheduler's name.
        outcomes[i] = RunOutcome(
            key=spec.key or spec.build_scheduler().name, cached=True,
            result=payload if spec.full else None,
            summary=None if spec.full else payload,
        )

    if n_workers <= 0 or len(cold) <= 1:
        for i in cold:
            out = execute_spec(specs[i])
            store.put(specs[i], out.payload)
            outcomes[i] = out
        return outcomes  # type: ignore[return-value]

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # Bounded-queue submission: at most ~2 pending tasks per worker, so a
    # multi-thousand-cell sweep never materialises all spec pickles at once.
    with ProcessPoolExecutor(
        max_workers=n_workers, initializer=_mark_worker
    ) as pool:
        pending = {}
        queue = iter(cold)
        exhausted = False
        try:
            while pending or not exhausted:
                while not exhausted and len(pending) < 2 * n_workers:
                    i = next(queue, None)
                    if i is None:
                        exhausted = True
                        break
                    pending[pool.submit(_execute_spec_pooled, specs[i])] = i
                if not pending:
                    break
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = pending.pop(fut)
                    out = _reattach(fut.result())  # re-raises worker exceptions
                    store.put(specs[i], out.payload)
                    outcomes[i] = out
        except BaseException:
            # A failing cell must not strand segments exported by cells
            # that already finished: drain whatever completed and discard
            # their unconsumed blocks before propagating.
            from repro.runner import shm as shm_mod

            done, _ = wait(pending)
            for fut in done:
                try:
                    leftover = fut.result()
                except BaseException:
                    continue
                if leftover.shm is not None:
                    shm_mod.discard(leftover.shm)
            raise
    return outcomes  # type: ignore[return-value]
