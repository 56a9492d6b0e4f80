"""One pass over a :class:`~repro.runner.spec.SweepGrid`, as ``repro
sweep`` and ``repro report`` run it."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.runner.cache import ResultCache
from repro.runner.pool import RunOutcome, resolve_workers, run_specs
from repro.runner.spec import SweepGrid
from repro.runner.telemetry import RunTelemetry


@dataclass
class Sweep:
    """The outcomes of a grid in spec order, and how they were run."""

    grid: SweepGrid
    outcomes: List[RunOutcome]
    workers: int
    wall_s: float
    cache: ResultCache
    telemetry: Optional[RunTelemetry] = None


def run_sweep(
    grid: SweepGrid,
    *,
    workers: Union[None, int, str] = None,
    cache: bool = True,
    cache_dir=None,
    telemetry: bool = False,
) -> Sweep:
    """Run every cell of ``grid`` through :func:`run_specs`.

    ``workers=None`` defers to ``REPRO_PARALLEL`` and, unlike the library
    default, goes wide when that is unset: a sweep exists to fan out.
    ``cache=False`` bypasses the result cache under ``cache_dir``.
    ``telemetry=True`` folds every cell's telemetry into the result.
    """
    workers = (resolve_workers(workers) if workers is not None
               else resolve_workers(None) or resolve_workers("auto"))
    results = ResultCache(root=cache_dir, enabled=None if cache else False)
    specs = grid.specs(telemetry=telemetry)
    t0 = time.perf_counter()
    outs = run_specs(specs, workers=workers, cache=results)
    wall = time.perf_counter() - t0
    tele = (RunTelemetry.collect(outs, workers=workers, wall_s=wall, cache=results)
            if telemetry else None)
    return Sweep(grid, outs, workers, wall, results, tele)
