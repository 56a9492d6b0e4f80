"""Multi-seed experiment statistics.

Single-trace comparisons can flatter a policy by luck of placement; this
module repeats an experiment across seeds and reports mean ± standard
deviation (and pairwise win rates), so benchmark conclusions can be
asserted robustly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.harness import ExperimentSetup, check_distinct_names
from repro.core.coflow import Coflow
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError

WorkloadFactory = Callable[[int], Sequence[Coflow]]


@dataclass
class SeedStats:
    """Per-policy samples of one metric across seeds."""

    metric: str
    samples: Dict[str, np.ndarray]

    def mean(self, name: str) -> float:
        return float(self.samples[name].mean())

    def std(self, name: str) -> float:
        return float(self.samples[name].std(ddof=1)) if len(self.samples[name]) > 1 else 0.0

    def speedup_mean(self, baseline: str, ours: str) -> float:
        """Mean per-seed speedup of ``ours`` over ``baseline``."""
        return float((self.samples[baseline] / self.samples[ours]).mean())

    def win_rate(self, ours: str, baseline: str) -> float:
        """Fraction of seeds where ``ours`` beats ``baseline``."""
        return float((self.samples[ours] < self.samples[baseline]).mean())

    def summary_rows(self) -> List[List]:
        return [
            [name, self.mean(name), self.std(name)]
            for name in sorted(self.samples)
        ]


def run_seeds(
    policies: Sequence[Union[str, Scheduler]],
    workload_factory: WorkloadFactory,
    setup: Optional[ExperimentSetup] = None,
    seeds: Sequence[int] = range(5),
    metric: str = "avg_cct",
    parallel: Union[None, int, str] = None,
    cache=False,
    workload_tag: Optional[str] = None,
) -> SeedStats:
    """Run every policy on every seed's workload; collect one metric.

    The (seed × policy) grid is one :class:`~repro.runner.spec.RunSpec`
    per cell, run by :func:`~repro.runner.pool.run_specs` (``parallel``
    is its worker count, ``cache`` its ``cache=``, default off).  Each
    cell rebuilds its workload as ``workload_factory(seed)``, so the
    factory must be deterministic per seed: the policies of one seed then
    share the same workload (paired design).  Pooled runs pickle the
    factory into the workers, so it must then be a module-level function,
    not a lambda or closure.  Opaque callables are uncacheable unless a
    stable ``workload_tag`` names their content for the result cache.
    Metrics beyond the compact summary's scalars ship full results.
    Policies must run schedulers of distinct names.
    """
    from repro.runner import SUMMARY_METRICS, RunSpec, WorkloadSpec, run_specs

    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    check_distinct_names(policies)
    full = metric not in SUMMARY_METRICS
    setup = setup or ExperimentSetup()
    specs = []
    for seed in seeds:
        workload = WorkloadSpec.from_callable(workload_factory, seed, tag=workload_tag)
        specs += [
            RunSpec(policy=p, workload=workload, setup=setup, full=full)
            for p in policies
        ]
    acc: Dict[str, List[float]] = {}
    for out in run_specs(specs, workers=parallel, cache=cache):
        acc.setdefault(out.key, []).append(float(getattr(out.payload, metric)))
    return SeedStats(
        metric=metric,
        samples={name: np.asarray(vals) for name, vals in acc.items()},
    )
