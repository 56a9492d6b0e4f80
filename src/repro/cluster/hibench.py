"""HiBench-like workload suites at the paper's three scales (Table VII).

The paper divides workloads into *large*, *huge* and *gigantic* by job
input size, reporting 2.4 GB / 25.7 GB / 2.65 TB of shuffle traffic without
Swallow.  A suite here is a mix of Table I applications whose per-job
``shuffle_scale`` is calibrated so the total uncompressed shuffle volume
hits the paper's figure for that scale — which makes the Table VII
"without Swallow" column reproduce by construction and leaves the "with
Swallow" column to the compression machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.job import JobSpec
from repro.errors import ConfigurationError
from repro.traces.spark import get_profile
from repro.units import GB, TB

#: Table VII "Without Swallow" shuffle traffic per workload scale.
SCALE_TRAFFIC: Dict[str, float] = {
    "large": 2.4 * GB,
    "huge": 25.7 * GB,
    "gigantic": 2.65 * TB,
}

#: Default app mix per suite.  Chosen to span Table I's compressibility
#: range (sort/terasort ~25% up to logistic-regression ~75%) so the mix's
#: byte-weighted saving lands near the paper's reported 48.41% average.
DEFAULT_MIX = (
    "sort", "terasort", "wordcount", "pagerank", "lda", "logistic-regression",
)


def hibench_suite(
    scale: str,
    rng: np.random.Generator,
    num_jobs: int = 12,
    apps: Optional[Sequence[str]] = None,
    mappers: int = 4,
    reducers: int = 4,
    arrival_rate: Optional[float] = None,
    input_to_shuffle: float = 2.0,
    iterative: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """Build one suite of jobs totalling the scale's Table VII traffic.

    Parameters
    ----------
    scale:
        "large", "huge" or "gigantic".
    num_jobs:
        Jobs in the suite; traffic is split evenly across them.
    apps:
        Application mix (cycled); defaults to the shuffle-heavy HiBench set.
    arrival_rate:
        Poisson job arrival rate; ``None`` staggers jobs by 1 s to avoid a
        thundering herd while keeping the cluster saturated.
    input_to_shuffle:
        Job input size as a multiple of its shuffle size.
    iterative:
        Optional ``{app name: rounds}`` marking iterative applications
        (e.g. ``{"pagerank": 3}``); their per-round volume shrinks so each
        job's *total* shuffle traffic stays calibrated to Table VII.
    """
    if scale not in SCALE_TRAFFIC:
        raise ConfigurationError(
            f"unknown scale {scale!r}; available: {sorted(SCALE_TRAFFIC)}"
        )
    if num_jobs <= 0:
        raise ConfigurationError("num_jobs must be positive")
    profiles = [get_profile(a) for a in (apps or DEFAULT_MIX)]
    per_job = SCALE_TRAFFIC[scale] / num_jobs
    t = 0.0
    specs: List[JobSpec] = []
    for k in range(num_jobs):
        app = profiles[k % len(profiles)]
        rounds = (iterative or {}).get(app.name, 1)
        natural = mappers * reducers * app.block_uncompressed
        shuffle_scale = per_job / (natural * rounds)
        specs.append(
            JobSpec(
                app=app,
                input_bytes=per_job * input_to_shuffle,
                num_mappers=mappers,
                num_reducers=reducers,
                shuffle_scale=shuffle_scale,
                arrival=t,
                rounds=rounds,
                label=f"{scale}-{app.name}-{k}",
            )
        )
        t += rng.exponential(1.0 / arrival_rate) if arrival_rate else 1.0
    return specs


def suite_shuffle_bytes(specs: Sequence[JobSpec]) -> float:
    """Total uncompressed shuffle volume of a suite."""
    return float(sum(s.shuffle_bytes for s in specs))


def expected_traffic_reduction(specs: Sequence[JobSpec]) -> float:
    """Byte-weighted compression saving if every shuffle compresses fully."""
    raw = suite_shuffle_bytes(specs)
    comp = sum(s.shuffle_bytes * s.app.ratio for s in specs)
    return 1.0 - comp / raw if raw > 0 else 0.0
