"""Experiment harness: run workloads under many policies, compare results.

Every benchmark in ``benchmarks/`` boils down to "run this workload under
these schedulers on this fabric and report a metric" — this module is that
loop.  Workloads (lists of :class:`~repro.core.coflow.Coflow`) are read-only
to the engine, so one workload can be replayed under every policy for a
perfectly paired comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Union

from repro.compression.engine import CompressionEngine
from repro.core.coflow import Coflow
from repro.core.scheduler import Scheduler
from repro.core.simulator import SimulationResult, SliceSimulator
from repro.cpu.cores import CpuModel
from repro.errors import ConfigurationError
from repro.fabric.bigswitch import BigSwitch
from repro.schedulers import make_scheduler
from repro.units import gbps


@dataclass
class ExperimentSetup:
    """Shared environment of one experiment (fabric + CPU + codec)."""

    num_ports: int = 16
    bandwidth: float = gbps(1)
    slice_len: float = 0.01
    cores_per_node: int = 4
    codec: str = "lz4"
    size_dependent_ratio: bool = True
    sample_cpu: bool = False

    def __post_init__(self) -> None:
        for name in ("num_ports", "bandwidth", "slice_len"):
            value = getattr(self, name)
            if not 0 < value < float("inf"):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")

    def with_(self, **kw) -> "ExperimentSetup":
        """A modified copy (for parameter sweeps)."""
        return replace(self, **kw)

    def build_simulator(self, scheduler: Scheduler, obs=None) -> SliceSimulator:
        fabric = BigSwitch(self.num_ports, self.bandwidth)
        cpu = CpuModel(self.num_ports, cores_per_node=self.cores_per_node)
        compression = (
            CompressionEngine(self.codec, size_dependent=self.size_dependent_ratio)
            if scheduler.uses_compression
            else None
        )
        return SliceSimulator(
            fabric,
            scheduler,
            slice_len=self.slice_len,
            cpu=cpu,
            compression=compression,
            sample_cpu=self.sample_cpu,
            obs=obs,
        )


def run_policy(
    policy: Union[str, Scheduler],
    coflows: Sequence[Coflow],
    setup: Optional[ExperimentSetup] = None,
    obs=None,
) -> SimulationResult:
    """Run one policy over a workload and return the result.

    Live :class:`Scheduler` instances are ``fresh()``-ed first, so a
    scheduler that carries cross-run state (FVDF's last decision,
    EDF's admission sets) cannot leak it between runs.
    """
    setup = setup or ExperimentSetup()
    scheduler = make_scheduler(policy) if isinstance(policy, str) else policy.fresh()
    sim = setup.build_simulator(scheduler, obs=obs)
    sim.submit_many(list(coflows))
    return sim.run()


def check_distinct_names(policies: Sequence[Union[str, Scheduler]]) -> None:
    """Raise when two policies run schedulers of the same name: grid
    results are keyed by it, so theirs would merge (``edf-noadmission``
    runs ``edf-deadline``)."""
    seen: Dict[str, Union[str, Scheduler]] = {}
    for p in policies:
        name = make_scheduler(p).name if isinstance(p, str) else p.name
        if name in seen:
            raise ConfigurationError(
                f"policies {seen[name]!r} and {p!r} both run scheduler {name!r}"
            )
        seen[name] = p


def run_many(
    policies: Sequence[Union[str, Scheduler]],
    coflows: Sequence[Coflow],
    setup: Optional[ExperimentSetup] = None,
    parallel: Union[None, int, str] = None,
    cache=False,
) -> Dict[str, SimulationResult]:
    """Run several policies over the *same* workload (paired comparison).

    One full-result :class:`~repro.runner.spec.RunSpec` per policy, run by
    :func:`~repro.runner.pool.run_specs` and keyed by scheduler name (so
    names must be distinct).  ``parallel`` is its worker count: ``None``
    defers to the ``REPRO_PARALLEL`` env var (unset → inline), ``"auto"``
    uses one worker per core, 0 runs inline; results are bit-identical
    either way.  ``cache`` is the runner's ``cache=`` (default off).
    """
    from repro.runner import RunSpec, WorkloadSpec, run_specs

    check_distinct_names(policies)
    workload = WorkloadSpec.inline(coflows)
    setup = setup or ExperimentSetup()
    specs = [
        RunSpec(policy=p, workload=workload, setup=setup, full=True)
        for p in policies
    ]
    outs = run_specs(specs, workers=parallel, cache=cache)
    return {out.key: out.result for out in outs}


def speedups_over(
    results: Dict[str, SimulationResult],
    ours: str,
    metric: str = "avg_cct",
) -> Dict[str, float]:
    """``metric(baseline) / metric(ours)`` for every baseline in results."""
    if ours not in results:
        raise ConfigurationError(f"{ours!r} not among results {sorted(results)}")
    our_val = getattr(results[ours], metric)
    if our_val <= 0:
        raise ConfigurationError(f"{ours} has non-positive {metric}")
    return {
        name: getattr(res, metric) / our_val
        for name, res in results.items()
        if name != ours
    }
