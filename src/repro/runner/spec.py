"""Picklable experiment specifications and compact result summaries.

The parallel runner fans work out over a process pool, so everything that
crosses the process boundary is described here:

* :class:`WorkloadSpec` — how a worker obtains its workload.  Small traces
  travel *inline* (the coflows are pickled into the spec); seeded traces
  travel as a *generation recipe* (a :class:`~repro.traces.generator.
  WorkloadConfig` plus a seed, or a picklable ``factory(seed)`` callable)
  and are regenerated inside the worker, so large workloads never transit
  the pipe.
* :class:`RunSpec` — one experiment cell: a policy (registry name + params,
  or a live :class:`~repro.core.scheduler.Scheduler`), a workload spec and
  an :class:`~repro.analysis.harness.ExperimentSetup`.
* :class:`SweepGrid` — a (policy × bandwidth × seed) grid of generated
  workloads that expands into one :class:`RunSpec` per cell; :data:`GRID`
  is the default grid of ``repro sweep``/``repro report``.
* :class:`ResultSummary` — the compact record a worker sends back instead
  of pickling a whole :class:`~repro.core.simulator.SimulationResult`
  (set ``RunSpec.full=True`` when a consumer needs per-flow results).

Cache keys
----------
:meth:`RunSpec.digest` derives the content-addressed cache key: a SHA-256
over a canonical JSON rendering of (schema, package version, numpy
version, a SHA-256 of the package's ``*.py`` sources, policy name +
params, workload content, setup).  The source hash makes an engine edit
miss every cell cached before it, version bump or not; it is computed
once per process, on the first digest.  Identifier fields that cannot
affect metrics (``flow_id`` / ``coflow_id``, which come from global
counters) are excluded, so the same *content* generated twice in one
process hits the same cache cell.  Specs that embed arbitrary live
objects (a scheduler instance, a factory callable without an explicit
``tag``) are *uncacheable* — ``digest()`` returns ``None`` and the
runner simply executes them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

import repro
from repro.analysis.harness import ExperimentSetup
from repro.core.coflow import Coflow
from repro.core.scheduler import Scheduler
from repro.core.simulator import SimulationResult
from repro.errors import ConfigurationError
from repro.traces.distributions import LogNormalSizes
from repro.units import KB, MB, gbps, mbps

if TYPE_CHECKING:
    from repro.traces.generator import WorkloadConfig

#: Version tag folded into every cache digest; bump when the cached entry's
#: format changes (a source edit already changes every key).
CACHE_SCHEMA = "repro-runner-v1"


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 of the ``repro`` package's ``*.py`` files (relative path,
    size and bytes of each, in path order), read once per process."""
    package = Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class _Uncacheable(Exception):
    """Internal: the spec contains an object with no canonical rendering."""


def _canon(obj):
    """Canonical JSON-able rendering of a spec fragment (or raise)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{
                f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): _canon(obj[k]) for k in sorted(obj, key=str)}
    raise _Uncacheable(f"no canonical form for {type(obj).__name__}")


def _coflow_token(c: Coflow) -> Dict:
    """Content of one coflow, minus the global-counter identifiers."""
    return {
        "arrival": c.arrival,
        "label": c.label,
        "deadline": c.deadline,
        "flows": [
            (f.src, f.dst, f.size, bool(f.compressible), f.ratio_override)
            for f in c.flows
        ],
    }


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable description of how a worker obtains its workload.

    Exactly one of three shapes (use the classmethod constructors):

    * ``inline`` — the coflows themselves ride in the spec;
    * ``generated`` — a :class:`WorkloadConfig` + seed, rebuilt in-worker
      via :func:`generate_workload` / :func:`generate_flow_workload`;
    * ``callable`` — an arbitrary picklable ``factory(seed)``; cacheable
      only when an explicit content ``tag`` is supplied, since the runner
      cannot see inside the callable.
    """

    kind: str = "generated"  # "inline" | "generated" | "callable"
    seed: Optional[int] = None
    config: Optional[WorkloadConfig] = None
    flow_level: bool = False
    coflows: Optional[Tuple[Coflow, ...]] = None
    factory: Optional[Callable[[int], Sequence[Coflow]]] = None
    tag: Optional[str] = None

    @classmethod
    def inline(cls, coflows: Sequence[Coflow]) -> "WorkloadSpec":
        return cls(kind="inline", coflows=tuple(coflows))

    @classmethod
    def generated(
        cls, config: WorkloadConfig, seed: int, flow_level: bool = False
    ) -> "WorkloadSpec":
        return cls(
            kind="generated", config=config, seed=int(seed),
            flow_level=flow_level,
        )

    @classmethod
    def from_callable(
        cls,
        factory: Callable[[int], Sequence[Coflow]],
        seed: int,
        tag: Optional[str] = None,
    ) -> "WorkloadSpec":
        return cls(kind="callable", factory=factory, seed=int(seed), tag=tag)

    def build(self) -> List[Coflow]:
        """Materialise the workload (in the worker process)."""
        if self.kind == "inline":
            return list(self.coflows)
        if self.kind == "generated":
            # Loaded with the spec's WorkloadConfig already.
            from repro.traces.generator import (
                generate_flow_workload,
                generate_workload,
            )

            gen = generate_flow_workload if self.flow_level else generate_workload
            return list(gen(self.config, np.random.default_rng(self.seed)))
        if self.kind == "callable":
            return list(self.factory(self.seed))
        raise ConfigurationError(f"unknown workload kind {self.kind!r}")

    def token(self):
        """Canonical cache-key fragment (raises ``_Uncacheable``)."""
        if self.kind == "inline":
            return {
                "kind": "inline",
                "coflows": [_coflow_token(c) for c in self.coflows],
            }
        if self.kind == "generated":
            return {
                "kind": "generated",
                "seed": self.seed,
                "flow_level": self.flow_level,
                "config": _canon(self.config),
            }
        # A callable is opaque: cacheable only with a caller-supplied tag.
        if self.tag is None:
            raise _Uncacheable("callable workload factory without a tag")
        return {"kind": "callable", "tag": self.tag, "seed": self.seed}


def _setup_token(setup: ExperimentSetup):
    return _canon(dataclasses.asdict(setup))


@dataclass(frozen=True)
class RunSpec:
    """One experiment cell of a sweep grid.

    ``policy`` is normally a registry name (see :func:`repro.schedulers.
    make_scheduler`) with optional constructor ``params``; a live
    :class:`Scheduler` instance also works (it is pickled to the worker
    and :meth:`~repro.core.scheduler.Scheduler.fresh`-ed there) but makes
    the spec uncacheable.
    """

    policy: Union[str, Scheduler]
    workload: WorkloadSpec
    setup: ExperimentSetup = field(default_factory=ExperimentSetup)
    params: Optional[Mapping] = None
    key: Optional[str] = None
    #: return the entire SimulationResult instead of a ResultSummary.
    full: bool = False
    #: include per-flow/per-coflow arrays in the summary.
    arrays: bool = False
    #: run with a metrics registry attached and ship a TelemetrySnapshot
    #: back on the RunOutcome.  Deliberately *not* part of the cache
    #: digest: telemetry observes the run, it cannot change its results.
    telemetry: bool = False

    def build_scheduler(self) -> Scheduler:
        from repro.schedulers import make_scheduler

        if isinstance(self.policy, str):
            return make_scheduler(self.policy, **dict(self.params or {}))
        return self.policy.fresh()

    def digest(self) -> Optional[str]:
        """Content-addressed cache key, or ``None`` when uncacheable."""
        try:
            token = {
                "schema": CACHE_SCHEMA,
                "version": repro.__version__,
                "numpy": np.__version__,
                "source": _source_digest(),
                "policy": self._policy_token(),
                "params": _canon(dict(self.params)) if self.params else None,
                "workload": self.workload.token(),
                "setup": _setup_token(self.setup),
                "full": self.full,
                "arrays": self.arrays,
            }
        except _Uncacheable:
            return None
        blob = json.dumps(token, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _policy_token(self):
        if isinstance(self.policy, str):
            return self.policy.lower()
        raise _Uncacheable("live Scheduler instances are not digestable")


@dataclass(frozen=True)
class SweepGrid:
    """A (policy × bandwidth × seed) grid of seeded synthetic workloads.

    The default mirrors the Fig. 6(e) evaluation shape (coflow traces,
    16 ports, bandwidth sweep) widened to four seeds so the grid is
    large enough for fan-out to matter.
    """

    policies: Tuple[str, ...] = (
        "sebf", "scf", "ncf", "lcf", "pff", "pfp", "fvdf",
    )
    bandwidths: Tuple[float, ...] = (mbps(100), gbps(1), gbps(10))
    seeds: Tuple[int, ...] = (14, 15, 16, 17)
    num_coflows: int = 60
    num_ports: int = 16
    max_width: int = 8
    arrival_rate: float = 2.0
    slice_len: float = 0.01

    @property
    def cells(self) -> int:
        return len(self.policies) * len(self.bandwidths) * len(self.seeds)

    def workload_config(self) -> WorkloadConfig:
        from repro.traces.generator import WorkloadConfig

        return WorkloadConfig(
            num_coflows=self.num_coflows,
            num_ports=self.num_ports,
            size_dist=LogNormalSizes(
                median=8 * MB, sigma=1.3, lo=64 * KB, hi=256 * MB
            ),
            width=(1, self.max_width),
            arrival_rate=self.arrival_rate,
        )

    def specs(self, telemetry: bool = False) -> List[RunSpec]:
        """One cacheable RunSpec per grid cell, in deterministic order.

        Workloads are *generated* specs (config + seed): each worker
        rebuilds its trace with ``np.random.default_rng(seed)``, so only
        a few hundred bytes cross the pipe per cell.  ``telemetry=True``
        makes every cell ship a :class:`~repro.runner.telemetry.
        TelemetrySnapshot` home (the cache digest is unaffected).
        """
        cfg = self.workload_config()
        out: List[RunSpec] = []
        for seed in self.seeds:
            workload = WorkloadSpec.generated(cfg, seed)
            for bw in self.bandwidths:
                setup = ExperimentSetup(
                    num_ports=self.num_ports, bandwidth=bw,
                    slice_len=self.slice_len,
                )
                for policy in self.policies:
                    out.append(
                        RunSpec(
                            policy=policy, workload=workload, setup=setup,
                            key=f"s{seed}/bw{bw:g}/{policy}",
                            telemetry=telemetry,
                        )
                    )
        return out

    def describe(self) -> Dict:
        return {
            "policies": list(self.policies),
            "bandwidths": [float(b) for b in self.bandwidths],
            "seeds": list(self.seeds),
            "num_coflows": self.num_coflows,
            "num_ports": self.num_ports,
            "max_width": self.max_width,
            "arrival_rate": self.arrival_rate,
            "slice_len": self.slice_len,
        }


#: The default grid of ``repro sweep`` / ``repro report`` (84 cells):
#: every grid option of theirs defaults to its field.
GRID = SweepGrid()


#: Scalar metrics available on a ResultSummary (run_seeds uses this to
#: decide whether the compact summary carries the requested metric).
SUMMARY_METRICS = (
    "avg_fct", "avg_cct", "makespan", "decision_points",
    "traffic_reduction", "total_bytes_sent", "total_bytes_original",
)


@dataclass
class ResultSummary:
    """Compact per-run record returned by pool workers.

    Scalar fields mirror the :class:`SimulationResult` properties the
    sweep-shaped benches consume; the optional arrays (requested with
    ``RunSpec(arrays=True)``) carry enough per-flow/per-coflow columns for
    percentile/CDF/size-bin analyses without shipping FlowResult objects.
    """

    policy: str
    avg_fct: float
    avg_cct: float
    makespan: float
    decision_points: int
    traffic_reduction: float
    num_flows: int
    num_coflows: int
    total_bytes_sent: float
    total_bytes_original: float
    fct: Optional[np.ndarray] = None
    flow_size: Optional[np.ndarray] = None
    cct: Optional[np.ndarray] = None
    coflow_finish: Optional[np.ndarray] = None

    _ARRAYS = ("fct", "flow_size", "cct", "coflow_finish")

    @classmethod
    def from_result(
        cls, policy: str, result: SimulationResult, arrays: bool = False
    ) -> "ResultSummary":
        # Everything here reads the result's cached columnar arrays —
        # no FlowResult/CoflowResult dataclasses are materialized, so a
        # lazy (ResultStore-backed) result stays lazy through the pool.
        fct = result.fct_array
        cct = result.cct_array
        out = cls(
            policy=policy,
            avg_fct=result.avg_fct,
            avg_cct=result.avg_cct,
            makespan=result.makespan,
            decision_points=result.decision_points,
            traffic_reduction=result.traffic_reduction,
            num_flows=int(fct.size),
            num_coflows=int(cct.size),
            total_bytes_sent=result.total_bytes_sent,
            total_bytes_original=result.total_bytes_original,
        )
        if arrays:
            out.fct = fct
            out.flow_size = result.size_array
            out.cct = cct
            out.coflow_finish = result.finish_array
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultSummary):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name in self._ARRAYS:
                if (a is None) != (b is None):
                    return False
                if a is not None and not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True
