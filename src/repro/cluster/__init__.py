"""Cluster deployment simulator: jobs, GC, HiBench suites (paper §VI-B)."""

from repro.cluster.cluster import (
    ClusterConfig,
    ClusterResult,
    ClusterSimulator,
    place_tasks,
    run_hibench,
)
from repro.cluster.failures import NO_FAILURES, FailureModel
from repro.cluster.gc_model import GcModel
from repro.cluster.hibench import (
    DEFAULT_MIX,
    SCALE_TRAFFIC,
    expected_traffic_reduction,
    hibench_suite,
    suite_shuffle_bytes,
)
from repro.cluster.job import JobResult, JobSpec, StageRecord
from repro.cluster.node import ClusterNode, NodeSpec

__all__ = [
    "ClusterSimulator", "ClusterConfig", "ClusterResult",
    "JobSpec", "JobResult", "StageRecord",
    "ClusterNode", "NodeSpec", "GcModel", "FailureModel", "NO_FAILURES",
    "place_tasks", "run_hibench",
    "hibench_suite", "SCALE_TRAFFIC", "DEFAULT_MIX",
    "suite_shuffle_bytes", "expected_traffic_reduction",
]
