"""Workloads: size distributions, synthetic generators, trace formats."""

from repro.traces.distributions import (
    ConstantSize,
    LogNormalSizes,
    MixtureSizes,
    SizeDistribution,
    TruncatedPareto,
    byte_share_above,
    fig1_distribution,
    spark_flow_sizes,
)
from repro.traces.facebook import (
    FacebookTrace,
    read_facebook_trace,
    synthesize,
    synthesize_facebook_like,
    trace_summary,
    write_facebook_trace,
)
from repro.traces.classify import (
    BINS,
    ClassifierConfig,
    bin_counts,
    cct_by_bin,
    classify_coflow,
    speedup_by_bin,
)
from repro.traces.io import read_csv_trace, write_csv_trace
from repro.traces.generator import (
    WorkloadConfig,
    filter_workload_by_size,
    generate_flow_workload,
    generate_workload,
    workload_stats,
)
from repro.traces.spark import (
    TABLE_I,
    AppProfile,
    get_profile,
    shuffle_coflow,
)

__all__ = [
    "SizeDistribution", "TruncatedPareto", "LogNormalSizes", "MixtureSizes",
    "ConstantSize", "fig1_distribution", "spark_flow_sizes", "byte_share_above",
    "WorkloadConfig", "generate_workload", "generate_flow_workload",
    "workload_stats", "filter_workload_by_size",
    "FacebookTrace", "read_facebook_trace", "write_facebook_trace",
    "synthesize", "synthesize_facebook_like", "trace_summary",
    "read_csv_trace", "write_csv_trace",
    "BINS", "ClassifierConfig", "classify_coflow", "bin_counts",
    "cct_by_bin", "speedup_by_bin",
    "AppProfile", "TABLE_I", "get_profile", "shuffle_coflow",
]
