"""Workloads: size distributions, synthetic generators, trace formats.

Names load on first use (:mod:`repro._lazy`): importing
:mod:`repro.traces.distributions` compiles no other trace module.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".distributions": (
        "SizeDistribution", "TruncatedPareto", "LogNormalSizes",
        "MixtureSizes", "ConstantSize", "fig1_distribution",
        "spark_flow_sizes", "byte_share_above",
    ),
    ".generator": (
        "WorkloadConfig", "generate_workload", "generate_flow_workload",
        "workload_stats", "filter_workload_by_size",
    ),
    ".facebook": (
        "FacebookTrace", "read_facebook_trace", "write_facebook_trace",
        "synthesize", "synthesize_facebook_like", "trace_summary",
    ),
    ".io": ("read_csv_trace", "write_csv_trace"),
    ".classify": (
        "BINS", "ClassifierConfig", "classify_coflow", "bin_counts",
        "cct_by_bin", "speedup_by_bin",
    ),
    ".spark": ("AppProfile", "TABLE_I", "get_profile", "shuffle_coflow"),
})

__all__ = list(_EXPORTS)
