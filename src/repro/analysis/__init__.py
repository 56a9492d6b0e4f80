"""Result analysis: experiment harness, metric helpers, report rendering.

Names load on first use (:mod:`repro._lazy`): importing
:mod:`repro.analysis.harness` compiles neither the renderers nor
:mod:`repro.core.metrics`.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".harness": ("ExperimentSetup", "run_policy", "run_many", "speedups_over"),
    ".seeds": ("SeedStats", "run_seeds"),
    ".tables": ("render_table", "summary_table", "render_cdf", "render_series"),
    ".timeline": ("render_timeline",),
    ".export": ("export_flows_csv", "export_coflows_csv"),
    ".svg": ("Series", "line_chart", "cdf_chart", "bar_chart"),
    ".collate": ("collate_reports",),
    ".tracefile": (
        "read_trace", "iter_trace", "trace_summary", "decision_timeline",
        "kinds_at", "record_run",
    ),
    "repro.core.metrics": (
        "empirical_cdf", "cdf_at", "speedup", "avg_fct", "avg_cct",
        "fct_values", "cct_values", "filter_flows_by_size_percentile",
        "fct_by_size_bins", "throughput_windows", "completion_rates",
        "TrafficSummary", "RunSummary", "compare",
    ),
})

__all__ = list(_EXPORTS)
